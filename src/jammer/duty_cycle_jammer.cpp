#include "jammer/duty_cycle_jammer.hpp"

#include <algorithm>
#include <cmath>

#include "core/contracts.hpp"

namespace bhss::jammer {

namespace {

std::size_t quantised_on_samples(std::size_t period_samples, double duty) {
  BHSS_REQUIRE(period_samples >= 1, "DutyCycleJammer: period must be >= 1 sample");
  BHSS_REQUIRE(duty > 0.0 && duty <= 1.0, "DutyCycleJammer: duty must lie in (0, 1]");
  const auto rounded =
      static_cast<std::size_t>(std::llround(static_cast<double>(period_samples) * duty));
  return std::clamp<std::size_t>(rounded, 1, period_samples);
}

}  // namespace

DutyCycleJammer::DutyCycleJammer(double bandwidth_frac, std::size_t period_samples, double duty,
                                 std::uint64_t seed)
    : period_samples_(period_samples),
      on_samples_(quantised_on_samples(period_samples, duty)),
      // Gain from the *realised* duty so quantised burst edges still
      // leave the average power exactly unit.
      duty_(static_cast<double>(on_samples_) / static_cast<double>(period_samples_)),
      burst_gain_(1.0 / std::sqrt(duty_)),
      source_(bandwidth_frac, seed) {}

dsp::cvec DutyCycleJammer::generate(std::size_t n) {
  // Take the next n samples of the shaped stream first, then gate them:
  // the stream advances by exactly n and the per-call power normalisation
  // covers all n, never depending on where the burst phase happens to sit.
  dsp::cvec out = source_.generate(n);
  const float gain = static_cast<float>(burst_gain_);
  for (std::size_t i = 0; i < n; ++i) {
    if (pos_ < on_samples_) {
      out[i] *= gain;
    } else {
      out[i] = dsp::cf{0.0F, 0.0F};
    }
    pos_ = (pos_ + 1) % period_samples_;
  }
  return out;
}

}  // namespace bhss::jammer
