#include "jammer/tone_jammer.hpp"

#include <cmath>
#include <numbers>
#include <stdexcept>

#include "core/contracts.hpp"
#include "core/shared_random.hpp"

namespace bhss::jammer {

ToneJammer::ToneJammer(std::vector<double> freqs, std::uint64_t seed)
    : freqs_(std::move(freqs)) {
  BHSS_REQUIRE(!freqs_.empty(), "ToneJammer: need at least one tone");
  for (double f : freqs_) {
    BHSS_REQUIRE(f > -0.5 && f < 0.5, "ToneJammer: frequency must be in (-0.5, 0.5)");
  }
  core::SharedRandom rng(seed);
  phases_.resize(freqs_.size());
  for (double& p : phases_) p = rng.uniform() * 2.0 * std::numbers::pi;
}

dsp::cvec ToneJammer::generate(std::size_t n) {
  dsp::cvec out(n, dsp::cf{0.0F, 0.0F});
  const double amp = 1.0 / std::sqrt(static_cast<double>(freqs_.size()));
  for (std::size_t t = 0; t < freqs_.size(); ++t) {
    double phase = phases_[t];
    const double step = 2.0 * std::numbers::pi * freqs_[t];
    for (std::size_t i = 0; i < n; ++i) {
      out[i] += dsp::cf{static_cast<float>(amp * std::cos(phase)),
                        static_cast<float>(amp * std::sin(phase))};
      phase += step;
      if (phase > std::numbers::pi) phase -= 2.0 * std::numbers::pi;
      if (phase < -std::numbers::pi) phase += 2.0 * std::numbers::pi;
    }
    phases_[t] = phase;
  }
  return out;
}

SweptJammer::SweptJammer(double f_lo, double f_hi, std::size_t sweep_samples,
                         std::uint64_t seed)
    : f_lo_(f_lo), f_hi_(f_hi) {
  BHSS_REQUIRE(f_lo < f_hi && f_lo > -0.5 && f_hi < 0.5,
               "SweptJammer: need -0.5 < f_lo < f_hi < 0.5");
  BHSS_REQUIRE(sweep_samples != 0, "SweptJammer: sweep must be > 0");
  rate_ = (f_hi - f_lo) / static_cast<double>(sweep_samples);
  core::SharedRandom rng(seed);
  freq_ = f_lo + rng.uniform() * (f_hi - f_lo);
  phase_ = rng.uniform() * 2.0 * std::numbers::pi;
}

dsp::cvec SweptJammer::generate(std::size_t n) {
  dsp::cvec out(n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = dsp::cf{static_cast<float>(std::cos(phase_)),
                     static_cast<float>(std::sin(phase_))};
    phase_ += 2.0 * std::numbers::pi * freq_;
    if (phase_ > std::numbers::pi) phase_ -= 2.0 * std::numbers::pi;
    freq_ += rate_;
    if (freq_ > f_hi_) freq_ = f_lo_;  // wrap the sweep
  }
  return out;
}

}  // namespace bhss::jammer
