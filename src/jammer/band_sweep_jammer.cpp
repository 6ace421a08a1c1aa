#include "jammer/band_sweep_jammer.hpp"

#include <cmath>
#include <numbers>

#include "core/contracts.hpp"

namespace bhss::jammer {

BandSweepJammer::BandSweepJammer(double f_lo, double f_hi, std::size_t n_steps,
                                 std::size_t dwell_samples, double bandwidth_frac,
                                 std::uint64_t seed)
    : f_lo_(f_lo),
      f_hi_(f_hi),
      n_steps_(n_steps),
      dwell_samples_(dwell_samples),
      source_(bandwidth_frac, seed) {
  BHSS_REQUIRE(f_lo_ > -0.5 && f_lo_ < 0.5 && f_hi_ > -0.5 && f_hi_ < 0.5,
               "BandSweepJammer: sweep endpoints must lie in (-0.5, 0.5) cycles/sample");
  BHSS_REQUIRE(n_steps_ >= 1, "BandSweepJammer: need at least one dwell position");
  BHSS_REQUIRE(dwell_samples_ >= 1, "BandSweepJammer: dwell must be >= 1 sample");
}

double BandSweepJammer::centre_freq(std::size_t step) const noexcept {
  if (n_steps_ == 1) return 0.5 * (f_lo_ + f_hi_);
  const double t = static_cast<double>(step) / static_cast<double>(n_steps_ - 1);
  return f_lo_ + t * (f_hi_ - f_lo_);
}

dsp::cvec BandSweepJammer::generate(std::size_t n) {
  // Baseband shaped noise first (the stream advances by exactly n), then mix
  // each sample up to the centre frequency of the dwell it falls in.
  // Mixing preserves power, so the output stays unit power.
  dsp::cvec out = source_.generate(n);
  constexpr double two_pi = 2.0 * std::numbers::pi;
  const std::size_t sweep_period = n_steps_ * dwell_samples_;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t step = pos_ / dwell_samples_;
    const double f = centre_freq(step);
    out[i] *= dsp::cf{static_cast<float>(std::cos(phase_)), static_cast<float>(std::sin(phase_))};
    phase_ += two_pi * f;
    if (phase_ > two_pi) phase_ -= two_pi;
    if (phase_ < -two_pi) phase_ += two_pi;
    pos_ = (pos_ + 1) % sweep_period;
  }
  return out;
}

}  // namespace bhss::jammer
