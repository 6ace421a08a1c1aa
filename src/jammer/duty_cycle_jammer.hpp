#pragma once

/// @file duty_cycle_jammer.hpp
/// Duty-cycled (pulsed) noise jammer: a non-stationary adversary that
/// concentrates its power budget into periodic bursts. The attacker model
/// of §2 fixes the *average* power, so a jammer on for a fraction `duty`
/// of each period may burn 1/duty times the power while transmitting —
/// bursts hit hard, gaps look clean. This is the canonical stressor for
/// windowed jam detection: a detector without debounce flaps once per
/// period, one with debounce must still trip within a bounded number of
/// windows.

#include <cstdint>

#include "jammer/noise_jammer.hpp"

namespace bhss::jammer {

/// Pulsed band-limited Gaussian jammer with unit *average* power.
class DutyCycleJammer {
 public:
  /// @param bandwidth_frac  occupied bandwidth fraction, in (0, 1]
  /// @param period_samples  samples per on/off period (>= 1)
  /// @param duty            on-fraction of each period, in (0, 1]
  /// @param seed            noise generator seed
  DutyCycleJammer(double bandwidth_frac, std::size_t period_samples, double duty,
                  std::uint64_t seed);

  /// Generate `n` samples. The burst phase is continuous across calls, so
  /// an on/off period can straddle a call boundary and the gap lands at
  /// exactly the same sample positions as in one long call. (The shaped
  /// noise is one stream across calls but is normalised per call like
  /// every jammer here, so splitting a call rescales its pieces: the link
  /// simulator draws one call per packet and replays the identical call
  /// sequence on resume, which is what its determinism rests on.)
  [[nodiscard]] dsp::cvec generate(std::size_t n);

  [[nodiscard]] std::size_t period_samples() const noexcept { return period_samples_; }
  [[nodiscard]] double duty() const noexcept { return duty_; }

 private:
  std::size_t period_samples_;
  std::size_t on_samples_;  ///< burst length: round(period * duty), >= 1
  double duty_;             ///< realised on-fraction after quantisation
  double burst_gain_;       ///< 1/sqrt(duty): average power stays unit
  NoiseJammer source_;
  std::size_t pos_ = 0;  ///< position within the current period
};

}  // namespace bhss::jammer
