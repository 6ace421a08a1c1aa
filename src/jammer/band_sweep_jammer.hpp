#pragma once

/// @file band_sweep_jammer.hpp
/// Stepped band-sweeping noise jammer: a non-stationary adversary that
/// parks a narrow shaped-noise band at a sequence of centre frequencies
/// marching across the channel and wrapping around. Unlike the CW chirp
/// (SweptJammer in tone_jammer.hpp) this sweeps *noise of finite
/// bandwidth*, so each dwell looks exactly like a partial-band jammer to
/// the receiver's PSD estimator — the excision filter can win each dwell,
/// but the jammed region keeps moving, which exercises the suspicion
/// decay in the adaptation loop (stale evidence must fade or the adapted
/// distribution chases where the jammer *was*).

#include <cstdint>

#include "jammer/noise_jammer.hpp"

namespace bhss::jammer {

/// Frequency-stepped band-limited Gaussian jammer with unit power.
class BandSweepJammer {
 public:
  /// @param f_lo, f_hi        sweep endpoints (centre frequency), each in
  ///                          (-0.5, 0.5) cycles/sample
  /// @param n_steps           dwell positions per sweep (>= 1); centres
  ///                          are spaced evenly from f_lo to f_hi
  /// @param dwell_samples     samples spent at each centre (>= 1)
  /// @param bandwidth_frac    occupied bandwidth per dwell, in (0, 1]
  /// @param seed              noise generator seed
  BandSweepJammer(double f_lo, double f_hi, std::size_t n_steps, std::size_t dwell_samples,
                  double bandwidth_frac, std::uint64_t seed);

  /// Generate `n` samples. Sweep position and mixer phase are continuous
  /// across calls: a dwell can straddle a call boundary and the centre
  /// frequency keeps marching on schedule. (The shaped noise is one
  /// stream across calls but is normalised per call like every jammer
  /// here, so splitting a call rescales its pieces; link-level determinism
  /// comes from the simulator replaying the identical per-packet call
  /// sequence, not from sample-level call-splitting invariance.)
  [[nodiscard]] dsp::cvec generate(std::size_t n);

  [[nodiscard]] std::size_t n_steps() const noexcept { return n_steps_; }
  [[nodiscard]] std::size_t dwell_samples() const noexcept { return dwell_samples_; }

 private:
  [[nodiscard]] double centre_freq(std::size_t step) const noexcept;

  double f_lo_;
  double f_hi_;
  std::size_t n_steps_;
  std::size_t dwell_samples_;
  NoiseJammer source_;   ///< baseband shaped noise, mixed up per dwell
  std::size_t pos_ = 0;  ///< samples generated so far (mod sweep period)
  double phase_ = 0.0;   ///< mixer phase [rad], continuous across steps
};

}  // namespace bhss::jammer
