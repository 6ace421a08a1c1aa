#pragma once

/// @file noise_jammer.hpp
/// Band-limited Gaussian noise jammer — exactly how the paper's jammer is
/// built (§6.2: "a random Gaussian source from GnuRadio and applying a low
/// pass filter on the signal"). The attacker model (§2) allows arbitrary
/// waveforms under a power budget; AWGN of chosen bandwidth is the
/// jammer's best generic strategy.

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "channel/awgn.hpp"
#include "dsp/fir.hpp"
#include "dsp/types.hpp"

namespace bhss::jammer {

/// Fixed-bandwidth Gaussian noise jammer with unit output power.
///
/// Like the paper's Gaussian source feeding a low-pass filter, the jammer
/// is one continuous filtered stream: successive `generate` calls hand out
/// successive stretches of it, each rescaled to unit power. The shaping
/// filter's history is primed with noise at construction, so the first
/// call has no start-up transient either.
class NoiseJammer {
 public:
  /// @param bandwidth_frac  occupied (two-sided) bandwidth as a fraction
  ///                        of the sampling rate, in (0, 1]. 1 = full-band
  ///                        white noise (no shaping filter).
  /// @param seed            noise generator seed
  /// @param num_taps        shaping filter length (odd); higher = steeper
  ///                        band edges. The default keeps the transition
  ///                        skirts narrow relative to even the narrowest
  ///                        paper bandwidth (0.156 MHz at 20 MS/s), as a
  ///                        jammer spending its power budget efficiently
  ///                        would.
  NoiseJammer(double bandwidth_frac, std::uint64_t seed, std::size_t num_taps = 2049);

  /// The next `n` samples of the stream, scaled to unit mean power.
  [[nodiscard]] dsp::cvec generate(std::size_t n);

  [[nodiscard]] double bandwidth_frac() const noexcept { return bandwidth_frac_; }

 private:
  double bandwidth_frac_;
  channel::AwgnSource noise_;
  std::optional<dsp::FftConvolver> stream_;  ///< shaping filter; absent for full-band noise
  std::size_t cursor_ = 0;                   ///< first unread output in stream_->block()
};

/// The sources a bandwidth-switching jammer draws from: one NoiseJammer
/// per entry of `bandwidths`, source i seeded `base_seed + i + 1`.
[[nodiscard]] std::vector<NoiseJammer> noise_bank(std::span<const double> bandwidths,
                                                  std::uint64_t base_seed);

/// Index of the entry of `bandwidths` closest to `bw` in log distance;
/// ties go to the lower index. `bandwidths` must not be empty.
[[nodiscard]] std::size_t closest_bandwidth(std::span<const double> bandwidths, double bw);

}  // namespace bhss::jammer
