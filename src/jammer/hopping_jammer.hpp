#pragma once

/// @file hopping_jammer.hpp
/// A jammer that randomly hops its own bandwidth (§6.4.3): the paper shows
/// that against an adaptive BHSS transmitter, fixed-bandwidth jamming is a
/// losing strategy, so the rational jammer hops too — using the same
/// linear / exponential / parabolic distributions as the transmitter.

#include <cstdint>
#include <random>
#include <vector>

#include "jammer/noise_jammer.hpp"

namespace bhss::jammer {

/// Bandwidth-hopping Gaussian noise jammer with unit output power.
class HoppingJammer {
 public:
  /// @param bandwidth_fracs  candidate bandwidths (fractions of Rs)
  /// @param probabilities    draw probabilities (same size, sum ~ 1)
  /// @param dwell_samples    samples between bandwidth decisions
  /// @param seed             rng seed (independent of the transmitter's!)
  HoppingJammer(std::vector<double> bandwidth_fracs, std::vector<double> probabilities,
                std::size_t dwell_samples, std::uint64_t seed);

  /// Generate `n` samples, re-drawing the bandwidth every dwell.
  [[nodiscard]] dsp::cvec generate(std::size_t n);

  /// Bandwidths chosen during the last generate() call, one per dwell.
  [[nodiscard]] const std::vector<double>& last_hop_bandwidths() const noexcept {
    return last_hops_;
  }

 private:
  std::vector<double> bandwidth_fracs_;
  std::size_t dwell_samples_;
  std::vector<NoiseJammer> sources_;  ///< one shaped source per bandwidth
  // The jammer is the adversary: its RNG is a separate domain from the
  // protocol's SharedRandom by design, seeded explicitly per instance so
  // runs stay replayable without consuming the communicator's stream.
  // BHSS_ANALYZE_SUPPRESS(d2-rng-discipline): adversary-domain RNG, explicitly seeded per instance
  std::mt19937_64 rng_;
  // BHSS_ANALYZE_SUPPRESS(d2-rng-discipline): the engine's distribution, same adversary domain
  std::discrete_distribution<std::size_t> pick_;
  std::vector<double> last_hops_;
};

}  // namespace bhss::jammer
