#pragma once

/// @file hopping_jammer.hpp
/// A jammer that randomly hops its own bandwidth (§6.4.3): the paper shows
/// that against an adaptive BHSS transmitter, fixed-bandwidth jamming is a
/// losing strategy, so the rational jammer hops too — using the same
/// linear / exponential / parabolic distributions as the transmitter.

#include <cstdint>
#include <vector>

#include "core/shared_random.hpp"
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
  std::vector<double> probabilities_;  ///< draw weights, one per bandwidth
  std::size_t dwell_samples_;
  std::vector<NoiseJammer> sources_;  ///< one shaped source per bandwidth
  // The jammer is the adversary: it draws its picks from its own
  // SharedRandom, seeded per instance and never shared with the
  // protocol's, so runs replay without consuming the communicator's
  // stream. pick() is the sampler HopPattern::draw uses for the
  // transmitter.
  core::SharedRandom rng_;
  std::vector<double> last_hops_;
};

}  // namespace bhss::jammer
