#pragma once

/// @file estimating_jammer.hpp
/// Distribution-estimating reactive jammer: the strongest adversary in
/// this zoo. Instead of chasing individual hops one reaction behind
/// (ReactiveJammer), it *learns the victim's hop distribution* from the
/// bandwidths it observes over the air, then concentrates its whole
/// power budget on the most probable bandwidth. Against a static hop
/// pattern this converges and stays converged — exactly the adversary
/// the closed-loop adaptation layer exists to beat: once the victim
/// re-weights away from the targeted bandwidth, the jammer's histogram
/// goes stale and must re-learn, and the exponential forgetting below
/// bounds how long the stale estimate persists.

#include <cstdint>
#include <span>
#include <vector>

#include "jammer/reactive_jammer.hpp"

namespace bhss::jammer {

/// Histogram-learning jammer that targets the victim's modal bandwidth.
class EstimatingJammer {
 public:
  /// @param available_bws    bandwidths the jammer can produce (fractions
  ///                         of Rs); observations snap to the closest
  /// @param estimation_hops  observed hops required before the first
  ///                         estimate exists; also sets the forgetting
  ///                         horizon (counts halve at 2x this)
  /// @param seed             rng seed
  EstimatingJammer(std::vector<double> available_bws, std::size_t estimation_hops,
                   std::uint64_t seed);

  /// Generate `n` samples aimed at the current estimate, then fold this
  /// transmission's observed hops into the histogram. Output strictly
  /// precedes the update — the estimate always lags by at least one
  /// whole transmission (the jammer cannot use hops it is still seeing).
  [[nodiscard]] dsp::cvec generate(std::span<const ObservedHop> hops, std::size_t n);

  /// Current target bandwidth index (widest until the first estimate).
  [[nodiscard]] std::size_t target_index() const noexcept { return target_; }

  /// Observed-hop counts per bandwidth index (post-forgetting).
  [[nodiscard]] const std::vector<std::uint64_t>& histogram() const noexcept { return counts_; }

 private:
  std::vector<double> available_bws_;
  std::size_t estimation_hops_;
  std::vector<NoiseJammer> sources_;
  std::vector<std::uint64_t> counts_;  ///< observed hops per bandwidth index
  std::uint64_t observed_ = 0;         ///< total observations (post-forgetting)
  std::size_t target_;                 ///< bandwidth index currently jammed
};

}  // namespace bhss::jammer
