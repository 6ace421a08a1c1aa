#pragma once

/// @file awgn.hpp
/// Complex additive white Gaussian noise source. The paper's §6.2 setup
/// (coax cables + attenuators, free-running oscillators) is explicitly
/// modelled as an AWGN channel; this source provides both the thermal
/// noise floor and the raw material for the noise jammer.
///
/// Samples come from core::SharedRandom's Box–Muller transform: one
/// xoshiro256** draw per complex sample, so sample k of a source is a pure
/// function of (seed, k) — the same bits on every standard library and
/// ISA, and independent of how the stream is split into calls. Each rail's
/// magnitude is capped at sqrt(48 ln 2) ≈ 5.77 sigma by the 24-bit radius
/// draw (see core::gaussian_from_bits); an ideal Gaussian crosses that
/// radius once in 2²⁴ samples.

#include <cstdint>

#include "core/shared_random.hpp"
#include "dsp/types.hpp"

namespace bhss::channel {

/// Seeded complex white Gaussian noise generator.
class AwgnSource {
 public:
  explicit AwgnSource(std::uint64_t seed) : rng_(seed) {}

  /// Generate `n` samples of circularly-symmetric complex Gaussian noise
  /// with total power `power` (variance power/2 per rail).
  [[nodiscard]] dsp::cvec generate(std::size_t n, double power);

  /// Add noise of power `power` to `x` in place. Adds exactly the samples
  /// generate() would have returned for the same stream position.
  void add_to(dsp::cspan_mut x, double power);

 private:
  core::SharedRandom rng_;
};

}  // namespace bhss::channel
