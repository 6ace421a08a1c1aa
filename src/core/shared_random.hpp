#pragma once

/// @file shared_random.hpp
/// The shared random source of the paper (Fig. 4/6): transmitter and
/// receiver are initialised with the same seed (pre-shared key [16] or
/// uncoordinated discovery [17] — the paper assumes such a mechanism
/// exists, §4.1) and derive from it, in lock-step, the PN scrambler seed
/// and the bandwidth hopping sequence. The jammer does not know the seed,
/// so both are unpredictable to it.
///
/// Implemented as xoshiro256** — small, fast, reproducible across
/// platforms (unlike the standard library's distribution wrappers).
///
/// This file is also the home of every Gaussian draw in the tree (channel
/// AWGN, noise jammers, fault bursts): a project-owned Box–Muller transform
/// that turns one 64-bit draw into one complex sample. It uses only
/// + − ×, std::sqrt and integer bit operations — log, sin and cos are
/// polynomials — and its TU is built without FMA contraction, so sample k
/// of a stream is the same bits for a given seed on every standard library
/// and ISA.

#include <array>
#include <complex>
#include <cstdint>
#include <span>

#include "core/contracts.hpp"

namespace bhss::core {

/// Deterministic PRNG shared between transmitter and receiver.
class SharedRandom {
 public:
  /// Seed via splitmix64 expansion so nearby seeds give unrelated streams.
  explicit SharedRandom(std::uint64_t seed) noexcept;

  /// Next 64 random bits.
  [[nodiscard]] BHSS_HOT std::uint64_t next_u64() noexcept;

  /// Uniform double in [0, 1).
  [[nodiscard]] BHSS_HOT double uniform() noexcept;

  /// Uniform integer in [0, n).
  [[nodiscard]] BHSS_HOT std::size_t uniform_index(std::size_t n) noexcept;

  /// Add to every x[k] a circularly-symmetric complex Gaussian sample of
  /// total power `power` (independent N(0, power/2) rails). Sample k
  /// consumes exactly one next_u64() draw (see gaussian_from_bits), so
  /// splitting a request into chunks never changes the stream.
  BHSS_HOT void add_gaussian(std::span<std::complex<float>> x, double power) noexcept;

  /// Draw an index according to a discrete distribution (weights need not
  /// be normalised).
  [[nodiscard]] BHSS_HOT std::size_t pick(std::span<const double> weights) noexcept;

  /// Derive a non-zero 32-bit seed for the PN chip scrambler.
  [[nodiscard]] std::uint32_t derive_scrambler_seed() noexcept;

  /// Derive a per-frame SharedRandom: both sides mix the frame counter
  /// into the session seed so every frame gets a fresh, aligned stream.
  [[nodiscard]] static SharedRandom for_frame(std::uint64_t session_seed,
                                              std::uint64_t frame_counter) noexcept;

  /// Seed-split: derive an independent child seed from (base, stream,
  /// index). Used by the parallel Monte-Carlo runner to give every shard
  /// its own (channel, impairments, jammer) seed tuple. The mapping is a
  /// pure integer mix (splitmix64 chain), so it is identical on every
  /// platform — tests pin golden values.
  [[nodiscard]] static std::uint64_t split_seed(std::uint64_t base, std::uint64_t stream,
                                                std::uint64_t index) noexcept;

 private:
  std::array<std::uint64_t, 4> s_;
};

/// The Box–Muller transform behind SharedRandom::add_gaussian: one 64-bit
/// draw to one complex sample with N(0, sigma²) rails, where
/// sigma = float(sqrt(power / 2)).
///
/// Bit layout: the top 24 bits give u1 = (k + 1)·2⁻²⁴ in (0, 1] and the
/// radius sqrt(−2 ln u1); the next 2 bits pick a quadrant; the 24 bits
/// below that place the angle inside the quadrant. The smallest u1 is
/// 2⁻²⁴, so the radius — and with it |I| and |Q| — is truncated at
/// sqrt(48 ln 2) ≈ 5.77 sigma. An ideal complex Gaussian lands beyond that
/// radius once in 2²⁴ samples; here those samples land on the cap.
[[nodiscard]] std::complex<float> gaussian_from_bits(std::uint64_t bits, float sigma) noexcept;

}  // namespace bhss::core
