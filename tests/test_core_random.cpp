// Unit tests for the shared random source: the transmitter/receiver
// lock-step property everything else depends on.

#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <cstring>
#include <limits>
#include <numbers>
#include <vector>

#include "core/shared_random.hpp"

namespace bhss::core {
namespace {

TEST(SharedRandom, SameSeedSameStream) {
  SharedRandom a(123);
  SharedRandom b(123);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(SharedRandom, DifferentSeedsDiverge) {
  SharedRandom a(1);
  SharedRandom b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(SharedRandom, NearbySeedsUncorrelated) {
  // splitmix64 seeding: seed and seed+1 give unrelated bit streams.
  SharedRandom a(1000);
  SharedRandom b(1001);
  int matching_bits = 0;
  for (int i = 0; i < 64; ++i) {
    matching_bits += __builtin_popcountll(~(a.next_u64() ^ b.next_u64()));
  }
  EXPECT_NEAR(matching_bits, 64 * 32, 400);
}

TEST(SharedRandom, UniformInRange) {
  SharedRandom rng(7);
  double mean = 0.0;
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    mean += u;
  }
  EXPECT_NEAR(mean / 10000.0, 0.5, 0.02);
}

TEST(SharedRandom, UniformIndexCoversRange) {
  SharedRandom rng(8);
  std::vector<int> counts(7, 0);
  for (int i = 0; i < 7000; ++i) ++counts[rng.uniform_index(7)];
  for (int c : counts) EXPECT_NEAR(c, 1000, 150);
  EXPECT_EQ(rng.uniform_index(0), 0U);
}

TEST(SharedRandom, PickFollowsWeights) {
  SharedRandom rng(9);
  const std::vector<double> weights = {1.0, 3.0, 6.0};
  std::vector<int> counts(3, 0);
  for (int i = 0; i < 20000; ++i) ++counts[rng.pick(weights)];
  EXPECT_NEAR(counts[0] / 20000.0, 0.1, 0.02);
  EXPECT_NEAR(counts[1] / 20000.0, 0.3, 0.02);
  EXPECT_NEAR(counts[2] / 20000.0, 0.6, 0.02);
}

TEST(SharedRandom, PickDegenerateInputs) {
  SharedRandom rng(10);
  EXPECT_EQ(rng.pick({}), 0U);
  const std::vector<double> zeros = {0.0, 0.0};
  EXPECT_EQ(rng.pick(zeros), 0U);
  const std::vector<double> one = {0.0, 5.0, 0.0};
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.pick(one), 1U);
}

TEST(SharedRandom, ScramblerSeedNonZero) {
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    SharedRandom rng(seed);
    EXPECT_NE(rng.derive_scrambler_seed(), 0U) << "seed " << seed;
  }
}

TEST(SharedRandom, ForFrameIsDeterministicAndFrameDependent) {
  SharedRandom a = SharedRandom::for_frame(555, 3);
  SharedRandom b = SharedRandom::for_frame(555, 3);
  SharedRandom c = SharedRandom::for_frame(555, 4);
  const std::uint64_t va = a.next_u64();
  EXPECT_EQ(va, b.next_u64());
  EXPECT_NE(va, c.next_u64());
}

TEST(GaussianFromBits, BlockPathMatchesScalarTransform) {
  // add_gaussian transforms draws in vectorised blocks of 256; the bits
  // must equal the one-draw-at-a-time reference, across block boundaries
  // and a ragged tail. Power 1.125 is sigma 0.75 per rail, exactly.
  SharedRandom block(9);
  SharedRandom scalar(9);
  std::vector<std::complex<float>> x(1000);
  block.add_gaussian(x, 1.125);
  for (std::size_t i = 0; i < x.size(); ++i) {
    const std::complex<float> ref = gaussian_from_bits(scalar.next_u64(), 0.75F);
    EXPECT_EQ(std::memcmp(&ref, &x[i], sizeof ref), 0) << "sample " << i;
  }
  // One draw per sample: both generators sit at the same stream position.
  EXPECT_EQ(block.next_u64(), scalar.next_u64());
}

TEST(GaussianFromBits, RadiusIsFiniteMonotoneAndCapped) {
  // Exhaustive over all 2^24 radius draws, at the in-quadrant angle nearest
  // zero (cos = 1, so the I rail is the radius itself). The radius must be
  // finite, non-negative, non-increasing in the draw, start at the
  // documented sqrt(48 ln 2) ~ 5.77 cap and end at 0 (u1 = 1).
  constexpr std::uint64_t kNearZeroAngle = std::uint64_t{1} << (23 + 6);
  const double cap = std::sqrt(48.0 * std::numbers::ln2);
  float prev = std::numeric_limits<float>::infinity();
  for (std::uint64_t k = 0; k < (std::uint64_t{1} << 24); ++k) {
    const float r = gaussian_from_bits((k << 40) | kNearZeroAngle, 1.0F).real();
    ASSERT_TRUE(std::isfinite(r)) << "k " << k;
    ASSERT_GE(r, 0.0F) << "k " << k;
    ASSERT_LE(r, prev) << "k " << k;
    prev = r;
  }
  const float first = gaussian_from_bits(kNearZeroAngle, 1.0F).real();
  EXPECT_NEAR(first, cap, 1e-5 * cap);
  EXPECT_EQ(prev, 0.0F);
}

TEST(GaussianFromBits, QuadrantBitsRotateByQuarterTurns) {
  // The top two bits of the low word pick the quadrant: each step is an
  // exact quarter turn (x, y) -> (-y, x), done with sign and swap masks.
  SharedRandom rng(31);
  for (int trial = 0; trial < 1000; ++trial) {
    const std::uint64_t base = rng.next_u64() & ~(std::uint64_t{3} << 30);
    for (std::uint64_t q = 1; q < 4; ++q) {
      const std::complex<float> prev = gaussian_from_bits(base | ((q - 1) << 30), 1.0F);
      const std::complex<float> g = gaussian_from_bits(base | (q << 30), 1.0F);
      EXPECT_EQ(g.real(), -prev.imag()) << "q " << q;
      EXPECT_EQ(g.imag(), prev.real()) << "q " << q;
    }
  }
}

}  // namespace
}  // namespace bhss::core
