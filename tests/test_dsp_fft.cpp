// Unit tests for the radix-2 FFT: impulse/DC responses, linearity against
// a naive DFT, Parseval's theorem, round-trip inversion, and a digest pin
// of the exact output bits.

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <numbers>
#include <random>

#include "core/shared_random.hpp"
#include "dsp/fft.hpp"

namespace bhss::dsp {
namespace {

cvec random_signal(std::size_t n, unsigned seed) {
  std::mt19937 rng(seed);
  std::normal_distribution<float> dist(0.0F, 1.0F);
  cvec x(n);
  for (cf& v : x) v = cf{dist(rng), dist(rng)};
  return x;
}

cvec naive_dft(cspan x) {
  const std::size_t n = x.size();
  cvec out(n);
  for (std::size_t k = 0; k < n; ++k) {
    std::complex<double> acc{0.0, 0.0};
    for (std::size_t j = 0; j < n; ++j) {
      const double ang = -2.0 * std::numbers::pi * static_cast<double>(k) *
                         static_cast<double>(j) / static_cast<double>(n);
      acc += std::complex<double>(x[j]) * std::polar(1.0, ang);
    }
    out[k] = cf{static_cast<float>(acc.real()), static_cast<float>(acc.imag())};
  }
  return out;
}

TEST(Fft, ValidSize) {
  EXPECT_TRUE(Fft::valid_size(2));
  EXPECT_TRUE(Fft::valid_size(1024));
  EXPECT_FALSE(Fft::valid_size(0));
  EXPECT_FALSE(Fft::valid_size(1));
  EXPECT_FALSE(Fft::valid_size(3));
  EXPECT_FALSE(Fft::valid_size(96));
}

TEST(Fft, RejectsInvalidSize) {
  EXPECT_THROW(Fft(0), std::invalid_argument);
  EXPECT_THROW(Fft(7), std::invalid_argument);
}

TEST(Fft, ImpulseIsFlat) {
  Fft fft(64);
  cvec x(64, cf{0.0F, 0.0F});
  x[0] = cf{1.0F, 0.0F};
  fft.forward(cspan_mut{x});
  for (const cf& v : x) {
    EXPECT_NEAR(v.real(), 1.0F, 1e-5);
    EXPECT_NEAR(v.imag(), 0.0F, 1e-5);
  }
}

TEST(Fft, DcGoesToBinZero) {
  Fft fft(32);
  cvec x(32, cf{1.0F, 0.0F});
  fft.forward(cspan_mut{x});
  EXPECT_NEAR(x[0].real(), 32.0F, 1e-4);
  for (std::size_t k = 1; k < 32; ++k) EXPECT_NEAR(std::abs(x[k]), 0.0F, 1e-4);
}

TEST(Fft, ToneLandsInRightBin) {
  const std::size_t n = 128;
  const std::size_t bin = 5;
  Fft fft(n);
  cvec x(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double ang = 2.0 * std::numbers::pi * static_cast<double>(bin) *
                       static_cast<double>(i) / static_cast<double>(n);
    x[i] = cf{static_cast<float>(std::cos(ang)), static_cast<float>(std::sin(ang))};
  }
  fft.forward(cspan_mut{x});
  EXPECT_NEAR(std::abs(x[bin]), static_cast<float>(n), 1e-3);
  for (std::size_t k = 0; k < n; ++k) {
    if (k != bin) {
      EXPECT_NEAR(std::abs(x[k]), 0.0F, 1e-3) << "bin " << k;
    }
  }
}

class FftVsNaive : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FftVsNaive, MatchesNaiveDft) {
  const std::size_t n = GetParam();
  const cvec x = random_signal(n, 42);
  const cvec expected = naive_dft(x);
  Fft fft(n);
  const cvec got = fft.forward_copy(x);
  for (std::size_t k = 0; k < n; ++k) {
    EXPECT_NEAR(got[k].real(), expected[k].real(), 2e-3 * static_cast<float>(n));
    EXPECT_NEAR(got[k].imag(), expected[k].imag(), 2e-3 * static_cast<float>(n));
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, FftVsNaive, ::testing::Values(2, 4, 8, 16, 32, 64, 256));

class FftRoundTrip : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FftRoundTrip, InverseUndoesForward) {
  const std::size_t n = GetParam();
  const cvec original = random_signal(n, 7);
  cvec x = original;
  Fft fft(n);
  fft.forward(cspan_mut{x});
  fft.inverse(cspan_mut{x});
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(x[i].real(), original[i].real(), 1e-4);
    EXPECT_NEAR(x[i].imag(), original[i].imag(), 1e-4);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, FftRoundTrip,
                         ::testing::Values(2, 8, 64, 512, 4096));

TEST(Fft, Parseval) {
  const std::size_t n = 256;
  const cvec x = random_signal(n, 3);
  double time_energy = 0.0;
  for (const cf& v : x) time_energy += std::norm(v);
  Fft fft(n);
  const cvec spec = fft.forward_copy(x);
  double freq_energy = 0.0;
  for (const cf& v : spec) freq_energy += std::norm(v);
  EXPECT_NEAR(freq_energy / static_cast<double>(n), time_energy, time_energy * 1e-4);
}

TEST(Fft, ForwardCopyZeroPads) {
  Fft fft(16);
  cvec x(4, cf{1.0F, 0.0F});
  const cvec spec = fft.forward_copy(x);
  ASSERT_EQ(spec.size(), 16U);
  EXPECT_NEAR(spec[0].real(), 4.0F, 1e-5);
}

// Golden digests of the transform's output bits. A change to the butterfly
// kernels must leave every row unchanged; the default and the
// -DBHSS_SIMD=OFF builds share the table because the vector kernels are
// bit-identical to the scalar reference.

/// FNV-1a-64 over the IEEE-754 bits of both rails of every sample.
std::uint64_t fnv1a(cspan x) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (const cf& s : x) {
    for (const float v : {s.real(), s.imag()}) {
      const auto bits = std::bit_cast<std::uint32_t>(v);
      for (unsigned byte = 0; byte < 4; ++byte) {
        h ^= (bits >> (8U * byte)) & 0xFFU;
        h *= 0x100000001B3ULL;
      }
    }
  }
  return h;
}

struct FftPin {
  std::size_t n;
  std::uint64_t forward;
  std::uint64_t inverse;
};

TEST(Fft, TransformBitsArePinned) {
  constexpr std::array<FftPin, 14> kPins{{
      {2, 0xCB3B4ABBA6AF831BULL, 0xBEC322EBD7A95D82ULL},
      {4, 0xCC856E8A4839DF94ULL, 0xDE790EE1FC078348ULL},
      {8, 0xD41871433382B09FULL, 0xBE0E33A614B0EF46ULL},
      {16, 0xB6411359A6D0F603ULL, 0xE2D4ABC9D4728713ULL},
      {32, 0xE32CC20028C91D17ULL, 0x42F86B3B1504A527ULL},
      {64, 0xFB70548C13D41E16ULL, 0x148D30221932C774ULL},
      {128, 0xC9CD8C4B1C828F16ULL, 0x80B5914ADF1E6CA9ULL},
      {256, 0xA488062C6BEE9837ULL, 0x343900C6B4F15ADFULL},
      {512, 0xEAC594D1D1A394A6ULL, 0x70DD7E9A35392C5EULL},
      {1024, 0x3330D289199E5B30ULL, 0x892922CB41A23798ULL},
      {2048, 0xFB3DF28C440A8508ULL, 0x6C7501FF69F99D8AULL},
      {4096, 0x2994771491F2C2E9ULL, 0x55301C9C4BFD8E5DULL},
      {8192, 0xB10AC3DD70DE287FULL, 0x56E4F77D404891C5ULL},
      {16384, 0xDF94CA7343082AB3ULL, 0x673F64D615272787ULL},
  }};
  for (const FftPin& pin : kPins) {
    cvec input(pin.n, cf{0.0F, 0.0F});
    core::SharedRandom rng(0xFF7B175EEDULL + pin.n);
    rng.add_gaussian(std::span<cf>{input}, 1.0);
    const Fft fft(pin.n);
    cvec fwd = input;
    fft.forward(cspan_mut{fwd});
    cvec inv = input;
    fft.inverse(cspan_mut{inv});
    EXPECT_EQ(fnv1a(fwd), pin.forward) << "forward n=" << pin.n << " digest 0x" << std::hex
                                       << fnv1a(fwd);
    EXPECT_EQ(fnv1a(inv), pin.inverse) << "inverse n=" << pin.n << " digest 0x" << std::hex
                                       << fnv1a(inv);
  }
}

TEST(FftShift, SwapsHalves) {
  const fvec x = {0.0F, 1.0F, 2.0F, 3.0F};
  const fvec shifted = fft_shift(x);
  const fvec expected = {2.0F, 3.0F, 0.0F, 1.0F};
  EXPECT_EQ(shifted, expected);
}

}  // namespace
}  // namespace bhss::dsp
