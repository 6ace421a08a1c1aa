// Bit-exactness suite for the explicitly vectorized DSP kernels
// (src/dsp/simd). Every dispatched kernel must produce the SAME IEEE-754
// bits as its scalar reference — not merely close — because the vector
// layer sits underneath golden decision traces, the shard-merge
// byte-identity contract and the seed-equivalence 1-ulp pins. Each kernel
// is swept across lengths 1..3*lane_width+1 (exercising every tail
// remainder on both AVX2 and NEON) and across unaligned buffer offsets
// (no kernel may assume 32-byte alignment: callers pass arbitrary
// subspans of hop slices).

#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "dsp/simd/simd.hpp"
#include "dsp/types.hpp"
#include "phy/chip_table.hpp"

namespace bhss::dsp {
namespace {

constexpr std::size_t kMaxLen = 25;      // 3 * 8 (AVX2 lanes) + 1
constexpr std::size_t kMaxOffset = 3;    // element offsets off natural alignment

std::mt19937& rng() {
  static std::mt19937 gen(0xB1755EEDU);
  return gen;
}

float rand_float() {
  static std::normal_distribution<float> dist(0.0F, 1.0F);
  return dist(rng());
}

/// A buffer of n values placed at an element offset from a fresh
/// allocation, so the kernel under test sees deliberately misaligned data.
template <typename T>
struct Offset {
  std::vector<T> store;
  T* p;
  Offset(std::size_t n, std::size_t off) : store(n + off), p(store.data() + off) {}
};

void fill(cf* p, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) p[i] = cf{rand_float(), rand_float()};
}
void fill(float* p, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) p[i] = rand_float();
}

/// Bitwise comparison: equal bits, not equal values (catches -0 vs +0 and
/// would catch any FMA/reassociation drift a tolerance check forgives).
void expect_same_bits(const cf* a, const cf* b, std::size_t n, const std::string& what) {
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(std::memcmp(&a[i], &b[i], sizeof(cf)), 0)
        << what << ": bit mismatch at " << i << " (" << a[i].real() << "," << a[i].imag()
        << ") vs (" << b[i].real() << "," << b[i].imag() << ")";
  }
}

TEST(DspSimd, ActiveIsaIsConsistent) {
  const std::string isa = simd::active_isa();
  EXPECT_TRUE(isa == "avx2" || isa == "neon" || isa == "scalar") << isa;
  EXPECT_EQ(simd::vectorized(), isa != "scalar");
}

TEST(DspSimd, FirDecimateRealMatchesScalarBitExact) {
  for (std::size_t stride : {std::size_t{1}, std::size_t{2}, std::size_t{4}, std::size_t{5}}) {
    for (std::size_t n_taps : {std::size_t{1}, std::size_t{4}, std::size_t{8}, std::size_t{9}}) {
      for (std::size_t n_out = 1; n_out <= kMaxLen; ++n_out) {
        for (std::size_t off = 0; off <= kMaxOffset; ++off) {
          Offset<float> taps(n_taps, off);
          Offset<cf> x((n_out - 1) * stride + n_taps, off);
          fill(taps.p, n_taps);
          fill(x.p, (n_out - 1) * stride + n_taps);
          std::vector<cf> got(n_out);
          std::vector<cf> want(n_out);
          simd::fir_decimate_real(taps.p, n_taps, x.p, got.data(), n_out, stride);
          simd::scalar::fir_decimate_real(taps.p, n_taps, x.p, want.data(), n_out, stride);
          expect_same_bits(got.data(), want.data(), n_out,
                           "fir_decimate_real stride=" + std::to_string(stride) +
                               " taps=" + std::to_string(n_taps) + " n=" + std::to_string(n_out) +
                               " off=" + std::to_string(off));
        }
      }
    }
  }
}

TEST(DspSimd, CorrelateLagsMatchesScalarBitExact) {
  for (std::size_t n_ref : {std::size_t{1}, std::size_t{5}, std::size_t{16}}) {
    for (std::size_t n_lags = 1; n_lags <= kMaxLen; ++n_lags) {
      for (std::size_t off = 0; off <= kMaxOffset; ++off) {
        Offset<cf> x(n_lags - 1 + n_ref, off);
        Offset<cf> ref(n_ref, off);
        fill(x.p, n_lags - 1 + n_ref);
        fill(ref.p, n_ref);
        std::vector<cf> got(n_lags);
        std::vector<cf> want(n_lags);
        simd::correlate_lags(x.p, ref.p, n_ref, got.data(), n_lags);
        simd::scalar::correlate_lags(x.p, ref.p, n_ref, want.data(), n_lags);
        expect_same_bits(got.data(), want.data(), n_lags,
                         "correlate_lags ref=" + std::to_string(n_ref) +
                             " lags=" + std::to_string(n_lags) + " off=" + std::to_string(off));
      }
    }
  }
}

TEST(DspSimd, DespreadCorrelate16MatchesScalarBitExact) {
  const float* cols = phy::ChipTable::instance().columns();
  for (std::size_t n_pairs : {std::size_t{1}, std::size_t{7}, std::size_t{16}}) {
    for (std::size_t off = 0; off <= kMaxOffset; ++off) {
      Offset<cf> pairs(n_pairs, off);
      Offset<float> se(n_pairs, off);
      Offset<float> so(n_pairs, off);
      fill(pairs.p, n_pairs);
      fill(se.p, n_pairs);
      fill(so.p, n_pairs);
      std::array<cf, phy::kNumSymbols> got{};
      std::array<cf, phy::kNumSymbols> want{};
      simd::despread_correlate16(pairs.p, n_pairs, se.p, so.p, cols, got.data());
      simd::scalar::despread_correlate16(pairs.p, n_pairs, se.p, so.p, cols, want.data());
      expect_same_bits(got.data(), want.data(), phy::kNumSymbols,
                       "despread_correlate16 pairs=" + std::to_string(n_pairs) +
                           " off=" + std::to_string(off));
    }
  }
}

TEST(DspSimd, FftStageMatchesScalarBitExact) {
  // Every stage of every power-of-two size up to 8192: the smallest sizes
  // leave whole blocks to the scalar tail, half = 1 and 2 take the AVX2
  // across-block paths, and larger halves the within-block loop.
  for (bool inverse : {false, true}) {
    for (std::size_t n = 2; n <= 8192; n *= 2) {
      for (std::size_t half = 1; half < n; half *= 2) {
        for (std::size_t off = 0; off <= kMaxOffset; ++off) {
          Offset<cf> x(n, off);
          Offset<cf> tw(half, off);
          fill(x.p, n);
          fill(tw.p, half);
          std::vector<cf> want(x.p, x.p + n);
          simd::fft_stage(x.p, n, half, tw.p, inverse);
          simd::scalar::fft_stage(want.data(), n, half, tw.p, inverse);
          EXPECT_EQ(std::memcmp(x.p, want.data(), n * sizeof(cf)), 0)
              << "fft_stage n=" << n << " half=" << half << " inv=" << inverse
              << " off=" << off;
        }
      }
    }
  }
}

TEST(DspSimd, FftStageRejectsABadHalf) {
  std::vector<cf> x(12);
  std::vector<cf> tw(3);
  EXPECT_THROW(simd::fft_stage(x.data(), 12, 3, tw.data(), false), std::invalid_argument);
  EXPECT_THROW(simd::fft_stage(x.data(), 12, 4, tw.data(), false), std::invalid_argument);
  EXPECT_THROW(simd::fft_stage(x.data(), 12, 0, tw.data(), false), std::invalid_argument);
}

TEST(DspSimd, ElementwiseKernelsMatchScalarBitExact) {
  for (std::size_t n = 1; n <= kMaxLen; ++n) {
    for (std::size_t off = 0; off <= kMaxOffset; ++off) {
      Offset<cf> a(n, off);
      Offset<cf> b(n, off);
      Offset<float> w(n, off);
      fill(a.p, n);
      fill(b.p, n);
      fill(w.p, n);
      const float s = rand_float();
      const float pa = rand_float();
      const float pb = rand_float();
      const std::string suffix = " n=" + std::to_string(n) + " off=" + std::to_string(off);

      std::vector<cf> a2(a.p, a.p + n);
      simd::cmul_inplace(a.p, b.p, n);
      simd::scalar::cmul_inplace(a2.data(), b.p, n);
      expect_same_bits(a.p, a2.data(), n, "cmul_inplace" + suffix);

      std::vector<cf> a3(a.p, a.p + n);
      simd::scale_inplace(a.p, s, n);
      simd::scalar::scale_inplace(a3.data(), s, n);
      expect_same_bits(a.p, a3.data(), n, "scale_inplace" + suffix);

      std::vector<cf> got(n);
      std::vector<cf> want(n);
      simd::window_apply(b.p, w.p, got.data(), n);
      simd::scalar::window_apply(b.p, w.p, want.data(), n);
      expect_same_bits(got.data(), want.data(), n, "window_apply" + suffix);

      // window_apply documents that out may alias x.
      std::vector<cf> alias(b.p, b.p + n);
      simd::window_apply(alias.data(), w.p, alias.data(), n);
      expect_same_bits(alias.data(), want.data(), n, "window_apply aliased" + suffix);

      simd::scale_pulse(pa, pb, w.p, got.data(), n);
      simd::scalar::scale_pulse(pa, pb, w.p, want.data(), n);
      expect_same_bits(got.data(), want.data(), n, "scale_pulse" + suffix);
    }
  }
}

}  // namespace
}  // namespace bhss::dsp
