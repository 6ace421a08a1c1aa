// Unit tests for FIR filtering and design: the overlap-save convolver's
// equivalence to direct-form convolution, windowed-sinc
// low-pass specs, and the eq. (3) excision filter's notch behaviour.

#include <gtest/gtest.h>

#include <cmath>
#include <numbers>
#include <random>

#include "dsp/fir.hpp"
#include "dsp/utils.hpp"

namespace bhss::dsp {
namespace {

cvec random_signal(std::size_t n, unsigned seed) {
  std::mt19937 rng(seed);
  std::normal_distribution<float> dist(0.0F, 1.0F);
  cvec x(n);
  for (cf& v : x) v = cf{dist(rng), dist(rng)};
  return x;
}

/// Reference direct-form convolution: y[n] = sum_k taps[k] * x[n-k],
/// causal with zero initial state.
cvec direct_convolution(const cvec& taps, const cvec& x) {
  cvec y(x.size());
  for (std::size_t n = 0; n < x.size(); ++n) {
    for (std::size_t k = 0; k < taps.size() && k <= n; ++k) y[n] += taps[k] * x[n - k];
  }
  return y;
}

struct ConvolverCase {
  std::size_t taps;
  std::size_t signal;
};

class ConvolverVsDirect : public ::testing::TestWithParam<ConvolverCase> {};

TEST_P(ConvolverVsDirect, IdenticalOutput) {
  const auto [n_taps, n_sig] = GetParam();
  cvec taps = random_signal(n_taps, 11);
  const cvec x = random_signal(n_sig, 12);

  const cvec expected = direct_convolution(taps, x);

  FftConvolver fast{cspan{taps}};
  const cvec got = fast.filter(x);

  ASSERT_EQ(got.size(), expected.size());
  double scale = 0.0;
  for (const cf& t : taps) scale += std::abs(t);
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_NEAR(got[i].real(), expected[i].real(), 1e-3F * scale) << "i=" << i;
    EXPECT_NEAR(got[i].imag(), expected[i].imag(), 1e-3F * scale) << "i=" << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, ConvolverVsDirect,
                         ::testing::Values(ConvolverCase{1, 100}, ConvolverCase{7, 64},
                                           ConvolverCase{64, 1000}, ConvolverCase{257, 300},
                                           ConvolverCase{513, 5000},
                                           ConvolverCase{1025, 1024}));

TEST(DesignLowpass, UnityDcGain) {
  for (double cutoff : {0.05, 0.1, 0.25, 0.4}) {
    const fvec taps = design_lowpass(101, cutoff);
    double dc = 0.0;
    for (float t : taps) dc += t;
    EXPECT_NEAR(dc, 1.0, 1e-6) << "cutoff=" << cutoff;
  }
}

TEST(DesignLowpass, PassbandFlatStopbandDeep) {
  const double cutoff = 0.125;
  const fvec taps = design_lowpass(201, cutoff, Window::blackman);
  const fvec resp = power_response(cspan{to_complex(taps)}, 2048);
  // Passband (well below cutoff): within 1 dB of unity.
  for (std::size_t k = 0; k < static_cast<std::size_t>(0.8 * cutoff * 2048); ++k) {
    EXPECT_GT(linear_to_db(resp[k]), -1.0) << "bin " << k;
  }
  // Stopband (well above cutoff): below -55 dB.
  for (std::size_t k = static_cast<std::size_t>(1.4 * cutoff * 2048); k < 1024; ++k) {
    EXPECT_LT(linear_to_db(resp[k]), -55.0) << "bin " << k;
  }
}

TEST(DesignLowpass, RejectsBadArgs) {
  EXPECT_THROW(design_lowpass(0, 0.1), std::invalid_argument);
  EXPECT_THROW(design_lowpass(11, 0.0), std::invalid_argument);
  EXPECT_THROW(design_lowpass(11, 0.5), std::invalid_argument);
}

TEST(LowpassNumTaps, MonotonicInSpecs) {
  // Narrower transitions and higher attenuation need more taps.
  EXPECT_GT(lowpass_num_taps(0.01, 60.0), lowpass_num_taps(0.05, 60.0));
  EXPECT_GT(lowpass_num_taps(0.01, 80.0), lowpass_num_taps(0.01, 40.0));
  // Always odd, always clamped.
  EXPECT_EQ(lowpass_num_taps(0.001, 120.0, 301) % 2, 1U);
  EXPECT_LE(lowpass_num_taps(0.0001, 120.0, 301), 301U);
  EXPECT_GE(lowpass_num_taps(0.4, 10.0), 3U);
}

TEST(DesignExcision, NotchesTheJammerBand) {
  // Synthetic PSD: flat floor with a strong block around bin 10..20 of 256
  // (a narrow-band jammer 25 dB above the floor).
  fvec psd(256, 1.0F);
  for (std::size_t k = 10; k <= 20; ++k) psd[k] = 316.0F;
  for (std::size_t k = 236; k <= 246; ++k) psd[k] = 316.0F;  // mirrored side

  const cvec taps = design_excision_whitening(psd);
  ASSERT_EQ(taps.size(), 256U);
  const fvec resp = power_response(taps, 256);

  // Attenuation in the jammer band ~ 1/316 relative to the quiet band.
  double quiet = 0.0;
  std::size_t n_quiet = 0;
  for (std::size_t k = 40; k < 100; ++k) {
    quiet += resp[k];
    ++n_quiet;
  }
  quiet /= static_cast<double>(n_quiet);
  for (std::size_t k = 12; k <= 18; ++k) {
    EXPECT_LT(resp[k] / quiet, 0.02) << "bin " << k;  // > 17 dB notch
  }
}

TEST(DesignExcision, PassbandRestriction) {
  fvec psd(128, 1.0F);
  const cvec taps = design_excision_whitening(psd, 1e-6, 0.5);
  const fvec resp = power_response(taps, 128);
  // Outside +-0.25 cycles/sample the response must be heavily suppressed.
  for (std::size_t k = 40; k <= 88; ++k) {
    if (k == 64) continue;  // wrap midpoint
    EXPECT_LT(resp[k], 0.05F) << "bin " << k;
  }
  // Inside the passband it should be near unity.
  EXPECT_NEAR(resp[5], 1.0F, 0.3F);
}

TEST(DesignExcision, GroupDelayIsHalfLength) {
  // Feed an impulse through the filter designed from a flat PSD: the
  // response must peak at delay K/2.
  fvec psd(64, 1.0F);
  const cvec taps = design_excision_whitening(psd);
  std::size_t peak = 0;
  float best = 0.0F;
  for (std::size_t i = 0; i < taps.size(); ++i) {
    if (std::abs(taps[i]) > best) {
      best = std::abs(taps[i]);
      peak = i;
    }
  }
  EXPECT_EQ(peak, 32U);
}

TEST(DesignExcision, RejectsBadArgs) {
  EXPECT_THROW(design_excision_whitening(fvec(100, 1.0F)), std::invalid_argument);
  EXPECT_THROW(design_excision_whitening(fvec(64, 0.0F)), std::invalid_argument);
  EXPECT_THROW(design_excision_whitening(fvec(64, 1.0F), 1e-6, 0.0), std::invalid_argument);
}

TEST(FrequencyResponse, MatchesAnalyticForTwoTaps) {
  // h = [1, 1]: |H(f)|^2 = 4 cos^2(pi f).
  const cvec taps = {cf{1.0F, 0.0F}, cf{1.0F, 0.0F}};
  const fvec resp = power_response(taps, 64);
  for (std::size_t k = 0; k < 64; ++k) {
    const double f = static_cast<double>(k) / 64.0;
    const double expected = 4.0 * std::pow(std::cos(std::numbers::pi * f), 2);
    EXPECT_NEAR(resp[k], expected, 1e-3) << "bin " << k;
  }
}

}  // namespace
}  // namespace bhss::dsp
