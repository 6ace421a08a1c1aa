// Unit tests for the channel simulator: noise statistics, impairments and
// end-to-end power calibration of transmit().

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numbers>
#include <utility>

#include "channel/awgn.hpp"
#include "channel/impairments.hpp"
#include "channel/link_channel.hpp"
#include "dsp/utils.hpp"

namespace bhss::channel {
namespace {

TEST(Awgn, PowerCalibration) {
  AwgnSource noise(1);
  for (double power : {0.01, 1.0, 25.0}) {
    const dsp::cvec x = noise.generate(1 << 16, power);
    EXPECT_NEAR(dsp::mean_power(x), power, power * 0.05) << "power " << power;
  }
}

TEST(Awgn, CircularSymmetry) {
  AwgnSource noise(2);
  const dsp::cvec x = noise.generate(1 << 16, 2.0);
  double i_power = 0.0;
  double q_power = 0.0;
  double cross = 0.0;
  for (const dsp::cf& s : x) {
    i_power += static_cast<double>(s.real()) * s.real();
    q_power += static_cast<double>(s.imag()) * s.imag();
    cross += static_cast<double>(s.real()) * s.imag();
  }
  const auto n = static_cast<double>(x.size());
  EXPECT_NEAR(i_power / n, 1.0, 0.05);
  EXPECT_NEAR(q_power / n, 1.0, 0.05);
  EXPECT_NEAR(cross / n, 0.0, 0.05);
}

TEST(Awgn, Deterministic) {
  AwgnSource a(42);
  AwgnSource b(42);
  const dsp::cvec xa = a.generate(64, 1.0);
  const dsp::cvec xb = b.generate(64, 1.0);
  EXPECT_EQ(xa, xb);
}

TEST(Awgn, AddToSuperimposes) {
  AwgnSource noise(3);
  dsp::cvec x(1 << 14, dsp::cf{1.0F, 0.0F});
  noise.add_to(dsp::cspan_mut{x}, 0.5);
  EXPECT_NEAR(dsp::mean_power(x), 1.5, 0.05);
}

TEST(Awgn, FirstSamplesArePinnedBitForBit) {
  // The Gaussian transform is project code built from + − ×, sqrt and bit
  // operations with FMA contraction off, so these bits are the same on
  // every compiler, standard library and ISA (and with BHSS_SIMD=OFF). A
  // change here changes every simulated result in the tree.
  const std::array<dsp::cf, 8> pinned = {{
      {0x1.644ab6p+0F, -0x1.78c8fp-1F},
      {-0x1.3dfb22p-2F, 0x1.de9d9p-1F},
      {0x1.ffba64p-2F, 0x1.79719ap-2F},
      {0x1.b84a9cp-3F, -0x1.6ec89ep-3F},
      {0x1.aa3466p-8F, -0x1.72a066p-4F},
      {0x1.7f9202p-2F, -0x1.64c6c8p-2F},
      {0x1.42473p-4F, 0x1.2323ep-1F},
      {0x1.db6084p-4F, -0x1.8b5248p-2F},
  }};
  AwgnSource noise(42);
  const dsp::cvec x = noise.generate(8, 1.0);
  ASSERT_EQ(x.size(), pinned.size());
  for (std::size_t i = 0; i < pinned.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint32_t>(x[i].real()),
              std::bit_cast<std::uint32_t>(pinned[i].real()))
        << "sample " << i << " I";
    EXPECT_EQ(std::bit_cast<std::uint32_t>(x[i].imag()),
              std::bit_cast<std::uint32_t>(pinned[i].imag()))
        << "sample " << i << " Q";
  }
}

TEST(Awgn, ChunkingDoesNotChangeTheStream) {
  AwgnSource whole(77);
  AwgnSource split(77);
  const dsp::cvec ref = whole.generate(128, 1.0);
  dsp::cvec parts = split.generate(100, 1.0);
  const dsp::cvec tail = split.generate(28, 1.0);
  parts.insert(parts.end(), tail.begin(), tail.end());
  ASSERT_EQ(parts.size(), ref.size());
  for (std::size_t i = 0; i < ref.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(parts[i]), std::bit_cast<std::uint64_t>(ref[i]))
        << "sample " << i;
  }

  // add_to onto zeros yields what generate returns.
  AwgnSource adder(77);
  dsp::cvec zeros(ref.size(), dsp::cf{0.0F, 0.0F});
  adder.add_to(dsp::cspan_mut{zeros}, 1.0);
  EXPECT_EQ(zeros, ref);
}

// ---- Distribution quality over 2^22 samples (rails scaled to sigma = 1).
// Every bound below is five standard errors (or the chi-square quantile at
// the same one-sided tail, p ~ 3e-7), so an ideal Gaussian source fails
// any one check with negligible probability; each check sees a defect of
// the transform that the others can miss.

constexpr std::size_t kQualityN = std::size_t{1} << 22;
constexpr double kQualityZ = 5.0;

const dsp::cvec& quality_sample() {
  static const dsp::cvec x = AwgnSource(2024).generate(kQualityN, 2.0);
  return x;
}

double rail(const dsp::cf& s, int r) { return r == 0 ? s.real() : s.imag(); }

/// Wilson score interval for k successes in n trials at z.
std::pair<double, double> wilson(double k, double n, double z) {
  const double p = k / n;
  const double denom = 1.0 + z * z / n;
  const double centre = (p + z * z / (2.0 * n)) / denom;
  const double half = z * std::sqrt(p * (1.0 - p) / n + z * z / (4.0 * n * n)) / denom;
  return {centre - half, centre + half};
}

double normal_cdf(double x) { return 0.5 * std::erfc(-x / std::numbers::sqrt2); }

TEST(AwgnQuality, RailMeansAndVariances) {
  // Mean: SE = 1/sqrt(N). Variance of a normal sample: SE = sqrt(2/N).
  const auto n = static_cast<double>(kQualityN);
  for (int r = 0; r < 2; ++r) {
    double sum = 0.0;
    double sum2 = 0.0;
    for (const dsp::cf& s : quality_sample()) {
      sum += rail(s, r);
      sum2 += rail(s, r) * rail(s, r);
    }
    const double mean = sum / n;
    EXPECT_LT(std::abs(mean), kQualityZ / std::sqrt(n)) << "rail " << r;
    EXPECT_LT(std::abs(sum2 / n - mean * mean - 1.0), kQualityZ * std::sqrt(2.0 / n))
        << "rail " << r;
  }
}

TEST(AwgnQuality, Kurtosis) {
  // Kurtosis of a normal sample: 3 with SE = sqrt(24/N).
  const auto n = static_cast<double>(kQualityN);
  for (int r = 0; r < 2; ++r) {
    double m2 = 0.0;
    double m4 = 0.0;
    for (const dsp::cf& s : quality_sample()) {
      const double v2 = rail(s, r) * rail(s, r);
      m2 += v2;
      m4 += v2 * v2;
    }
    m2 /= n;
    m4 /= n;
    EXPECT_LT(std::abs(m4 / (m2 * m2) - 3.0), kQualityZ * std::sqrt(24.0 / n)) << "rail " << r;
  }
}

TEST(AwgnQuality, IqCorrelation) {
  // Independent rails: sample correlation has SE = 1/sqrt(N).
  const auto n = static_cast<double>(kQualityN);
  double ii = 0.0;
  double qq = 0.0;
  double iq = 0.0;
  for (const dsp::cf& s : quality_sample()) {
    ii += static_cast<double>(s.real()) * s.real();
    qq += static_cast<double>(s.imag()) * s.imag();
    iq += static_cast<double>(s.real()) * s.imag();
  }
  EXPECT_LT(std::abs(iq / std::sqrt(ii * qq)), kQualityZ / std::sqrt(n));
}

TEST(AwgnQuality, TailProbabilitiesMatchErfc) {
  // P(|x| > t) = erfc(t/sqrt 2) must lie in the Wilson interval of the
  // observed exceedances over both rails (2N trials). 4 sigma expects ~531
  // exceedances, well inside the 5.77 sigma radius cap.
  const double trials = 2.0 * static_cast<double>(kQualityN);
  for (double t : {3.0, 4.0}) {
    std::size_t over = 0;
    for (const dsp::cf& s : quality_sample()) {
      over += std::abs(s.real()) > t ? 1U : 0U;
      over += std::abs(s.imag()) > t ? 1U : 0U;
    }
    const double truth = std::erfc(t / std::numbers::sqrt2);
    const auto [lo, hi] = wilson(static_cast<double>(over), trials, kQualityZ);
    EXPECT_GE(truth, lo) << t << " sigma, " << over << " exceedances";
    EXPECT_LE(truth, hi) << t << " sigma, " << over << " exceedances";
  }
}

TEST(AwgnQuality, ChiSquareAgainstNormalCdf) {
  // 64 bins per rail: 62 of width 8/62 over [-4, 4] plus the two tails.
  // The statistic has 63 degrees of freedom; the bound is its upper
  // quantile at z = 5 by the Wilson–Hilferty approximation (~136).
  constexpr int kBins = 64;
  constexpr double kEdge = 4.0;
  constexpr double kWidth = 2.0 * kEdge / (kBins - 2);
  const double dof = kBins - 1;
  const double h = 2.0 / (9.0 * dof);
  const double bound = dof * std::pow(1.0 - h + kQualityZ * std::sqrt(h), 3.0);
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const auto n = static_cast<double>(kQualityN);
  for (int r = 0; r < 2; ++r) {
    std::array<double, kBins> observed{};
    for (const dsp::cf& s : quality_sample()) {
      const double v = rail(s, r);
      int bin = 0;
      if (v >= kEdge) {
        bin = kBins - 1;
      } else if (v >= -kEdge) {
        bin = 1 + std::min(kBins - 3, static_cast<int>((v + kEdge) / kWidth));
      }
      observed[static_cast<std::size_t>(bin)] += 1.0;
    }
    double chi2 = 0.0;
    for (int b = 0; b < kBins; ++b) {
      const double lo = b == 0 ? -kInf : -kEdge + (b - 1) * kWidth;
      const double hi = b == kBins - 1 ? kInf : -kEdge + b * kWidth;
      const double expected = n * (normal_cdf(hi) - normal_cdf(lo));
      const double d = observed[static_cast<std::size_t>(b)] - expected;
      chi2 += d * d / expected;
    }
    EXPECT_LT(chi2, bound) << "rail " << r;
  }
}

TEST(Impairments, PhaseRotation) {
  dsp::cvec x = {dsp::cf{1.0F, 0.0F}};
  apply_phase(dsp::cspan_mut{x}, std::numbers::pi_v<float> / 2.0F);
  EXPECT_NEAR(x[0].real(), 0.0F, 1e-6F);
  EXPECT_NEAR(x[0].imag(), 1.0F, 1e-6F);
}

TEST(Impairments, CfoAccumulatesLinearly) {
  const float cfo = 1e-3F;
  dsp::cvec x(10000, dsp::cf{1.0F, 0.0F});
  apply_cfo(dsp::cspan_mut{x}, cfo);
  for (std::size_t n : {0UL, 100UL, 5000UL, 9999UL}) {
    EXPECT_NEAR(std::arg(x[n]),
                std::remainder(cfo * static_cast<float>(n), 2.0F * std::numbers::pi_v<float>),
                2e-3F)
        << "n=" << n;
    EXPECT_NEAR(std::abs(x[n]), 1.0F, 1e-3F) << "n=" << n;  // renormalisation works
  }
}

TEST(Impairments, IntegerDelay) {
  const dsp::cvec x = {dsp::cf{1.0F, 1.0F}, dsp::cf{2.0F, 0.0F}};
  const dsp::cvec y = apply_delay(x, 3, 8);
  ASSERT_EQ(y.size(), 8U);
  EXPECT_EQ(y[0], (dsp::cf{0.0F, 0.0F}));
  EXPECT_EQ(y[3], x[0]);
  EXPECT_EQ(y[4], x[1]);
  EXPECT_EQ(y[7], (dsp::cf{0.0F, 0.0F}));
}

TEST(Impairments, DelayClipsAtTotalLen) {
  const dsp::cvec x(10, dsp::cf{1.0F, 0.0F});
  const dsp::cvec y = apply_delay(x, 5, 8);
  ASSERT_EQ(y.size(), 8U);
  EXPECT_EQ(y[7], (dsp::cf{1.0F, 0.0F}));
}

TEST(Impairments, FractionalDelayInterpolates) {
  const dsp::cvec x = {dsp::cf{1.0F, 0.0F}, dsp::cf{0.0F, 0.0F}};
  const dsp::cvec y = apply_fractional_delay(x, 0.25);
  ASSERT_EQ(y.size(), 3U);
  EXPECT_NEAR(y[0].real(), 0.75F, 1e-6F);
  EXPECT_NEAR(y[1].real(), 0.25F, 1e-6F);
  EXPECT_THROW((void)apply_fractional_delay(x, 1.0), std::invalid_argument);
}

TEST(Impairments, FractionalDelayEdgeCases) {
  // frac == 0 is the identity up to the interpolator's one-sample tail:
  // the fault injector's clock jump calls this with an arbitrary draw in
  // [0, 1), so the degenerate endpoint must be exact, not approximate.
  const dsp::cvec x = {dsp::cf{1.0F, 2.0F}, dsp::cf{-3.0F, 0.5F}, dsp::cf{0.0F, -1.0F}};
  const dsp::cvec y = apply_fractional_delay(x, 0.0);
  ASSERT_EQ(y.size(), x.size() + 1);
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_EQ(y[i], x[i]) << "i=" << i;
  }
  EXPECT_EQ(y.back(), (dsp::cf{0.0F, 0.0F}));

  // An empty capture stays well-defined (one zero sample of tail), so
  // callers need no special case before the interpolator.
  const dsp::cvec none = apply_fractional_delay(dsp::cvec{}, 0.7);
  ASSERT_EQ(none.size(), 1U);
  EXPECT_EQ(none[0], (dsp::cf{0.0F, 0.0F}));

  // Negative fractions are rejected like frac >= 1.
  EXPECT_THROW((void)apply_fractional_delay(x, -0.1), std::invalid_argument);
}

TEST(LinkChannel, SnrCalibration) {
  // A constant-envelope "signal" through the channel: measured SNR at the
  // output must match the configuration.
  dsp::cvec tx(1 << 15);
  for (std::size_t i = 0; i < tx.size(); ++i) {
    const float ang = 0.3F * static_cast<float>(i);
    tx[i] = dsp::cf{std::cos(ang), std::sin(ang)};
  }
  AwgnSource noise(5);
  LinkConfig cfg;
  cfg.snr_db = 13.0;
  const dsp::cvec rx = channel::transmit(tx, {}, cfg, noise);
  ASSERT_EQ(rx.size(), tx.size());
  // Total power = signal + unit noise.
  EXPECT_NEAR(dsp::mean_power(rx), dsp::db_to_linear(13.0) + 1.0,
              0.05 * (dsp::db_to_linear(13.0) + 1.0));
}

TEST(LinkChannel, JammerPowerCalibration) {
  dsp::cvec tx(1 << 14, dsp::cf{1.0F, 0.0F});
  AwgnSource noise(6);
  AwgnSource jam_src(7);
  const dsp::cvec jam = jam_src.generate(1 << 14, 3.0);  // arbitrary input power
  LinkConfig cfg;
  cfg.snr_db = -300.0;  // signal off
  cfg.jnr_db = 17.0;
  const dsp::cvec rx = channel::transmit(tx, jam, cfg, noise);
  EXPECT_NEAR(dsp::mean_power(rx), dsp::db_to_linear(17.0) + 1.0,
              0.05 * dsp::db_to_linear(17.0));
}

TEST(LinkChannel, DelayAndTailPad) {
  dsp::cvec tx(100, dsp::cf{1.0F, 0.0F});
  AwgnSource noise(8);
  LinkConfig cfg;
  cfg.snr_db = 40.0;
  cfg.tx_delay = 20;
  cfg.tail_pad = 30;
  const dsp::cvec rx = channel::transmit(tx, {}, cfg, noise);
  ASSERT_EQ(rx.size(), 150U);
  // Signal region is much louder than the leading noise-only region.
  EXPECT_GT(dsp::mean_power(dsp::cspan{rx}.subspan(20, 100)),
            100.0 * dsp::mean_power(dsp::cspan{rx}.first(20)));
}

TEST(LinkChannel, NoJammerSpanIgnored) {
  dsp::cvec tx(64, dsp::cf{1.0F, 0.0F});
  AwgnSource noise(9);
  LinkConfig cfg;
  cfg.snr_db = 10.0;  // jnr_db unset
  AwgnSource jam_src(10);
  const dsp::cvec jam = jam_src.generate(64, 1.0);
  const dsp::cvec with_spec = channel::transmit(tx, jam, cfg, noise);
  // jam provided but jnr_db not set: jammer must not be mixed in.
  AwgnSource noise2(9);
  const dsp::cvec without = channel::transmit(tx, {}, cfg, noise2);
  EXPECT_EQ(with_spec, without);
}

}  // namespace
}  // namespace bhss::channel
