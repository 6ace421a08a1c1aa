// Unit tests for dsp/utils: dB conversions, sinc, power measurement.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "dsp/utils.hpp"

namespace bhss::dsp {
namespace {

TEST(DbConversion, KnownValues) {
  EXPECT_DOUBLE_EQ(db_to_linear(0.0), 1.0);
  EXPECT_NEAR(db_to_linear(10.0), 10.0, 1e-12);
  EXPECT_NEAR(db_to_linear(3.0), 1.9952623149688795, 1e-12);
  EXPECT_NEAR(db_to_linear(-20.0), 0.01, 1e-12);
  EXPECT_DOUBLE_EQ(linear_to_db(1.0), 0.0);
  EXPECT_NEAR(linear_to_db(100.0), 20.0, 1e-12);
}

TEST(DbConversion, RoundTrip) {
  for (double db = -60.0; db <= 60.0; db += 7.3) {
    EXPECT_NEAR(linear_to_db(db_to_linear(db)), db, 1e-9) << "db=" << db;
  }
}

TEST(DbConversion, ZeroAndNegativeClampToFloor) {
  EXPECT_DOUBLE_EQ(linear_to_db(0.0), -300.0);
  EXPECT_DOUBLE_EQ(linear_to_db(-1.0), -300.0);
}

TEST(Sinc, CentreAndZeros) {
  EXPECT_DOUBLE_EQ(sinc(0.0), 1.0);
  for (int k = 1; k <= 10; ++k) {
    EXPECT_NEAR(sinc(static_cast<double>(k)), 0.0, 1e-12) << "k=" << k;
    EXPECT_NEAR(sinc(static_cast<double>(-k)), 0.0, 1e-12) << "k=" << -k;
  }
}

TEST(Sinc, SymmetricAndBounded) {
  for (double x = 0.1; x < 5.0; x += 0.37) {
    EXPECT_NEAR(sinc(x), sinc(-x), 1e-12);
    EXPECT_LE(std::abs(sinc(x)), 1.0);
  }
}

TEST(MeanPower, EmptyIsZero) {
  EXPECT_DOUBLE_EQ(mean_power(cspan{}), 0.0);
}

TEST(MeanPower, UnitCircleSamples) {
  cvec x(64);
  for (std::size_t i = 0; i < x.size(); ++i) {
    const float ang = 0.1F * static_cast<float>(i);
    x[i] = cf{std::cos(ang), std::sin(ang)};
  }
  EXPECT_NEAR(mean_power(x), 1.0, 1e-6);
  EXPECT_NEAR(energy(x), 64.0, 1e-4);
}

TEST(ScaleToPower, ReachesTarget) {
  cvec x = {cf{1.0F, 0.0F}, cf{0.0F, 2.0F}, cf{-3.0F, 1.0F}};
  scale_to_power(cspan_mut{x}, 5.0);
  EXPECT_NEAR(mean_power(x), 5.0, 1e-5);
}

TEST(ScaleToPower, SilentBufferUntouched) {
  cvec x(8, cf{0.0F, 0.0F});
  scale_to_power(cspan_mut{x}, 1.0);
  for (const cf& s : x) EXPECT_EQ(s, (cf{0.0F, 0.0F}));
}

class ScaleToPowerSweep : public ::testing::TestWithParam<double> {};

TEST_P(ScaleToPowerSweep, AnyTargetReached) {
  cvec x(32);
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = cf{static_cast<float>(i % 5) - 2.0F, static_cast<float>(i % 3) - 1.0F};
  }
  scale_to_power(cspan_mut{x}, GetParam());
  EXPECT_NEAR(mean_power(x), GetParam(), GetParam() * 1e-5 + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Targets, ScaleToPowerSweep,
                         ::testing::Values(1e-4, 0.01, 0.5, 1.0, 3.7, 100.0, 1e4));

TEST(AllFinite, FlagsEveryNonFiniteValueAtEveryPosition) {
  using lim = std::numeric_limits<float>;
  // Non-finite values must be found; subnormals, -0 and the extremes of
  // the finite range must not trip the exponent-field test.
  const float specials[] = {lim::quiet_NaN(),  -lim::quiet_NaN(), lim::signaling_NaN(),
                            lim::infinity(),   -lim::infinity(),  lim::denorm_min(),
                            -lim::denorm_min(), -0.0F,            lim::max(),
                            -lim::max(),        lim::min()};
  // Lengths below, at and past 4/8/16-lane vector widths, with tails.
  for (const std::size_t n : {1U, 2U, 3U, 4U, 5U, 7U, 8U, 9U, 15U, 16U, 17U, 31U, 33U, 64U, 67U}) {
    for (std::size_t pos = 0; pos < n; ++pos) {
      for (const float v : specials) {
        const bool want = std::isfinite(v);
        fvec f(n, 0.5F);
        f[pos] = v;
        EXPECT_EQ(all_finite(fspan{f}), want) << "fspan n=" << n << " pos=" << pos << " v=" << v;
        for (const bool imag : {false, true}) {
          cvec c(n, cf{0.5F, -0.5F});
          c[pos] = imag ? cf{0.5F, v} : cf{v, -0.5F};
          EXPECT_EQ(all_finite(cspan{c}), want)
              << "cspan n=" << n << " pos=" << pos << " imag=" << imag << " v=" << v;
        }
      }
    }
  }
  EXPECT_TRUE(all_finite(fspan{}));
  EXPECT_TRUE(all_finite(cspan{}));
}

}  // namespace
}  // namespace bhss::dsp
