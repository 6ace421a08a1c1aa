// Unit tests for the jammer models: band occupancy, power calibration,
// hopping behaviour and the reactive jammer's delayed bandwidth matching.

#include <gtest/gtest.h>

#include <complex>
#include <map>
#include <vector>

#include "dsp/psd.hpp"
#include "dsp/utils.hpp"
#include "jammer/hopping_jammer.hpp"
#include "jammer/noise_jammer.hpp"
#include "jammer/reactive_jammer.hpp"

namespace bhss::jammer {
namespace {

class NoiseJammerSweep : public ::testing::TestWithParam<double> {};

TEST_P(NoiseJammerSweep, UnitPowerAndCorrectBandwidth) {
  const double bw = GetParam();
  NoiseJammer jam(bw, 1);
  const dsp::cvec x = jam.generate(1 << 16);
  EXPECT_NEAR(dsp::mean_power(x), 1.0, 0.02);

  const dsp::fvec psd = dsp::welch_psd(x, 512);
  const double occupied = dsp::occupied_bandwidth(psd, 0.99);
  EXPECT_NEAR(occupied, bw, bw * 0.25 + 0.02) << "bw " << bw;
}

INSTANTIATE_TEST_SUITE_P(Bandwidths, NoiseJammerSweep,
                         ::testing::Values(1.0 / 128, 1.0 / 32, 1.0 / 8, 0.25, 0.5, 1.0));

TEST(NoiseJammer, OutOfBandSuppressed) {
  NoiseJammer jam(0.125, 2);
  const dsp::cvec x = jam.generate(1 << 16);
  const dsp::fvec psd = dsp::welch_psd(x, 256);
  // Compare in-band level (around DC) to far out-of-band level.
  double in = 0.0;
  double out = 0.0;
  for (std::size_t k = 0; k < 8; ++k) in += psd[k] + psd[255 - k];
  for (std::size_t k = 64; k < 96; ++k) out += psd[k] + psd[255 - k];
  EXPECT_GT(in / out, 1000.0);  // > 30 dB shoulder
}

TEST(NoiseJammer, FullBandIsWhite) {
  NoiseJammer jam(1.0, 3);
  const dsp::cvec x = jam.generate(1 << 15);
  const dsp::fvec psd = dsp::welch_psd(x, 64);
  const double mean_bin = dsp::psd_total_power(psd) / 64.0;
  for (float p : psd) EXPECT_NEAR(p / mean_bin, 1.0, 0.4);
}

TEST(NoiseJammer, ChunkingOnlyRescales) {
  // One continuous stream: splitting a call into pieces changes only each
  // piece's unit-power scale. 2048 is the block of the default 2049-tap
  // shaper, so the pieces start and end on and around block edges.
  constexpr std::size_t block = 2048;
  const std::vector<std::size_t> pieces = {1, 7, block - 1, block, block + 1, 3 * block + 5};
  std::size_t total = 0;
  for (const std::size_t len : pieces) total += len;
  NoiseJammer whole_jam(0.25, 11);
  const dsp::cvec whole = whole_jam.generate(total);
  NoiseJammer split_jam(0.25, 11);
  std::size_t pos = 0;
  for (const std::size_t len : pieces) {
    const dsp::cvec piece = split_jam.generate(len);
    const dsp::cspan ref = dsp::cspan{whole}.subspan(pos, len);
    // Least-squares real scale from the matching slice onto the piece.
    double cross = 0.0;
    double ref_energy = 0.0;
    for (std::size_t i = 0; i < len; ++i) {
      cross += std::real(std::conj(std::complex<double>{ref[i]}) * std::complex<double>{piece[i]});
      ref_energy += std::norm(std::complex<double>{ref[i]});
    }
    const double scale = cross / ref_energy;
    double residual = 0.0;
    double energy = 0.0;
    for (std::size_t i = 0; i < len; ++i) {
      residual += std::norm(std::complex<double>{piece[i]} - scale * std::complex<double>{ref[i]});
      energy += std::norm(std::complex<double>{piece[i]});
    }
    EXPECT_GT(scale, 0.0) << "piece of " << len;
    EXPECT_LT(std::sqrt(residual / energy), 1e-5) << "piece of " << len;
    pos += len;
  }
}

TEST(NoiseJammer, FirstBurstHasNoTransientGap) {
  // With an unprimed (zero) filter history the first ~1000 outputs would
  // ramp up from silence through the 2049-tap shaper.
  NoiseJammer jam(0.25, 12);
  const dsp::cvec x = jam.generate(8192);
  EXPECT_NEAR(dsp::mean_power(dsp::cspan{x}.first(256)), 1.0, 0.5);
}

TEST(NoiseJammer, RejectsBadBandwidth) {
  EXPECT_THROW(NoiseJammer(0.0, 1), std::invalid_argument);
  EXPECT_THROW(NoiseJammer(1.5, 1), std::invalid_argument);
}

TEST(HoppingJammer, DistributionFollowsProbabilities) {
  const std::vector<double> bws = {0.5, 0.25, 0.125};
  const std::vector<double> probs = {0.6, 0.3, 0.1};
  HoppingJammer jam(bws, probs, 256, 4);
  (void)jam.generate(256 * 4000);
  std::map<double, std::size_t> counts;
  for (double b : jam.last_hop_bandwidths()) ++counts[b];
  const auto total = static_cast<double>(jam.last_hop_bandwidths().size());
  EXPECT_NEAR(counts[0.5] / total, 0.6, 0.05);
  EXPECT_NEAR(counts[0.25] / total, 0.3, 0.05);
  EXPECT_NEAR(counts[0.125] / total, 0.1, 0.03);
}

TEST(HoppingJammer, UnitPower) {
  HoppingJammer jam({0.5, 0.03125}, {0.5, 0.5}, 1024, 5);
  const dsp::cvec x = jam.generate(1 << 16);
  EXPECT_NEAR(dsp::mean_power(x), 1.0, 0.05);
}

TEST(HoppingJammer, HopCountMatchesDwell) {
  HoppingJammer jam({0.5, 0.25}, {0.5, 0.5}, 1000, 6);
  (void)jam.generate(10000);
  EXPECT_EQ(jam.last_hop_bandwidths().size(), 10U);
}

TEST(HoppingJammer, RejectsBadConfig) {
  EXPECT_THROW(HoppingJammer({}, {}, 100, 1), std::invalid_argument);
  EXPECT_THROW(HoppingJammer({0.5}, {0.5, 0.5}, 100, 1), std::invalid_argument);
  EXPECT_THROW(HoppingJammer({0.5}, {1.0}, 0, 1), std::invalid_argument);
}

TEST(ReactiveJammer, MatchesObservedBandwidthAfterDelay) {
  // TX hops to a narrow bandwidth at sample 4096; a reactive jammer with
  // tau = 1024 must stay wide until 4096+1024 and be narrow afterwards.
  ReactiveJammer jam({0.5, 1.0 / 64}, 1024, 7);
  const std::vector<ObservedHop> hops = {{0, 0.5}, {4096, 1.0 / 64}};
  const dsp::cvec x = jam.generate(hops, 16384);
  ASSERT_EQ(x.size(), 16384U);

  auto occupied = [&](std::size_t begin, std::size_t len) {
    const dsp::fvec psd = dsp::welch_psd(dsp::cspan{x}.subspan(begin, len), 256);
    return dsp::occupied_bandwidth(psd, 0.99);
  };
  EXPECT_GT(occupied(0, 4096), 0.3);              // wide before the hop
  EXPECT_GT(occupied(4200, 800), 0.3);            // still wide during tau
  EXPECT_LT(occupied(6144, 8192), 0.1);           // narrow after reacting
}

TEST(ReactiveJammer, SnapsToClosestAvailableBandwidth) {
  ReactiveJammer jam({0.5, 0.125, 1.0 / 64}, 0, 8);
  const std::vector<ObservedHop> hops = {{0, 0.1}};  // closest is 0.125
  const dsp::cvec x = jam.generate(hops, 8192);
  const dsp::fvec psd = dsp::welch_psd(x, 256);
  EXPECT_NEAR(dsp::occupied_bandwidth(psd, 0.99), 0.125, 0.06);
}

TEST(ReactiveJammer, UnitPowerAcrossSwitches) {
  ReactiveJammer jam({0.5, 1.0 / 32}, 512, 9);
  std::vector<ObservedHop> hops;
  for (std::size_t h = 0; h < 8; ++h) hops.push_back({h * 2048, (h % 2) ? 0.5 : 1.0 / 32});
  const dsp::cvec x = jam.generate(hops, 8 * 2048);
  EXPECT_NEAR(dsp::mean_power(x), 1.0, 0.05);
}

TEST(ReactiveJammer, SubBlockSegmentsAreFiniteAndUnitPower) {
  // 300-sample hops, 100 samples of estimation and no reaction delay: one
  // segment per hop, each much shorter than a shaper's 2048-sample block,
  // so every source is read across many calls from mid-block.
  const std::vector<double> bws = {0.5, 0.125, 1.0 / 32};
  constexpr std::size_t dwell = 300;
  constexpr std::size_t estimation = 100;
  constexpr std::size_t n_hops = 40;
  constexpr std::size_t n = n_hops * dwell;
  ReactiveJammer jam(bws, 0, 13, estimation);
  std::vector<ObservedHop> hops;
  std::vector<std::size_t> edges = {0};
  for (std::size_t h = 0; h < n_hops; ++h) {
    hops.push_back({h * dwell, bws[h % bws.size()]});
    edges.push_back(h * dwell + estimation);
  }
  edges.push_back(n);
  for (int call = 0; call < 2; ++call) {
    const dsp::cvec x = jam.generate(hops, n);
    ASSERT_EQ(x.size(), n);
    for (std::size_t s = 0; s + 1 < edges.size(); ++s) {
      const dsp::cspan seg = dsp::cspan{x}.subspan(edges[s], edges[s + 1] - edges[s]);
      EXPECT_TRUE(dsp::all_finite(seg)) << "call " << call << " segment " << s;
      EXPECT_NEAR(dsp::mean_power(seg), 1.0, 1e-4) << "call " << call << " segment " << s;
    }
  }
}

TEST(ReactiveJammer, RejectsEmptyBandwidths) {
  EXPECT_THROW(ReactiveJammer({}, 10, 1), std::invalid_argument);
}

}  // namespace
}  // namespace bhss::jammer
