// Unit tests for the baselines: fixed-bandwidth DSSS configs and the
// analytical DSSS/FHSS curves.

#include <gtest/gtest.h>

#include <cmath>

#include "baseline/analytical.hpp"
#include "baseline/dsss_baseline.hpp"
#include "dsp/utils.hpp"

namespace bhss::baseline {
namespace {

TEST(DsssBaseline, ConfigDisablesHopping) {
  const core::SystemConfig cfg = dsss_config(core::BandwidthSet::paper(), 2);
  EXPECT_FALSE(cfg.hopping);
  EXPECT_EQ(cfg.fixed_bw_index, 2U);
  EXPECT_EQ(cfg.filter_policy, core::FilterPolicy::adaptive);
  const core::SystemConfig raw = dsss_config_unfiltered(core::BandwidthSet::paper(), 2);
  EXPECT_EQ(raw.filter_policy, core::FilterPolicy::off);
}

TEST(Analytical, FhssEqualsDsss) {
  // §5.3: same spectral occupancy -> same jamming resistance.
  for (double ebno_db : {0.0, 5.0, 10.0, 15.0}) {
    const double ebno = dsp::db_to_linear(ebno_db);
    EXPECT_DOUBLE_EQ(dsss_ber(100.0, 100.0, ebno), fhss_ber(100.0, 100.0, ebno));
  }
}

TEST(Analytical, NoJammerMatchesMatchedFilterBound) {
  const double ebno = dsp::db_to_linear(6.0);
  EXPECT_NEAR(dsss_ber(100.0, 0.0, ebno), 0.5 * std::erfc(std::sqrt(ebno)), 1e-12);
}

TEST(Analytical, JammingDegradesBerAndThroughput) {
  const double ebno = dsp::db_to_linear(10.0);
  EXPECT_GT(dsss_ber(100.0, 100.0, ebno), dsss_ber(100.0, 0.0, ebno));
  EXPECT_LT(dsss_throughput(100.0, 100.0, ebno, 4000),
            dsss_throughput(100.0, 0.0, ebno, 4000));
}

TEST(Analytical, MoreProcessingGainHelpsUnderJamming) {
  const double ebno = dsp::db_to_linear(10.0);
  EXPECT_LT(dsss_ber(1000.0, 100.0, ebno), dsss_ber(100.0, 100.0, ebno));
}

}  // namespace
}  // namespace bhss::baseline
