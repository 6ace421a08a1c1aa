// Unit tests for the non-stationary adversary zoo: the duty-cycled
// burst jammer (power concentration under a fixed average budget), the
// stepped band-sweep jammer (moving partial-band occupancy), the
// distribution-estimating jammer (histogram learning + forgetting), and
// the reactive jammer's parameterized estimation latency — including the
// dwell-shorter-than-latency degenerate case, which must resolve
// deterministically to "hop never seen". The last two tests pin the bits
// of every jammer class and of run_link under every JammerSpec kind.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <functional>
#include <vector>

#include "core/contracts.hpp"
#include "core/link_simulator.hpp"
#include "dsp/psd.hpp"
#include "dsp/utils.hpp"
#include "jammer/band_sweep_jammer.hpp"
#include "jammer/duty_cycle_jammer.hpp"
#include "jammer/estimating_jammer.hpp"
#include "jammer/hopping_jammer.hpp"
#include "jammer/noise_jammer.hpp"
#include "jammer/reactive_jammer.hpp"
#include "jammer/tone_jammer.hpp"

namespace bhss::jammer {
namespace {

/// Centre frequency (cycles/sample) of the strongest PSD bin.
double peak_frequency(dsp::cspan x, std::size_t nfft = 256) {
  const dsp::fvec psd = dsp::welch_psd(x, nfft);
  std::size_t peak = 0;
  for (std::size_t k = 1; k < psd.size(); ++k) {
    if (psd[k] > psd[peak]) peak = k;
  }
  const double f = static_cast<double>(peak) / static_cast<double>(nfft);
  return f < 0.5 ? f : f - 1.0;
}

// ------------------------------------------------------- DutyCycleJammer

TEST(JammerZoo, DutyCycleKeepsUnitAveragePower) {
  DutyCycleJammer jam(0.25, 1024, 0.5, 11);
  const dsp::cvec x = jam.generate(64 * 1024);  // whole periods only
  EXPECT_NEAR(dsp::mean_power(x), 1.0, 0.05);
}

TEST(JammerZoo, DutyCycleBurstsCarryTheConcentratedPower) {
  const double duty = 0.25;
  DutyCycleJammer jam(0.5, 4096, duty, 12);
  const dsp::cvec x = jam.generate(4096);
  const std::size_t on = 1024;  // round(4096 * 0.25)
  double burst_power = 0.0;
  for (std::size_t i = 0; i < on; ++i) burst_power += std::norm(x[i]);
  burst_power /= static_cast<double>(on);
  EXPECT_NEAR(burst_power, 1.0 / duty, 0.5);  // 1/duty during the burst
  for (std::size_t i = on; i < 4096; ++i) {
    ASSERT_EQ(x[i], dsp::cf{}) << "gap sample " << i << " must be exactly silent";
  }
}

TEST(JammerZoo, DutyCycleBurstPhaseContinuesAcrossCalls) {
  // Period 1024 at duty 0.5: on for [0, 512), silent for [512, 1024).
  // After a 300-sample first call the phase must carry over, putting the
  // silent gap at samples [212, 724) of the second call — exactly.
  DutyCycleJammer jam(0.25, 1024, 0.5, 13);
  (void)jam.generate(300);
  const dsp::cvec x = jam.generate(1024);
  for (std::size_t i = 0; i < 1024; ++i) {
    const std::size_t pos = (300 + i) % 1024;
    if (pos < 512) {
      ASSERT_NE(x[i], dsp::cf{}) << "burst sample " << i;
    } else {
      ASSERT_EQ(x[i], dsp::cf{}) << "gap sample " << i;
    }
  }
}

TEST(JammerZoo, DutyCycleRejectsDegenerateConfig) {
  EXPECT_THROW(DutyCycleJammer(0.25, 0, 0.5, 1), contract_violation);
  EXPECT_THROW(DutyCycleJammer(0.25, 1024, 0.0, 1), contract_violation);
  EXPECT_THROW(DutyCycleJammer(0.25, 1024, 1.5, 1), contract_violation);
}

// ------------------------------------------------------- BandSweepJammer

TEST(JammerZoo, BandSweepKeepsUnitPower) {
  BandSweepJammer jam(-0.2, 0.2, 8, 2048, 0.05, 21);
  const dsp::cvec x = jam.generate(8 * 2048);
  EXPECT_NEAR(dsp::mean_power(x), 1.0, 0.05);
}

TEST(JammerZoo, BandSweepMarchesBetweenTheEndpoints) {
  BandSweepJammer jam(-0.2, 0.2, 2, 8192, 0.05, 22);
  const dsp::cvec x = jam.generate(2 * 8192);
  const double f_first = peak_frequency(dsp::cspan{x}.subspan(0, 8192));
  const double f_second = peak_frequency(dsp::cspan{x}.subspan(8192, 8192));
  EXPECT_NEAR(f_first, -0.2, 0.05);
  EXPECT_NEAR(f_second, 0.2, 0.05);
}

TEST(JammerZoo, BandSweepWrapsAroundToTheFirstDwell) {
  BandSweepJammer jam(-0.15, 0.15, 4, 4096, 0.05, 23);
  (void)jam.generate(4 * 4096);  // one full sweep
  const dsp::cvec x = jam.generate(4096);  // first dwell of the next sweep
  EXPECT_NEAR(peak_frequency(x), -0.15, 0.05);
}

TEST(JammerZoo, BandSweepStepPhaseContinuesAcrossCalls) {
  // Half of dwell 0 in the first call: the second call must spend its
  // first half finishing dwell 0 at f_lo before stepping to f_hi.
  BandSweepJammer jam(-0.2, 0.2, 2, 8192, 0.05, 24);
  (void)jam.generate(4096);
  const dsp::cvec x = jam.generate(8192);
  EXPECT_NEAR(peak_frequency(dsp::cspan{x}.subspan(0, 4096)), -0.2, 0.05);
  EXPECT_NEAR(peak_frequency(dsp::cspan{x}.subspan(4096, 4096)), 0.2, 0.05);
}

TEST(JammerZoo, BandSweepRejectsDegenerateConfig) {
  EXPECT_THROW(BandSweepJammer(-0.5, 0.2, 4, 1024, 0.05, 1), contract_violation);
  EXPECT_THROW(BandSweepJammer(-0.2, 0.5, 4, 1024, 0.05, 1), contract_violation);
  EXPECT_THROW(BandSweepJammer(-0.2, 0.2, 0, 1024, 0.05, 1), contract_violation);
  EXPECT_THROW(BandSweepJammer(-0.2, 0.2, 4, 0, 0.05, 1), contract_violation);
}

// ----------------------------------------------------- EstimatingJammer

TEST(JammerZoo, EstimatingStartsWideAndOutputPrecedesTheUpdate) {
  EstimatingJammer jam({0.5, 1.0 / 64}, 8, 31);
  EXPECT_EQ(jam.target_index(), 0U);  // widest prior
  // Every observed hop is narrow, but this transmission's output must
  // still use the stale (wide) estimate — the update is strictly after.
  std::vector<ObservedHop> hops;
  for (std::size_t h = 0; h < 8; ++h) hops.push_back({h * 1024, 1.0 / 64});
  const dsp::cvec x = jam.generate(hops, 8192);
  const dsp::fvec psd = dsp::welch_psd(x, 256);
  EXPECT_GT(dsp::occupied_bandwidth(psd, 0.99), 0.3);  // still wide
  EXPECT_EQ(jam.target_index(), 1U);  // ... but the estimate matured
}

TEST(JammerZoo, EstimatingConvergesToTheModalBandwidth) {
  EstimatingJammer jam({0.5, 0.125, 1.0 / 64}, 8, 32);
  std::vector<ObservedHop> hops;
  for (std::size_t h = 0; h < 12; ++h) {
    hops.push_back({h * 512, (h % 4 == 0) ? 0.5 : 0.125});
  }
  (void)jam.generate(hops, 1024);
  EXPECT_EQ(jam.target_index(), 1U);
  EXPECT_EQ(jam.histogram()[0], 3U);
  EXPECT_EQ(jam.histogram()[1], 9U);
  // The next transmission is jammed at the learned modal bandwidth.
  const dsp::cvec x = jam.generate({}, 8192);
  const dsp::fvec psd = dsp::welch_psd(x, 256);
  EXPECT_NEAR(dsp::occupied_bandwidth(psd, 0.99), 0.125, 0.06);
}

TEST(JammerZoo, EstimatingObservationSnapsToClosestBandwidth) {
  EstimatingJammer jam({0.5, 0.125, 1.0 / 64}, 4, 33);
  const std::vector<ObservedHop> hops = {{0, 0.1}, {64, 0.1}};  // closest: 0.125
  (void)jam.generate(hops, 128);
  EXPECT_EQ(jam.histogram()[1], 2U);
}

TEST(JammerZoo, EstimatingForgetsByHalvingPastTheHorizon) {
  EstimatingJammer jam({0.5, 0.125}, 4, 34);
  std::vector<ObservedHop> hops;
  for (std::size_t h = 0; h < 9; ++h) hops.push_back({h * 64, 0.125});
  (void)jam.generate(hops, 64);  // 9 observations > 2 * 4: halve
  EXPECT_EQ(jam.histogram()[0], 0U);
  EXPECT_EQ(jam.histogram()[1], 4U);
  EXPECT_EQ(jam.target_index(), 1U);  // the estimate survives forgetting
}

TEST(JammerZoo, EstimatingKeepsUnitPower) {
  EstimatingJammer jam({0.5, 0.125}, 4, 35);
  const dsp::cvec x = jam.generate({}, 1 << 15);
  EXPECT_NEAR(dsp::mean_power(x), 1.0, 0.05);
}

// -------------------------------------- ReactiveJammer estimation latency

TEST(JammerZoo, ReactiveZeroEstimationLatencyReproducesLegacy) {
  // estimation_samples defaults to 0, and 0 must reproduce the historical
  // ideal-sensing jammer bit for bit (the golden traces depend on it).
  ReactiveJammer legacy({0.5, 1.0 / 64}, 1024, 41);
  ReactiveJammer explicit_zero({0.5, 1.0 / 64}, 1024, 41, 0);
  const std::vector<ObservedHop> hops = {{0, 0.5}, {4096, 1.0 / 64}};
  const dsp::cvec a = legacy.generate(hops, 16384);
  const dsp::cvec b = explicit_zero.generate(hops, 16384);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i], b[i]) << "sample " << i;
  }
}

TEST(JammerZoo, ReactiveEstimationLatencyDelaysTheReaction) {
  // Sensing (1024) + decision (1024): the switch lands at 2048, not 1024.
  ReactiveJammer jam({0.5, 1.0 / 64}, 1024, 42, 1024);
  const std::vector<ObservedHop> hops = {{0, 1.0 / 64}};
  const dsp::cvec x = jam.generate(hops, 16384);
  auto occupied = [&](std::size_t begin, std::size_t len) {
    const dsp::fvec psd = dsp::welch_psd(dsp::cspan{x}.subspan(begin, len), 256);
    return dsp::occupied_bandwidth(psd, 0.99);
  };
  EXPECT_GT(occupied(0, 2048), 0.3);    // wide until sensing + reaction elapse
  EXPECT_LT(occupied(4096, 8192), 0.1); // narrow afterwards
}

TEST(JammerZoo, ReactiveShortDwellIsNeverEstimated) {
  // The only hop dwells for 2048 < estimation_samples = 4096: the jammer
  // must deterministically ignore it — stay wide for the whole call AND
  // carry no estimate into the next transmission.
  ReactiveJammer jam({0.5, 1.0 / 64}, 0, 43, 4096);
  const std::vector<ObservedHop> hops = {{0, 1.0 / 64}};
  const dsp::cvec x = jam.generate(hops, 2048);
  {
    const dsp::fvec psd = dsp::welch_psd(x, 256);
    EXPECT_GT(dsp::occupied_bandwidth(psd, 0.99), 0.3);
  }
  const dsp::cvec next = jam.generate({}, 8192);
  const dsp::fvec psd = dsp::welch_psd(next, 256);
  EXPECT_GT(dsp::occupied_bandwidth(psd, 0.99), 0.3);  // no stale narrow estimate
}

TEST(JammerZoo, ReactiveEstimatesLongHopsAmongShortOnes) {
  // Hop 0 is too short to estimate, hop 1 is long enough: the jammer ends
  // the call carrying hop 1's bandwidth, not hop 0's.
  ReactiveJammer jam({0.5, 0.125, 1.0 / 64}, 0, 44, 1024);
  const std::vector<ObservedHop> hops = {{0, 1.0 / 64}, {512, 0.125}};
  (void)jam.generate(hops, 8192);  // hop 0 dwells 512 < 1024; hop 1 dwells 7680
  const dsp::cvec next = jam.generate({}, 8192);
  const dsp::fvec psd = dsp::welch_psd(next, 256);
  EXPECT_NEAR(dsp::occupied_bandwidth(psd, 0.99), 0.125, 0.06);
}

TEST(JammerZoo, ReactiveRequiresSortedHops) {
  ReactiveJammer jam({0.5}, 0, 45);
  const std::vector<ObservedHop> unsorted = {{4096, 0.5}, {0, 0.5}};
  EXPECT_THROW((void)jam.generate(unsorted, 8192), contract_violation);
}

// ------------------------------------------------------------- bit pins
//
// Golden digests: a refactor of the jammer layer must leave every value
// below unchanged. A change that moves bits on purpose re-records the
// affected rows and lists old -> new in CHANGES.md.

constexpr std::uint64_t kFnvOffset = 0xCBF29CE484222325ULL;

/// FNV-1a-64 over the IEEE-754 bits of both rails of every sample.
std::uint64_t fnv1a(std::uint64_t h, dsp::cspan x) {
  for (const dsp::cf& s : x) {
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

/// Digest of two successive generate(4096) calls; `args` go before n.
template <class Jammer, class... Args>
std::uint64_t two_call_digest(Jammer jam, const Args&... args) {
  std::uint64_t h = kFnvOffset;
  for (int call = 0; call < 2; ++call) h = fnv1a(h, jam.generate(args..., 4096));
  return h;
}

TEST(JammerZoo, PinsTheWaveformOfEveryJammerClass) {
  const std::vector<double> bws = {0.5, 0.25, 0.125, 1.0 / 16};
  const std::vector<ObservedHop> hops = {{0, 0.5}, {1024, 0.125}, {2048, 0.25}, {3072, 0.125}};
  const std::span<const ObservedHop> seen{hops};
  struct Row {
    const char* name;
    std::function<std::uint64_t()> digest;
    std::uint64_t expected;
  };
  const std::vector<Row> rows = {
      {"noise", [&] { return two_call_digest(NoiseJammer(0.25, 21)); }, 0x2C5B75C60D1AB5FEULL},
      {"hopping",
       [&] { return two_call_digest(HoppingJammer(bws, {0.4, 0.3, 0.2, 0.1}, 1024, 22)); },
       0xBEDA7B08676FC047ULL},
      {"reactive", [&] { return two_call_digest(ReactiveJammer(bws, 512, 23, 128), seen); },
       0x4C732F464EB03D02ULL},
      {"tone", [&] { return two_call_digest(ToneJammer(std::vector<double>{0.01, -0.13}, 24)); },
       0x43853C1D5545C59DULL},
      {"swept", [&] { return two_call_digest(SweptJammer(-0.25, 0.25, 8192, 25)); },
       0x1B5DAD9E4652DE17ULL},
      {"duty_cycle", [&] { return two_call_digest(DutyCycleJammer(0.25, 1024, 0.5, 26)); },
       0xB083FECF3C02E5D9ULL},
      {"band_sweep",
       [&] { return two_call_digest(BandSweepJammer(-0.3, 0.3, 4, 512, 0.05, 27)); },
       0x6768562FE50768ABULL},
      {"estimating", [&] { return two_call_digest(EstimatingJammer(bws, 4, 28), seen); },
       0xC7D27D887CFCF2FAULL},
  };
  for (const Row& row : rows) {
    EXPECT_EQ(row.digest(), row.expected) << row.name;
  }
}

TEST(JammerZoo, PinsRunLinkUnderEveryJammerKind) {
  using Kind = core::JammerSpec::Kind;
  struct Row {
    Kind kind;
    const char* name;
    std::size_t ok;
    std::size_t detected;
    std::size_t symbol_errors;
  };
  const std::vector<Row> rows = {
      {Kind::none, "none", 6, 6, 0},
      {Kind::fixed_bandwidth, "fixed_bandwidth", 0, 6, 38},
      {Kind::hopping, "hopping", 0, 5, 67},
      {Kind::reactive, "reactive", 0, 6, 41},
      {Kind::tone, "tone", 6, 6, 0},
      {Kind::swept, "swept", 6, 6, 0},
      {Kind::duty_cycle, "duty_cycle", 2, 6, 33},
      {Kind::band_sweep, "band_sweep", 5, 6, 18},
      {Kind::estimating, "estimating", 0, 6, 49},
  };
  for (const Row& row : rows) {
    core::SimConfig cfg;
    cfg.system.pattern =
        core::HopPattern::make(core::HopPatternType::linear, core::BandwidthSet::small());
    cfg.system.hopping = true;
    cfg.payload_len = 4;
    cfg.n_packets = 6;
    cfg.snr_db = 12.0;
    cfg.jnr_db = 25.0;
    cfg.jammer.kind = row.kind;
    cfg.jammer.dwell_samples = 2048;
    cfg.jammer.estimation_hops = 8;
    const core::LinkStats s = core::run_link(cfg);
    EXPECT_EQ(s.ok, row.ok) << row.name;
    EXPECT_EQ(s.detected, row.detected) << row.name;
    EXPECT_EQ(s.symbol_errors, row.symbol_errors) << row.name;
  }
}

}  // namespace
}  // namespace bhss::jammer
