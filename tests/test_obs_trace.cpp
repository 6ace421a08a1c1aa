// Trace-layer tests: bounded-ring semantics (overwrite-oldest, explicit
// drop accounting), scope timing accumulation, deterministic JSON
// rendering, and the golden-trace regressions pinning the receiver's
// per-hop filter-decision sequence for fixed-seed links against a
// reactive and a tone jammer. A golden mismatch means the control-logic
// decision path changed behaviour — update the golden only after
// confirming the change is intended.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/contracts.hpp"
#include "core/link_simulator.hpp"
#include "obs/link_obs.hpp"
#include "obs/trace.hpp"

namespace {

using namespace bhss;

obs::TraceEvent make_event(std::uint32_t hop) {
  obs::TraceEvent ev;
  ev.type = obs::TraceEventType::hop_decision;
  ev.hop = hop;
  ev.packet = 7;
  ev.v0 = static_cast<double>(hop) * 0.5;
  return ev;
}

TEST(ObsTrace, RingRetainsEverythingBelowCapacity) {
  obs::TraceSink sink(8);
  EXPECT_EQ(sink.capacity(), 8u);
  for (std::uint32_t i = 0; i < 5; ++i) sink.push(make_event(i));
  EXPECT_EQ(sink.size(), 5u);
  EXPECT_EQ(sink.total_recorded(), 5u);
  EXPECT_EQ(sink.dropped(), 0u);
  const std::vector<obs::TraceEvent> events = sink.events();
  ASSERT_EQ(events.size(), 5u);
  for (std::uint32_t i = 0; i < 5; ++i) EXPECT_EQ(events[i].hop, i);
}

TEST(ObsTrace, RingOverwritesOldestAndCountsDrops) {
  obs::TraceSink sink(4);
  for (std::uint32_t i = 0; i < 10; ++i) sink.push(make_event(i));
  EXPECT_EQ(sink.size(), 4u);
  EXPECT_EQ(sink.total_recorded(), 10u);
  EXPECT_EQ(sink.dropped(), 6u);
  const std::vector<obs::TraceEvent> events = sink.events();
  ASSERT_EQ(events.size(), 4u);
  // Oldest first: events 6, 7, 8, 9 survive.
  for (std::uint32_t i = 0; i < 4; ++i) EXPECT_EQ(events[i].hop, 6 + i);
}

TEST(ObsTrace, RingRejectsZeroCapacity) {
  EXPECT_THROW(obs::TraceSink sink(0), contract_violation);
}

TEST(ObsTrace, ScopeStatsAccumulate) {
  obs::TraceSink sink(4);
  sink.note_scope(obs::TraceScopeId::receive, 100);
  sink.note_scope(obs::TraceScopeId::receive, 250);
  sink.note_scope(obs::TraceScopeId::choose_filter, 40);
  const obs::TraceScopeStats& rx = sink.scope(obs::TraceScopeId::receive);
  EXPECT_EQ(rx.calls, 2u);
  EXPECT_EQ(rx.total_ns, 350u);
  EXPECT_EQ(rx.max_ns, 250u);
  EXPECT_EQ(sink.scope(obs::TraceScopeId::choose_filter).calls, 1u);
  EXPECT_EQ(sink.scope(obs::TraceScopeId::fault_inject).calls, 0u);

  obs::TraceSink other(4);
  other.note_scope(obs::TraceScopeId::receive, 400);
  sink.merge_scopes_from(other);
  EXPECT_EQ(sink.scope(obs::TraceScopeId::receive).calls, 3u);
  EXPECT_EQ(sink.scope(obs::TraceScopeId::receive).total_ns, 750u);
  EXPECT_EQ(sink.scope(obs::TraceScopeId::receive).max_ns, 400u);
}

TEST(ObsTrace, TraceScopeRecordsOnDestruction) {
  obs::TraceSink sink(4);
  {
    BHSS_TRACE_SCOPE(&sink, obs::TraceScopeId::demod_despread);
  }
  EXPECT_EQ(sink.scope(obs::TraceScopeId::demod_despread).calls,
            obs::obs_enabled() ? 1u : 0u);
  // A null sink must be safe and free of clock reads.
  {
    BHSS_TRACE_SCOPE(static_cast<obs::TraceSink*>(nullptr),
                     obs::TraceScopeId::demod_despread);
  }
  EXPECT_EQ(sink.scope(obs::TraceScopeId::demod_despread).calls,
            obs::obs_enabled() ? 1u : 0u);
}

TEST(ObsTrace, EventNamesAreStable) {
  using obs::TraceEventType;
  EXPECT_STREQ(obs::trace_event_name(TraceEventType::hop_decision), "hop_decision");
  EXPECT_STREQ(obs::trace_event_name(TraceEventType::sync_attempt), "sync_attempt");
  EXPECT_STREQ(obs::trace_event_name(TraceEventType::sync_lock), "sync_lock");
  EXPECT_STREQ(obs::trace_event_name(TraceEventType::sync_loss), "sync_loss");
  EXPECT_STREQ(obs::trace_event_name(TraceEventType::fault_applied), "fault");
  EXPECT_STREQ(obs::trace_event_name(TraceEventType::packet_done), "packet_done");
  EXPECT_STREQ(obs::trace_event_name(TraceEventType::adapt_window), "adapt_window");
  EXPECT_STREQ(obs::trace_event_name(TraceEventType::adapt_transition), "adapt_transition");
}

// The JSONL emitters promise byte-stable rendering: equal event bits must
// always produce equal bytes (that is what makes the resume byte-identity
// guarantee testable at the file level).
TEST(ObsTrace, EventJsonRenderingIsDeterministic) {
  obs::TraceEvent ev;
  ev.type = obs::TraceEventType::hop_decision;
  ev.flag = 2;  // excision
  ev.bw_index = 3;
  ev.hop = 1;
  ev.packet = 42;
  ev.v0 = 0.125;
  ev.v1 = 0.25;
  ev.v2 = 6.5;
  ev.v3 = 5.5;
  ev.v4 = -12.0;
  ev.v5 = -12.218487496163564;
  const std::string body = obs::trace_event_json_body(ev);
  EXPECT_EQ(body, obs::trace_event_json_body(ev));
  EXPECT_NE(body.find("\"event\":\"hop_decision\""), std::string::npos);
  EXPECT_NE(body.find("\"pkt\":42"), std::string::npos);
  EXPECT_NE(body.find("\"filter\":\"excision\""), std::string::npos);
  EXPECT_NE(body.find("\"est_jam_bw\":0.125"), std::string::npos);

  obs::TraceEvent loss;
  loss.type = obs::TraceEventType::sync_loss;
  loss.packet = 3;
  loss.hop = 2;
  EXPECT_EQ(obs::trace_event_json_body(loss),
            "\"event\":\"sync_loss\",\"pkt\":3,\"attempts\":2");
}

// ------------------------------------------------------------ golden traces

/// Compress the filter-decision sequence of a fixed-seed shard run into
/// one char per hop_decision event: n(one) / l(owpass) / e(xcision) /
/// d(egenerate fallback), with '|' separating packets.
std::string decision_sequence(const core::SimConfig& cfg, std::size_t n_packets) {
  obs::ShardTelemetry tele;
  const core::ShardSeeds seeds{cfg.channel_seed, cfg.channel_seed ^ 0xC4A77EULL,
                               cfg.jammer.seed};
  (void)core::run_link_shard(cfg, 0, n_packets, seeds, tele.obs());
  EXPECT_EQ(tele.trace.dropped(), 0u) << "golden run must retain every event";

  std::string seq;
  std::uint64_t last_packet = 0;
  bool first = true;
  for (const obs::TraceEvent& ev : tele.trace.events()) {
    if (ev.type != obs::TraceEventType::hop_decision) continue;
    if (!first && ev.packet != last_packet) seq += '|';
    first = false;
    last_packet = ev.packet;
    switch (ev.flag) {
      case 0: seq += 'n'; break;
      case 1: seq += 'l'; break;
      case 2: seq += 'e'; break;
      case 3: seq += 'd'; break;
      default: seq += '?'; break;
    }
  }
  return seq;
}

core::SimConfig golden_config() {
  core::SimConfig cfg;
  cfg.system.sync = core::SyncMode::preamble;
  cfg.payload_len = 4;
  cfg.snr_db = 15.0;
  cfg.jnr_db = 28.0;
  cfg.channel_seed = 11;
  cfg.jammer.seed = 99;
  return cfg;
}

TEST(GoldenTrace, ReactiveJammerFilterDecisions) {
  core::SimConfig cfg = golden_config();
  cfg.jammer.kind = core::JammerSpec::Kind::reactive;
  cfg.jammer.reaction_delay = 1024;

  // Golden, pinned 2026-08 and re-recorded 2026-10 twice: when AwgnSource
  // moved to the owned Box–Muller transform (new noise bits), and when the
  // noise jammer became one continuous stream (new jammer bits). The
  // per-hop filter decisions of 6 fixed-seed packets against the reactive
  // jammer (packets that never achieved sync lock contribute no hops). Any
  // control-logic, sync or DSP change that alters a single decision shows
  // up here first.
  const std::string golden = "eneene|eeeenn|eeenee|neeeen";
  EXPECT_EQ(decision_sequence(cfg, 6), golden);
}

TEST(GoldenTrace, ToneJammerFilterDecisions) {
  core::SimConfig cfg = golden_config();
  cfg.jammer.kind = core::JammerSpec::Kind::tone;
  cfg.jammer.tone_freqs = {0.01};

  // Golden, pinned 2026-08: the classic excision target — the decision
  // alternates between excising the tone and low-passing, never "none".
  const std::string golden = "leleee|eelele|lleele|eeeeel|elelee|leeell";
  EXPECT_EQ(decision_sequence(cfg, 6), golden);
}

// The golden runs above also pin the eq. (10) threshold terms carried by
// every hop_decision event: the thresholds are configuration constants,
// so they must be byte-stable across the whole trace.
TEST(GoldenTrace, HopDecisionCarriesStableThresholdTerms) {
  core::SimConfig cfg = golden_config();
  cfg.jammer.kind = core::JammerSpec::Kind::tone;

  obs::ShardTelemetry tele;
  const core::ShardSeeds seeds{cfg.channel_seed, cfg.channel_seed ^ 0xC4A77EULL,
                               cfg.jammer.seed};
  (void)core::run_link_shard(cfg, 0, 4, seeds, tele.obs());

  const core::ControlLogicConfig logic;  // defaults used by golden_config
  std::size_t n_hops = 0;
  for (const obs::TraceEvent& ev : tele.trace.events()) {
    if (ev.type != obs::TraceEventType::hop_decision) continue;
    ++n_hops;
    EXPECT_EQ(ev.v3, logic.peak_over_median_db);   // in-band peak threshold
    EXPECT_GT(ev.v1, 0.0);                         // eq. (10) guard term
    EXPECT_LE(ev.v0, 1.0);                         // occupancy is a fraction
    EXPECT_GE(ev.v0, 0.0);
  }
  EXPECT_GT(n_hops, 0u);
}

}  // namespace
