#include "link_layers.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <numbers>
#include <stdexcept>

#include "channel/awgn.hpp"
#include "channel/link_channel.hpp"
#include "core/shared_random.hpp"
#include "jammer/noise_jammer.hpp"
#include "jammer/reactive_jammer.hpp"
#include "runtime/parallel_link_runner.hpp"

namespace bhss::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double seconds(Clock::duration d) noexcept { return std::chrono::duration<double>(d).count(); }

// Default unit sizes: packets per data point. jammed_sweep runs 7 points
// per unit, clean_link 1, bisect_point 4 bisections of 9 probes each.
// Bisection paths differ from seed to seed; 4 of them per unit keep the
// unit's cost steady while each probe stays small.
constexpr std::size_t kSweepPackets = 144;
constexpr std::size_t kCleanPackets = 1024;
constexpr std::size_t kProbePackets = 64;
constexpr std::size_t kBisections = 4;

/// The paper link of every workload: SystemConfig defaults are the paper
/// receiver (7 bandwidths, linear pattern, 4 symbols/hop, preamble sync,
/// adaptive eq. (10) filter, carrier tracking); impairments on, 4-byte
/// payload, JNR 20 dB, SNR 12 dB.
core::SimConfig paper_link(std::uint64_t seed, std::size_t point, std::size_t n_packets) {
  using core::SharedRandom;
  core::SimConfig cfg;
  cfg.system.seed = SharedRandom::split_seed(seed, 0, point);
  cfg.channel_seed = SharedRandom::split_seed(seed, 1, point);
  cfg.jammer.seed = SharedRandom::split_seed(seed, 2, point);
  cfg.payload_len = 4;
  cfg.snr_db = 12.0;
  cfg.jnr_db = 20.0;
  cfg.impairments = true;
  cfg.n_packets = n_packets;
  return cfg;
}

/// The benchmark's jammers, built and called through their own classes
/// (core's JammerBox is private to the link simulator). Mirrors JammerBox
/// for the kinds the workloads use.
class LayerJammer {
 public:
  LayerJammer(const core::JammerSpec& spec, std::uint64_t seed, const core::BandwidthSet& bands) {
    switch (spec.kind) {
      case core::JammerSpec::Kind::none:
        break;
      case core::JammerSpec::Kind::fixed_bandwidth:
        fixed_.emplace(spec.bandwidth_frac, seed);
        break;
      case core::JammerSpec::Kind::reactive:
        reactive_.emplace(bands.bandwidth_fracs(), spec.reaction_delay, seed,
                          spec.estimation_samples);
        break;
      default:
        throw std::invalid_argument("perfbench: traced loop supports none/fixed/reactive jammers");
    }
  }

  [[nodiscard]] dsp::cvec generate(const core::Transmission& t, const core::BandwidthSet& bands,
                                   std::size_t delay, std::size_t n) {
    if (fixed_) return fixed_->generate(n);
    if (reactive_) return reactive_->generate(t.schedule.observed_hops(bands, delay), n);
    return {};
  }

 private:
  std::optional<jammer::NoiseJammer> fixed_;
  std::optional<jammer::ReactiveJammer> reactive_;
};

struct ShardResult {
  core::LinkStats stats;
  LayerTotals layers;
};

/// One shard of `core::run_link_shard`, layer by layer. Every draw and
/// every statistic follows run_link_shard's order, so the stats match it
/// bit for bit.
ShardResult run_traced_shard(const core::SimConfig& cfg, std::size_t first_packet,
                             std::size_t n_packets, const core::ShardSeeds& seeds,
                             const obs::LinkObs& o) {
  if (cfg.faults.any() || cfg.adapt.enabled) {
    throw std::invalid_argument("perfbench: traced loop runs without faults and adaptation");
  }
  ShardResult out;
  LayerTotals& lt = out.layers;
  core::LinkStats& stats = out.stats;

  const Clock::time_point setup_start = Clock::now();
  const core::BandwidthSet& bands = cfg.system.pattern.bands();
  const core::BhssTransmitter tx(cfg.system);
  const core::BhssReceiver rx(cfg.system);
  channel::AwgnSource noise(seeds.channel);
  core::SharedRandom channel_rng(seeds.impairments);
  LayerJammer jam_source(cfg.jammer, seeds.jammer, bands);
  const double sample_rate = bands.sample_rate_hz();
  const bool genie = cfg.system.sync == core::SyncMode::genie;
  const Clock::time_point loop_start = Clock::now();
  lt.shard_setup_s = seconds(loop_start - setup_start);
  lt.shards = 1;

  for (std::size_t pkt = first_packet; pkt < first_packet + n_packets; ++pkt) {
    const Clock::time_point t0 = Clock::now();
    Clock::duration layers{};
    {
      std::vector<std::uint8_t> payload(cfg.payload_len);
      for (std::size_t j = 0; j < payload.size(); ++j) {
        payload[j] = static_cast<std::uint8_t>((pkt * 31 + j * 7 + 13) & 0xFF);
      }

      const Clock::time_point a = Clock::now();
      const core::Transmission t = tx.transmit(payload, pkt);
      const Clock::time_point b = Clock::now();

      channel::LinkConfig link;
      link.snr_db = cfg.snr_db;
      if (cfg.jammer.kind != core::JammerSpec::Kind::none) link.jnr_db = cfg.jnr_db;
      link.tx_delay = cfg.impairments ? 16 + channel_rng.uniform_index(
                                                 std::max<std::size_t>(cfg.max_delay, 1))
                                      : cfg.max_delay / 2;
      link.tail_pad = 64;
      if (cfg.impairments && !genie) {
        link.phase = static_cast<float>((channel_rng.uniform() * 2.0 - 1.0) * std::numbers::pi);
        link.cfo = static_cast<float>((channel_rng.uniform() * 2.0 - 1.0) *
                                      static_cast<double>(cfg.max_cfo));
      }
      const std::size_t total_len = link.tx_delay + t.samples.size() + link.tail_pad;

      const Clock::time_point c = Clock::now();
      const dsp::cvec jam = jam_source.generate(t, bands, link.tx_delay, total_len);
      const Clock::time_point d = Clock::now();
      const dsp::cvec rx_signal = channel::transmit(t.samples, jam, link, noise);
      const Clock::time_point e = Clock::now();
      const std::size_t search_window = link.tx_delay + cfg.max_delay / 4 + 64;
      const core::RxResult res =
          rx.receive(rx_signal, pkt, cfg.payload_len, search_window, link.tx_delay, o);
      const Clock::time_point f = Clock::now();

      lt.tx_s += seconds(b - a);
      lt.jammer_s += seconds(d - c);
      lt.channel_s += seconds(e - d);
      lt.rx_s += seconds(f - e);
      layers = (b - a) + (d - c) + (e - d) + (f - e);
      lt.jammer_samples += jam.size();
      lt.capture_samples += rx_signal.size();

      ++stats.packets;
      stats.airtime_s += static_cast<double>(t.samples.size()) / sample_rate;
      if (res.frame_detected) ++stats.detected;
      if (res.sync_lost) ++stats.sync_lost;
      if (res.reacquired) ++stats.reacquired;
      if (res.input_scrubbed) ++stats.corrupt_input_rejected;
      stats.filter_fallback += res.filter_fallbacks;
      if (res.crc_ok && res.payload == payload) ++stats.ok;
      const std::size_t n = std::min(res.symbols.size(), t.symbols.size());
      stats.total_symbols += t.symbols.size();
      for (std::size_t s = 0; s < n; ++s) {
        if (res.symbols[s] != t.symbols[s]) ++stats.symbol_errors;
      }
      stats.symbol_errors += t.symbols.size() - n;
    }
    lt.link_unattributed_s += seconds(Clock::now() - t0 - layers);
    ++lt.packets;
  }
  lt.loop_s = seconds(Clock::now() - loop_start);

  if (stats.airtime_s > 0.0) {
    stats.throughput_bps = static_cast<double>(stats.ok * cfg.payload_len * 8) / stats.airtime_s;
  }
  return out;
}

}  // namespace

std::optional<Workload> make_workload(std::string_view name, std::uint64_t seed,
                                      std::size_t packets_per_point) {
  Workload w;
  w.name = std::string(name);
  if (name == "jammed_sweep") {
    // Fixed-bandwidth noise jammer at each of the 7 paper bandwidths
    // (Figs. 13/14 traffic): every eq. (10) branch does its share.
    const std::size_t n = packets_per_point != 0 ? packets_per_point : kSweepPackets;
    const core::BandwidthSet bands = core::BandwidthSet::paper();
    for (std::size_t i = 0; i < bands.size(); ++i) {
      core::SimConfig cfg = paper_link(seed, i, n);
      cfg.jammer.kind = core::JammerSpec::Kind::fixed_bandwidth;
      cfg.jammer.bandwidth_frac = bands.bandwidth_frac(i);
      w.points.push_back(cfg);
    }
  } else if (name == "clean_link") {
    // Same link, no jammer: the jammer layer does no work.
    const std::size_t n = packets_per_point != 0 ? packets_per_point : kCleanPackets;
    w.points.push_back(paper_link(seed, 0, n));
  } else if (name == "bisect_point") {
    // §6.3 min-SNR for PER 0.5 against the paper's reactive jammer.
    const std::size_t n = packets_per_point != 0 ? packets_per_point : kProbePackets;
    for (std::size_t i = 0; i < kBisections; ++i) {
      core::SimConfig cfg = paper_link(seed, i, n);
      cfg.jammer.kind = core::JammerSpec::Kind::reactive;
      w.points.push_back(cfg);
    }
    w.bisect = true;
  } else {
    return std::nullopt;
  }
  return w;
}

void LayerTotals::add(const LayerTotals& o) noexcept {
  packets += o.packets;
  shards += o.shards;
  tx_s += o.tx_s;
  jammer_s += o.jammer_s;
  channel_s += o.channel_s;
  rx_s += o.rx_s;
  link_unattributed_s += o.link_unattributed_s;
  loop_s += o.loop_s;
  shard_setup_s += o.shard_setup_s;
  jammer_samples += o.jammer_samples;
  capture_samples += o.capture_samples;
}

TracedPoint run_traced_point(runtime::ThreadPool& pool, const core::SimConfig& cfg) {
  std::vector<core::LinkStats> stats(kShards);
  std::vector<obs::ShardTelemetry> telemetry(kShards);
  std::vector<LayerTotals> layers(kShards);
  std::vector<double> busy(kShards, 0.0);

  const Clock::time_point start = Clock::now();
  pool.parallel_for_shards(kShards, [&](std::size_t shard) {
    const auto range = runtime::ParallelLinkRunner::shard_range(cfg.n_packets, kShards, shard);
    if (range.count == 0) return;
    const Clock::time_point s0 = Clock::now();
    ShardResult r = run_traced_shard(cfg, range.first, range.count,
                                     runtime::ParallelLinkRunner::shard_seeds(cfg, shard),
                                     telemetry[shard].obs());
    busy[shard] = seconds(Clock::now() - s0);
    stats[shard] = r.stats;
    layers[shard] = r.layers;
  });

  TracedPoint p;
  p.wall_s = seconds(Clock::now() - start);
  p.stats = runtime::merge_point_results(stats, &telemetry, cfg.payload_len, &p.telemetry);
  for (std::size_t s = 0; s < kShards; ++s) {
    p.layers.add(layers[s]);
    p.busy_s += busy[s];
    p.max_shard_s = std::max(p.max_shard_s, busy[s]);
  }
  return p;
}

TracedBisection run_traced_bisection(runtime::ThreadPool& pool, const core::SimConfig& cfg) {
  TracedBisection b;
  b.point_db = core::min_snr_for_per(cfg, [&](const core::SimConfig& c) {
    b.probes.push_back(run_traced_point(pool, c));
    return b.probes.back().stats.per();
  });
  return b;
}

ReplayedBisection replay_bisection(runtime::CampaignRunner& runner, const std::string& point_id,
                                   const core::SimConfig& cfg) {
  ReplayedBisection b;
  b.point_db = core::min_snr_for_per(cfg, [&](const core::SimConfig& c) {
    char id[288];
    std::snprintf(id, sizeof(id), "%s/p%zu", point_id.c_str(), b.probes.size());
    b.probes.push_back(runner.run_point(id, c));
    return b.probes.back().per();
  });
  return b;
}

bool same_stats(const core::LinkStats& a, const core::LinkStats& b) noexcept {
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  return a.packets == b.packets && a.detected == b.detected && a.ok == b.ok &&
         a.symbol_errors == b.symbol_errors && a.total_symbols == b.total_symbols &&
         bits(a.airtime_s) == bits(b.airtime_s) &&
         bits(a.throughput_bps) == bits(b.throughput_bps) && a.sync_lost == b.sync_lost &&
         a.reacquired == b.reacquired && a.filter_fallback == b.filter_fallback &&
         a.corrupt_input_rejected == b.corrupt_input_rejected &&
         a.faults_injected == b.faults_injected && a.shard_timeout == b.shard_timeout &&
         a.shard_retried == b.shard_retried && a.worker_restarts == b.worker_restarts &&
         a.worker_crashes == b.worker_crashes && a.worker_drains == b.worker_drains &&
         a.adapt_transitions == b.adapt_transitions &&
         a.adapt_jam_episodes == b.adapt_jam_episodes &&
         a.adapt_fallbacks == b.adapt_fallbacks && a.adapt_recoveries == b.adapt_recoveries &&
         a.adapt_windows_jammed == b.adapt_windows_jammed &&
         a.adapt_packets_adapted == b.adapt_packets_adapted;
}

double rows_vs_wall_error(const LayerTotals& t) noexcept {
  if (t.loop_s <= 0.0) return 1.0;
  const double rows = t.tx_s + t.jammer_s + t.channel_s + t.rx_s + t.link_unattributed_s;
  return std::abs(rows - t.loop_s) / t.loop_s;
}

}  // namespace bhss::perfbench
