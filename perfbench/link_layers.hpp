#pragma once

/// @file link_layers.hpp
/// Workloads and the outside-in traced packet loop of the link benchmark.
///
/// The traced loop replays what `core::run_link_shard` does for one shard
/// (faults and adaptation off), but calls each layer's public function
/// itself and times it from outside with `steady_clock`:
///
///   BhssTransmitter::transmit -> jammer::*::generate -> channel::transmit
///   -> BhssReceiver::receive (with a TraceSink, whose BHSS_TRACE_SCOPE
///   rows split the receiver)
///
/// Shards use the work partition and seed tuples of
/// `runtime::ParallelLinkRunner`, so the merged LinkStats of a traced
/// point must equal the runner's bit for bit (test_linkbench.cpp pins it).

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/link_simulator.hpp"
#include "obs/link_obs.hpp"
#include "runtime/campaign.hpp"
#include "runtime/thread_pool.hpp"

namespace bhss::perfbench {

/// Fixed shard count of every workload (part of the experiment identity).
inline constexpr std::size_t kShards = 16;

/// One workload: the data points a single timed unit runs. A unit runs
/// every point once, or for a bisecting workload one paper §6.3 min-SNR
/// bisection of each point, with the library's default bisection
/// (PER 0.5 over -10...45 dB to 0.5 dB).
struct Workload {
  std::string name;
  std::vector<core::SimConfig> points;
  bool bisect = false;
};

/// Build a workload from its seed; `packets_per_point` = 0 keeps the
/// benchmark's default size. Returns nullopt for an unknown name.
[[nodiscard]] std::optional<Workload> make_workload(std::string_view name, std::uint64_t seed,
                                                    std::size_t packets_per_point = 0);

/// Wall time and work of each layer, summed over packets and shards.
struct LayerTotals {
  std::uint64_t packets = 0;
  std::uint64_t shards = 0;
  double tx_s = 0.0;
  double jammer_s = 0.0;
  double channel_s = 0.0;
  double rx_s = 0.0;
  double link_unattributed_s = 0.0;  ///< packet span minus the four layers
  double loop_s = 0.0;               ///< sum of shard packet-loop walls, timed separately
  double shard_setup_s = 0.0;        ///< building tx, rx, noise and jammer per shard
  std::uint64_t jammer_samples = 0;
  std::uint64_t capture_samples = 0;  ///< channel output = receiver input

  void add(const LayerTotals& o) noexcept;
};

/// One data point run through the traced loop.
struct TracedPoint {
  core::LinkStats stats;           ///< merged exactly like ParallelLinkRunner::run
  obs::ShardTelemetry telemetry;   ///< merged metrics + receiver scope timings
  LayerTotals layers;
  double wall_s = 0.0;             ///< fork-join wall of the point
  double busy_s = 0.0;             ///< sum of shard busy times
  double max_shard_s = 0.0;        ///< slowest shard
};

/// Run `cfg`'s shards through the traced loop on `pool`.
[[nodiscard]] TracedPoint run_traced_point(runtime::ThreadPool& pool, const core::SimConfig& cfg);

/// A bisection whose every probe ran through the traced loop.
struct TracedBisection {
  double point_db = 0.0;
  std::vector<TracedPoint> probes;
};

/// `core::min_snr_for_per` over `cfg` with the traced loop as the PER
/// oracle: the same probe path as CampaignRunner::min_snr_for_per.
[[nodiscard]] TracedBisection run_traced_bisection(runtime::ThreadPool& pool,
                                                   const core::SimConfig& cfg);

/// A bisection re-walked through CampaignRunner::run_point, so every probe
/// comes back with its LinkStats (from the journal when it holds them).
struct ReplayedBisection {
  double point_db = 0.0;
  std::vector<core::LinkStats> probes;
};

/// Re-walk bisection `point_id` of `cfg` on `runner`, using the probe ids
/// CampaignRunner::min_snr_for_per gives (`<point_id>/p<n>`).
[[nodiscard]] ReplayedBisection replay_bisection(runtime::CampaignRunner& runner,
                                                 const std::string& point_id,
                                                 const core::SimConfig& cfg);

/// Bitwise equality of every LinkStats field (doubles by bit pattern).
[[nodiscard]] bool same_stats(const core::LinkStats& a, const core::LinkStats& b) noexcept;

/// |rows - packet wall| / packet wall of a traced run: the layer rows
/// (tx, jammer, channel, rx, link.unattributed) against the shard loop
/// walls measured around them.
[[nodiscard]] double rows_vs_wall_error(const LayerTotals& t) noexcept;

}  // namespace bhss::perfbench
