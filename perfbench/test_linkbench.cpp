/// @file test_linkbench.cpp
/// Fidelity of the benchmark's traced loop, on every workload at a small
/// size:
///  - the traced loop's merged LinkStats equal the runtime's bit for bit
///    (ParallelLinkRunner::run per point; CampaignRunner::min_snr_for_per
///    with a checkpoint journal for the bisection, probe by probe);
///  - the layer rows, link.unattributed included, sum to the shard loop
///    walls measured around them within 5%.
/// Exits 0 when every check holds; prints each failure.

#include <bit>
#include <cstdio>
#include <filesystem>
#include <string>

#include "link_layers.hpp"
#include "runtime/checkpoint_journal.hpp"
#include "runtime/parallel_link_runner.hpp"

namespace {

using namespace bhss;
using namespace bhss::perfbench;

constexpr std::size_t kThreads = 4;
constexpr std::size_t kPacketsPerPoint = 32;

int g_failures = 0;

void check(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++g_failures;
}

void check_rows(const LayerTotals& lt, const std::string& name) {
  const double err = rows_vs_wall_error(lt);
  char buf[128];
  std::snprintf(buf, sizeof(buf), "%s: rows sum to the traced packet wall (error %.4f%%)",
                name.c_str(), 100.0 * err);
  check(lt.packets > 0 && err <= 0.05, buf);
}

void point_workload(const std::string& name, runtime::ThreadPool& pool) {
  const Workload w = *make_workload(name, 7, kPacketsPerPoint);
  runtime::ParallelLinkRunner runner({.n_threads = kThreads, .n_shards = kShards});
  LayerTotals lt;
  bool same = true;
  for (const core::SimConfig& cfg : w.points) {
    const TracedPoint tp = run_traced_point(pool, cfg);
    same = same && same_stats(tp.stats, runner.run(cfg)) && tp.stats.packets == cfg.n_packets;
    lt.add(tp.layers);
  }
  check(same, name + ": traced LinkStats equal ParallelLinkRunner::run on every point");
  check_rows(lt, name);
}

void bisect_workload(runtime::ThreadPool& pool) {
  const Workload w = *make_workload("bisect_point", 7, kPacketsPerPoint);
  const std::string path = "test_linkbench.journal";
  runtime::CheckpointJournal journal;
  journal.open(path, "perfbench.test", 1, "test", false);
  runtime::CampaignRunner campaign({.n_threads = kThreads, .n_shards = kShards}, &journal);
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  bool same = true;
  LayerTotals lt;
  for (std::size_t b = 0; b < w.points.size(); ++b) {
    const std::string id = std::to_string(b);
    const double point = campaign.min_snr_for_per(id, w.points[b]);
    const ReplayedBisection journaled = replay_bisection(campaign, id, w.points[b]);
    const TracedBisection traced = run_traced_bisection(pool, w.points[b]);
    same = same && bits(traced.point_db) == bits(point) &&
           bits(journaled.point_db) == bits(point) &&
           traced.probes.size() == journaled.probes.size() && traced.probes.size() >= 2;
    for (std::size_t p = 0; same && p < traced.probes.size(); ++p) {
      same = same_stats(traced.probes[p].stats, journaled.probes[p]);
    }
    for (const TracedPoint& probe : traced.probes) lt.add(probe.layers);
  }
  check(same, "bisect_point: traced bisections equal CampaignRunner's points and every probe");
  check_rows(lt, "bisect_point");
  journal.close();
  std::filesystem::remove(path);
}

}  // namespace

int main() {
  runtime::ThreadPool pool(kThreads);
  point_workload("jammed_sweep", pool);
  point_workload("clean_link", pool);
  bisect_workload(pool);
  check(!make_workload("no_such_workload", 1).has_value(), "unknown workload is refused");
  return g_failures == 0 ? 0 : 1;
}
