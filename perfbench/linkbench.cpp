/// @file linkbench.cpp
/// The link benchmark binary. Runs one workload from a single process on
/// min(nproc, 4) pool threads and 16 shards, and prints one raw JSON line
/// last; perfbench/run.py builds it, adds the reference checks and prints
/// the benchmark's result line.
///
///   linkbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
///             [--workdir DIR] [--setup-only]
///
/// --trace 0: end-to-end metrics, wall clock, tracing off. Units (a sweep,
///   a batch, or a bisection) repeat until --seconds is spent; rates are
///   medians over units.
/// --trace 1: each unit runs untraced through the runtime, then again
///   through the outside-in traced loop (link_layers.hpp); per-layer
///   metrics and a stage table come from the traced runs.
/// --setup-only: set up, print {"setup_s": ...} and exit.

#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "dsp/simd/simd.hpp"
#include "link_layers.hpp"
#include "runtime/checkpoint_journal.hpp"
#include "runtime/parallel_link_runner.hpp"

namespace bhss::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

constexpr std::uint64_t kWarmupSeed = 0;

double seconds_since(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

// ----------------------------------------------------------- build flavour

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif
#else
constexpr bool kSanitized = false;
#endif

#if defined(NDEBUG)
constexpr bool kAssertsOff = true;
#else
constexpr bool kAssertsOff = false;
#endif

/// Numbers count only from an optimized, uninstrumented build.
bool release_flavour(std::string& why) {
  const std::string type = PERFBENCH_BUILD_TYPE;
  if (type != "Release" && type != "RelWithDebInfo") why = "build type '" + type + "'";
  if (!kAssertsOff) why = "NDEBUG not defined";
  if (kSanitized) why = "sanitizer build";
  if (PERFBENCH_INSTRUMENTED != 0) why = "instrumented (coverage/sanitizer flags)";
  return why.empty();
}

// -------------------------------------------------------------------- JSON

/// Flat JSON object writer; doubles keep all 17 significant digits.
class Json {
 public:
  Json& num(const std::string& key, double v) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return raw(key, buf);
  }
  Json& integer(const std::string& key, std::uint64_t v) { return raw(key, std::to_string(v)); }
  Json& boolean(const std::string& key, bool v) { return raw(key, v ? "true" : "false"); }
  Json& str(const std::string& key, const std::string& v) {
    return raw(key, std::string(1, '"').append(v).append(1, '"'));
  }
  Json& raw(const std::string& key, const std::string& json) {
    if (!body_.empty()) body_ += ',';
    body_.append(1, '"').append(key).append("\":").append(json);
    return *this;
  }
  [[nodiscard]] std::string text() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

// -------------------------------------------------------------- host facts

std::size_t nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return static_cast<std::size_t>(std::max(CPU_COUNT(&set), 1));
  }
  return std::max<std::size_t>(std::thread::hardware_concurrency(), 1);
}

/// Samples the resident set (/proc/self/statm) every few milliseconds on
/// its own thread. take_peak_mb() returns the largest sample since the
/// previous call, so each unit gets its own peak: the peak of one unit is
/// steadier than the process high-water mark, which only ever grows with
/// the number of coinciding per-thread allocation peaks.
class RssSampler {
 public:
  RssSampler() : page_kib_(static_cast<double>(sysconf(_SC_PAGESIZE)) / 1024.0) {
    thread_ = std::thread([this] {
      while (!stop_.load()) {
        sample();
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
    });
  }
  ~RssSampler() {
    stop_.store(true);
    thread_.join();
  }
  RssSampler(const RssSampler&) = delete;
  RssSampler& operator=(const RssSampler&) = delete;

  [[nodiscard]] double take_peak_mb() {
    sample();
    return static_cast<double>(peak_pages_.exchange(0)) * page_kib_ / 1024.0;
  }

 private:
  void sample() {
    std::ifstream statm("/proc/self/statm");
    std::uint64_t size = 0;
    std::uint64_t resident = 0;
    if (!(statm >> size >> resident)) return;
    std::uint64_t peak = peak_pages_.load();
    while (resident > peak && !peak_pages_.compare_exchange_weak(peak, resident)) {
    }
  }

  double page_kib_;
  std::atomic<std::uint64_t> peak_pages_{0};
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// A bisection against an expected point and probe sequence, bit for bit.
bool same_bisection(const ReplayedBisection& b, double point_db,
                    const std::vector<core::LinkStats>& probes) {
  if (bits(b.point_db) != bits(point_db) || b.probes.size() != probes.size()) return false;
  for (std::size_t p = 0; p < probes.size(); ++p) {
    if (!same_stats(b.probes[p], probes[p])) return false;
  }
  return true;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// -------------------------------------------------------------------- args

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool setup_only = false;
  std::string workdir = ".bench_build/work";
};

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--setup-only") {
      a.setup_only = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string v = argv[++i];
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = std::stoull(v);
    } else if (flag == "--seconds") {
      a.seconds = std::stod(v);
    } else if (flag == "--trace") {
      a.trace = v == "1";
    } else if (flag == "--workdir") {
      a.workdir = v;
    } else {
      return false;
    }
  }
  return !a.workload.empty();
}

// --------------------------------------------------------- workload runner

/// One untraced unit: its wall time and the LinkStats of each point.
struct UnitResult {
  double wall_s = 0.0;
  std::vector<core::LinkStats> points;         ///< per data point, or every probe in order
  std::vector<ReplayedBisection> bisections;  ///< bisections only, one per point
};

/// Runs untraced units through the public runtime entry points:
/// ParallelLinkRunner::run per data point, or CampaignRunner::
/// min_snr_for_per with a checkpoint journal for a bisecting workload.
class WorkloadRunner {
 public:
  WorkloadRunner(const Workload& w, std::size_t threads, const std::string& workdir)
      : w_(w), threads_(threads) {
    if (!w_.bisect) {
      runner_ = std::make_unique<runtime::ParallelLinkRunner>(
          runtime::RunnerOptions{.n_threads = threads, .n_shards = kShards});
      return;
    }
    std::filesystem::create_directories(workdir);
    journal_path_ = workdir + "/" + w_.name + ".journal";
    journal_ = std::make_unique<runtime::CheckpointJournal>();
    journal_->open(journal_path_, "perfbench." + w_.name, 1, "perfbench", false);
    campaign_ = make_campaign(journal_.get());
  }

  /// Set-up warm-up: one packet per shard of every point in `points`,
  /// through the runner and pool the timed units use. It fills the
  /// process-wide FFT plan cache, builds each point's low-pass bank and
  /// jammer shaper, and touches every pool thread's scratch and heap, so
  /// the first timed unit starts warm.
  void warm_up(const std::vector<core::SimConfig>& points) {
    for (std::size_t i = 0; i < points.size(); ++i) {
      core::SimConfig cfg = points[i];
      cfg.n_packets = kShards;
      const core::LinkStats s =
          w_.bisect ? campaign_->run_point("warmup." + std::to_string(i), cfg) : runner_->run(cfg);
      if (s.packets != kShards) throw std::runtime_error("warm-up packets were not simulated");
    }
    journal_size(setup_records_, setup_bytes_);
  }

  /// One untraced unit, timed by wall clock.
  UnitResult run_unit() {
    UnitResult u;
    const Clock::time_point start = Clock::now();
    if (w_.bisect) {
      std::vector<double> point_db;
      for (std::size_t p = 0; p < w_.points.size(); ++p) {
        point_db.push_back(campaign_->min_snr_for_per(unit_id(units_, p), w_.points[p]));
      }
      u.wall_s = seconds_since(start);
      // Untimed: walk the same probes again; every one comes from the
      // journal, which hands back the LinkStats the bisection only used.
      const std::size_t before = shards_run_.load();
      for (std::size_t p = 0; p < w_.points.size(); ++p) {
        u.bisections.push_back(replay_bisection(*campaign_, unit_id(units_, p), w_.points[p]));
        const ReplayedBisection& r = u.bisections.back();
        replay_pure_ = replay_pure_ && bits(r.point_db) == bits(point_db[p]);
        u.points.insert(u.points.end(), r.probes.begin(), r.probes.end());
      }
      replay_pure_ = replay_pure_ && shards_run_.load() == before;
    } else {
      for (const core::SimConfig& cfg : w_.points) u.points.push_back(runner_->run(cfg));
      u.wall_s = seconds_since(start);
    }
    ++units_;
    return u;
  }

  /// Bisections only: reopen the journal from disk with resume, re-walk
  /// every unit and demand the same point and probe stats byte for byte,
  /// with no shard simulated again.
  bool resume_reproduces(const std::vector<UnitResult>& units) {
    if (!w_.bisect) return true;
    journal_->close();
    runtime::CheckpointJournal resumed;
    resumed.open(journal_path_, "perfbench." + w_.name, 1, "perfbench", true);
    const std::unique_ptr<runtime::CampaignRunner> campaign = make_campaign(&resumed);
    const std::size_t before = shards_run_.load();
    bool ok = replay_pure_;
    for (std::size_t k = 0; k < units.size(); ++k) {
      for (std::size_t p = 0; p < w_.points.size(); ++p) {
        ok = ok && same_bisection(replay_bisection(*campaign, unit_id(k, p), w_.points[p]),
                                  units[k].bisections[p].point_db,
                                  units[k].bisections[p].probes);
      }
    }
    return ok && shards_run_.load() == before;
  }

  /// Journal records and bytes the timed units appended (0 without one).
  void unit_journal_size(std::uint64_t& records, std::uint64_t& bytes) const {
    journal_size(records, bytes);
    records -= setup_records_;
    bytes -= setup_bytes_;
  }

  void remove_journal() {
    if (journal_path_.empty()) return;
    journal_->close();
    std::filesystem::remove(journal_path_);
  }

  [[nodiscard]] std::size_t threads() const noexcept { return threads_; }

 private:
  std::unique_ptr<runtime::CampaignRunner> make_campaign(runtime::CheckpointJournal* journal) {
    auto c = std::make_unique<runtime::CampaignRunner>(
        runtime::CampaignOptions{.n_threads = threads_, .n_shards = kShards}, journal);
    c->shard_hook = [this](std::size_t, std::size_t) { shards_run_.fetch_add(1); };
    return c;
  }

  /// Lines and bytes of the journal file; 0 without a journal.
  void journal_size(std::uint64_t& records, std::uint64_t& bytes) const {
    records = 0;
    bytes = 0;
    if (journal_path_.empty()) return;
    std::ifstream in(journal_path_);
    std::string line;
    while (std::getline(in, line)) ++records;
    bytes = std::filesystem::file_size(journal_path_);
  }

  static std::string unit_id(std::size_t unit, std::size_t point) {
    char id[64];
    std::snprintf(id, sizeof(id), "bisect.u%zu.b%zu", unit, point);
    return id;
  }

  const Workload& w_;
  std::size_t threads_;
  std::unique_ptr<runtime::ParallelLinkRunner> runner_;
  std::string journal_path_;
  std::unique_ptr<runtime::CheckpointJournal> journal_;
  std::unique_ptr<runtime::CampaignRunner> campaign_;
  std::atomic<std::size_t> shards_run_{0};
  std::size_t units_ = 0;
  bool replay_pure_ = true;
  std::uint64_t setup_records_ = 0;  ///< journal size after the warm-up
  std::uint64_t setup_bytes_ = 0;
};

/// Units of one run must agree bit for bit: the seed fixes every input.
bool units_agree(const std::vector<UnitResult>& units) {
  for (const UnitResult& u : units) {
    if (u.points.size() != units.front().points.size()) return false;
    for (std::size_t p = 0; p < u.points.size(); ++p) {
      if (!same_stats(u.points[p], units.front().points[p])) return false;
    }
    for (std::size_t b = 0; b < u.bisections.size(); ++b) {
      if (bits(u.bisections[b].point_db) != bits(units.front().bisections[b].point_db)) {
        return false;
      }
    }
  }
  return true;
}

/// Counts the reference check in run.py needs: pooled PER/SER of the
/// first unit, or for bisections their first probes (at 45 dB) and points.
std::string check_stats_json(const Workload& w, const UnitResult& u) {
  std::vector<core::LinkStats> checked = u.points;
  std::string points_db;
  if (w.bisect) {
    checked.clear();
    for (const ReplayedBisection& b : u.bisections) {
      checked.push_back(b.probes.front());
      char buf[40];
      std::snprintf(buf, sizeof(buf), "%s%.17g", points_db.empty() ? "" : ",", b.point_db);
      points_db += buf;
    }
  }
  const core::LinkStats s = core::merge_link_stats(checked, w.points.front().payload_len);
  Json j;
  j.integer("packets", s.packets).integer("ok", s.ok);
  j.integer("symbol_errors", s.symbol_errors).integer("total_symbols", s.total_symbols);
  if (w.bisect) j.raw("points_db", "[" + points_db + "]");
  return j.text();
}

std::string stamp_json(const Args& a, std::size_t threads) {
  Json j;
  j.integer("nproc", nproc()).integer("pool_threads", threads).integer("shards", kShards);
  j.str("build_type", PERFBENCH_BUILD_TYPE).str("simd_isa", dsp::simd::active_isa());
  j.integer("seed", a.seed);
  return j.text();
}

// --------------------------------------------------------------- the runs

/// Packets asked for, and those missing from the merges: a quarantined
/// shard's packets never reach its point's LinkStats.
struct PacketCount {
  std::uint64_t attempted = 0;
  std::uint64_t missing = 0;
};

PacketCount count_packets(const Workload& w, const std::vector<UnitResult>& units) {
  PacketCount c;
  const std::size_t asked = w.points.front().n_packets;
  for (const UnitResult& u : units) {
    for (const core::LinkStats& s : u.points) {
      c.attempted += asked;
      c.missing += asked - std::min(asked, s.packets);
    }
  }
  return c;
}

int run_timed(const Args& a, const Workload& w, WorkloadRunner& bench, double setup_s) {
  std::vector<UnitResult> units;
  RssSampler rss;
  std::vector<double> rss_mb;
  static_cast<void>(rss.take_peak_mb());  // drop the set-up peak
  const Clock::time_point phase = Clock::now();
  // Repeat whole units; stop before a unit would run past --seconds.
  while (units.empty() || seconds_since(phase) + units.back().wall_s <= a.seconds) {
    units.push_back(bench.run_unit());
    rss_mb.push_back(rss.take_peak_mb());
  }

  std::vector<double> pps;
  std::vector<double> rtf;
  std::vector<double> point_s;
  for (const UnitResult& u : units) {
    const core::LinkStats s = core::merge_link_stats(u.points, w.points.front().payload_len);
    pps.push_back(static_cast<double>(s.packets) / u.wall_s);
    rtf.push_back(s.airtime_s / u.wall_s);
    point_s.push_back(u.wall_s / static_cast<double>(w.points.size()));
    std::printf("unit %zu: %zu packets in %.4f s, %.1f packets/s, peak %.2f MB\n", pps.size() - 1,
                s.packets, u.wall_s, pps.back(), rss_mb[pps.size() - 1]);
  }
  const bool deterministic = units_agree(units);
  const bool resumed = bench.resume_reproduces(units);
  bench.remove_journal();
  const PacketCount t = count_packets(w, units);

  std::printf("%s: %zu units in %.2f s, median %.1f packets/s, %.4fx real time, %.3f s/point\n",
              w.name.c_str(), units.size(), seconds_since(phase), median(pps), median(rtf),
              median(point_s));

  Json metrics;
  metrics.num("setup_s", setup_s).num("packets_per_s", median(pps));
  metrics.num("realtime_factor", median(rtf)).num("point_s", median(point_s));
  metrics.num("peak_rss_mb", median(rss_mb));
  Json checks;
  checks.boolean("units_deterministic", deterministic);
  if (w.bisect) checks.boolean("resume_byte_identical", resumed);
  Json out;
  out.str("workload", w.name).integer("trace", 0).integer("units", units.size());
  out.integer("attempted", t.attempted).integer("missing", t.missing);
  out.raw("stamp", stamp_json(a, bench.threads())).raw("metrics", metrics.text());
  out.raw("checks", checks.text()).raw("check_stats", check_stats_json(w, units.front()));
  std::printf("%s\n", out.text().c_str());
  return 0;
}

/// One row of the stage table: a layer and its seconds summed over packets.
struct Row {
  const char* name;
  double seconds;
};

void print_stage_table(const Workload& w, const LayerTotals& lt, const std::vector<Row>& rows,
                       std::size_t threads) {
  const double pkts = static_cast<double>(lt.packets);
  const double wall_ms = lt.loop_s / pkts * 1e3;
  std::printf("stage budget: %s, traced loop, %llu packets on %zu threads (per packet)\n",
              w.name.c_str(), static_cast<unsigned long long>(lt.packets), threads);
  std::printf("  %-22s %10s %8s\n", "stage", "ms/pkt", "share");
  double sum = 0.0;
  for (const Row& r : rows) {
    const double ms = r.seconds / pkts * 1e3;
    sum += ms;
    std::printf("  %-22s %10.4f %7.2f%%\n", r.name, ms, 100.0 * ms / wall_ms);
  }
  std::printf("  %-22s %10.4f %7.2f%%\n", "sum of rows", sum, 100.0 * sum / wall_ms);
  std::printf("  %-22s %10.4f\n", "packet wall", wall_ms);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

int run_traced(const Args& a, const Workload& w, WorkloadRunner& bench) {
  runtime::ThreadPool traced_pool(bench.threads());
  std::vector<UnitResult> units;
  LayerTotals lt;
  obs::ShardTelemetry tel;
  double busy_s = 0.0;
  double fork_join_s = 0.0;
  std::vector<double> imbalance;
  std::vector<double> overhead;
  bool faithful = true;

  const auto add_point = [&](const TracedPoint& p) {
    lt.add(p.layers);
    tel.metrics.merge_from(p.telemetry.metrics);
    tel.trace.merge_scopes_from(p.telemetry.trace);
    busy_s += p.busy_s;
    fork_join_s += p.wall_s;
    const double mean_shard = p.busy_s / static_cast<double>(p.layers.shards);
    imbalance.push_back(ratio(p.max_shard_s, mean_shard));
  };

  const Clock::time_point phase = Clock::now();
  double pair_s = 0.0;  // last untraced + traced unit
  while (units.empty() || seconds_since(phase) + pair_s <= a.seconds) {
    const Clock::time_point pair_start = Clock::now();
    units.push_back(bench.run_unit());
    const UnitResult& u = units.back();
    const Clock::time_point start = Clock::now();
    if (w.bisect) {
      for (std::size_t p = 0; p < w.points.size(); ++p) {
        const TracedBisection b = run_traced_bisection(traced_pool, w.points[p]);
        std::vector<core::LinkStats> probes;
        for (const TracedPoint& probe : b.probes) {
          probes.push_back(probe.stats);
          add_point(probe);
        }
        faithful = faithful && same_bisection(u.bisections[p], b.point_db, probes);
      }
    } else {
      for (std::size_t p = 0; p < w.points.size(); ++p) {
        const TracedPoint tp = run_traced_point(traced_pool, w.points[p]);
        faithful = faithful && same_stats(tp.stats, u.points[p]);
        add_point(tp);
      }
    }
    overhead.push_back(seconds_since(start) / u.wall_s - 1.0);
    pair_s = seconds_since(pair_start);
  }

  std::uint64_t journal_records = 0;
  std::uint64_t journal_bytes = 0;
  bench.unit_journal_size(journal_records, journal_bytes);
  const bool deterministic = units_agree(units);
  const bool resumed = bench.resume_reproduces(units);
  bench.remove_journal();
  const double rows_error = rows_vs_wall_error(lt);
  const PacketCount t = count_packets(w, units);

  const auto scope_s = [&](obs::TraceScopeId id) {
    return static_cast<double>(tel.trace.scope(id).total_ns) * 1e-9;
  };
  const double choose_s = scope_s(obs::TraceScopeId::choose_filter);
  const double apply_s = scope_s(obs::TraceScopeId::filter_apply);
  const double acquire_s = scope_s(obs::TraceScopeId::preamble_acquire);
  const double carrier_s = scope_s(obs::TraceScopeId::carrier_track);
  const double despread_s = scope_s(obs::TraceScopeId::demod_despread);
  const double rx_unattributed_s =
      lt.rx_s - choose_s - apply_s - acquire_s - carrier_s - despread_s;

  const std::vector<Row> rows = {
      {"tx", lt.tx_s},
      {"jammer", lt.jammer_s},
      {"channel", lt.channel_s},
      {"rx.choose_filter", choose_s},
      {"rx.filter_apply", apply_s},
      {"rx.preamble_acquire", acquire_s},
      {"rx.carrier_track", carrier_s},
      {"rx.demod_despread", despread_s},
      {"rx.unattributed", rx_unattributed_s},
      {"link.unattributed", lt.link_unattributed_s},
  };
  print_stage_table(w, lt, rows, bench.threads());

  const obs::LinkIds& ids = obs::link_ids();
  const auto count = [&](std::size_t id) {
    return static_cast<double>(tel.metrics.counter(id));
  };
  const double pkts = static_cast<double>(lt.packets);
  const double hops = count(ids.hops);
  const double lookups = count(ids.filter_cache_hits) + count(ids.filter_cache_misses);
  const auto ms_per_pkt = [&](double s) { return s / pkts * 1e3; };
  const auto msps = [](double samples, double s) { return s > 0.0 ? samples / s * 1e-6 : 0.0; };
  const double n_units = static_cast<double>(units.size());

  Json m;
  m.num("tx.ms_per_pkt", ms_per_pkt(lt.tx_s));
  m.num("jammer.ms_per_pkt", ms_per_pkt(lt.jammer_s));
  m.num("jammer.msps", msps(static_cast<double>(lt.jammer_samples), lt.jammer_s));
  m.num("channel.ms_per_pkt", ms_per_pkt(lt.channel_s));
  m.num("channel.msps", msps(static_cast<double>(lt.capture_samples), lt.channel_s));
  m.num("rx.ms_per_pkt", ms_per_pkt(lt.rx_s));
  m.num("rx.msps", msps(static_cast<double>(lt.capture_samples), lt.rx_s));
  m.num("rx.choose_filter.ms_per_pkt", ms_per_pkt(choose_s));
  m.num("rx.filter_apply.ms_per_pkt", ms_per_pkt(apply_s));
  m.num("rx.design_cache.hit_ratio", ratio(count(ids.filter_cache_hits), lookups));
  m.num("rx.filter.none_frac", ratio(count(ids.filter_none), hops));
  m.num("rx.filter.lowpass_frac", ratio(count(ids.filter_lowpass), hops));
  m.num("rx.filter.excision_frac", ratio(count(ids.filter_excision), hops));
  m.num("rx.degenerate_psd_frac", ratio(count(ids.degenerate_psd), hops));
  m.num("rx.carrier_track.ms_per_pkt", ms_per_pkt(carrier_s));
  m.num("rx.unattributed.ms_per_pkt", ms_per_pkt(rx_unattributed_s));
  m.num("rx.preamble_acquire.ms_per_pkt", ms_per_pkt(acquire_s));
  m.num("rx.sync.attempts_per_pkt", count(ids.sync_attempts) / pkts);
  m.num("rx.sync.lock_ratio", ratio(count(ids.sync_locks), count(ids.sync_attempts)));
  m.num("rx.demod_despread.ms_per_pkt", ms_per_pkt(despread_s));
  m.num("rx.hops_per_pkt", hops / pkts);
  m.num("link.unattributed.ms_per_pkt", ms_per_pkt(lt.link_unattributed_s));
  m.num("runtime.shard_setup_ms", lt.shard_setup_s / static_cast<double>(lt.shards) * 1e3);
  m.num("runtime.busy_frac",
        ratio(busy_s, static_cast<double>(bench.threads()) * fork_join_s));
  m.num("runtime.shard_imbalance", median(imbalance));
  m.num("runtime.journal.records", static_cast<double>(journal_records) / n_units);
  m.num("runtime.journal.bytes", static_cast<double>(journal_bytes) / n_units);
  m.num("obs.trace_overhead_frac", median(overhead));

  Json checks;
  checks.boolean("units_deterministic", deterministic);
  checks.boolean("traced_stats_bit_identical", faithful);
  checks.boolean("rows_within_5pct_of_wall", rows_error <= 0.05);
  if (w.bisect) checks.boolean("resume_byte_identical", resumed);
  Json out;
  out.str("workload", w.name).integer("trace", 1).integer("units", units.size());
  out.integer("attempted", t.attempted).integer("missing", t.missing);
  out.num("rows_vs_wall_error", rows_error);
  out.raw("stamp", stamp_json(a, bench.threads())).raw("metrics", m.text());
  out.raw("checks", checks.text()).raw("check_stats", check_stats_json(w, units.front()));
  std::printf("%s\n", out.text().c_str());
  return 0;
}

}  // namespace
}  // namespace bhss::perfbench

int main(int argc, char** argv) {
  using namespace bhss;
  using namespace bhss::perfbench;
  const Clock::time_point process_start = Clock::now();

  Args args;
  try {
    if (!parse_args(argc, argv, args)) {
      std::fprintf(stderr,
                   "usage: linkbench --workload <name> --seed <n> --seconds <s> --trace <0|1>\n"
                   "                 [--workdir DIR] [--setup-only]\n");
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "linkbench: bad argument: %s\n", e.what());
    return 2;
  }
  std::string why;
  if (!release_flavour(why)) {
    std::fprintf(stderr, "linkbench: refusing to report numbers from this build: %s\n",
                 why.c_str());
    return 3;
  }
  const std::optional<Workload> w = make_workload(args.workload, args.seed);
  if (!w) {
    std::fprintf(stderr, "linkbench: unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }

  try {
    WorkloadRunner bench(*w, std::min<std::size_t>(nproc(), 4), args.workdir);
    // The warm-up packets come from a fixed seed, so set-up time does not
    // depend on --seed.
    bench.warm_up(make_workload(args.workload, kWarmupSeed)->points);
    const double setup_s = seconds_since(process_start);

    if (args.setup_only) {
      bench.remove_journal();
      std::printf("%s\n", Json().num("setup_s", setup_s).text().c_str());
      return 0;
    }
    return args.trace ? run_traced(args, *w, bench)
                      : run_timed(args, *w, bench, setup_s);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "linkbench: %s\n", e.what());
    return 1;
  }
}
