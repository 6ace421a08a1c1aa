#pragma once

/// @file link_simulator.hpp
/// End-to-end link experiments: transmitter -> (jammer + AWGN channel) ->
/// receiver, with packet-loss statistics and the paper's "power
/// advantage" measurement procedure (§6.3: the ratio of minimum SNRs
/// needed to stay below 50 % packet loss).

#include <cstdint>
#include <functional>
#include <vector>

#include "adapt/resilience_controller.hpp"
#include "core/receiver.hpp"
#include "core/system_config.hpp"
#include "core/transmitter.hpp"
#include "fault/fault_plan.hpp"
#include "obs/link_obs.hpp"

namespace bhss::core {

/// Which adversary the link faces.
struct JammerSpec {
  enum class Kind {
    none,             ///< thermal noise only
    fixed_bandwidth,  ///< constant-bandwidth Gaussian noise (§6.4.2)
    hopping,          ///< bandwidth-hopping jammer (§6.4.3)
    reactive,         ///< matches the observed bandwidth after a delay (§2)
    tone,             ///< CW tone(s) — the classic excision target [3]-[7]
    swept,            ///< carrier sweeping across the band
    duty_cycle,       ///< pulsed bursts, unit average power
    band_sweep,       ///< shaped-noise band stepping across the channel
    estimating,       ///< learns the hop distribution, jams the mode
  };

  Kind kind = Kind::none;
  double bandwidth_frac = 0.5;       ///< fixed_bandwidth/duty_cycle: fraction of Rs
  std::vector<double> hop_probs;     ///< hopping: distribution over the
                                     ///< system's bandwidth set
  std::size_t dwell_samples = 8192;  ///< hopping: samples per jammer hop
  std::size_t reaction_delay = 4096; ///< reactive: tau in samples
  std::vector<double> tone_freqs = {0.01};  ///< tone: cycles/sample
  double sweep_lo = -0.25;           ///< swept/band_sweep: band edges [cycles/sample]
  double sweep_hi = 0.25;
  std::size_t sweep_samples = 65536; ///< swept: samples per full sweep
  std::size_t duty_period = 16384;   ///< duty_cycle: samples per on/off period
  double duty_fraction = 0.5;        ///< duty_cycle: on-fraction, in (0, 1]
  std::size_t sweep_steps = 8;       ///< band_sweep: dwell positions per sweep
  double sweep_bw_frac = 0.05;       ///< band_sweep: occupied bandwidth per dwell
  std::size_t estimation_hops = 64;  ///< estimating: observations before targeting
  std::size_t estimation_samples = 0;  ///< reactive: sensing latency per hop
                                       ///< (0 = ideal instantaneous sensing)
  std::uint64_t seed = 99;           ///< jammer-private randomness
};

/// One experiment configuration.
struct SimConfig {
  SystemConfig system;
  JammerSpec jammer;
  double snr_db = 20.0;           ///< received signal power / noise power
  double jnr_db = 25.0;           ///< received jammer power / noise power
  std::size_t payload_len = 8;    ///< payload bytes per packet
  std::size_t n_packets = 50;     ///< packets per data point (paper: 10000)
  std::uint64_t channel_seed = 7;
  bool impairments = true;        ///< random delay/phase/CFO per packet
  std::size_t max_delay = 192;    ///< arrival delay range [samples]
  float max_cfo = 2e-4F;          ///< |CFO| bound [rad/sample]

  /// Transient fault matrix applied to every packet capture between the
  /// channel and the receiver. Defaults to all-off. The per-packet fault
  /// sequence is a pure function of (faults.seed, global packet index),
  /// so sharding and thread count cannot change it.
  fault::FaultConfig faults{};

  /// Closed-loop resilience (src/adapt). Off by default. When enabled,
  /// each shard runs its own ResilienceController fed strictly in packet
  /// order, so the adapted stream stays a pure function of
  /// (SimConfig, shard boundaries) — bit-identical at any thread count.
  /// Note the per-shard scope: the detector only sees its own shard's
  /// packets, so detection windows must be small relative to packets per
  /// shard for adaptation to engage in sharded runs.
  adapt::AdaptConfig adapt{};
};

/// The LinkStats fields, in declaration and journal order, as
/// X(type, name, summed). This one list generates the struct members,
/// `merge_link_stats` and the checkpoint journal's S-record codec
/// (runtime/journal_format.cpp), so a field added here reaches all of
/// them. `summed` fields are added across shards; the others are
/// recomputed from the merged totals. Reordering the list changes the
/// journal bytes — a schema bump.
#define BHSS_LINK_STATS_FIELDS(X)                                              \
  X(std::size_t, packets, true)                                                \
  X(std::size_t, detected, true)     /* frames whose preamble was acquired */  \
  X(std::size_t, ok, true)           /* frames that passed the CRC */          \
  X(std::size_t, symbol_errors, true)                                          \
  X(std::size_t, total_symbols, true)                                          \
  X(double, airtime_s, true)         /* total waveform time on air */          \
  X(double, throughput_bps, false)   /* delivered payload bits / airtime */    \
  /* Failure taxonomy (graceful degradation accounting): *how* frames were     \
     lost or saved, not just how many. */                                      \
  X(std::size_t, sync_lost, true)    /* bounded re-acquisition exhausted */    \
  X(std::size_t, reacquired, true)   /* frames acquired on a retry attempt */  \
  X(std::size_t, filter_fallback, true)  /* degenerate-PSD control fallbacks */ \
  X(std::size_t, corrupt_input_rejected, true)  /* NaN/Inf-scrubbed captures */ \
  X(std::size_t, faults_injected, true)  /* fault events applied */            \
  /* Campaign-orchestration taxonomy (runtime::CampaignRunner): shards that    \
     exhausted their watchdog budget and were quarantined (their packets are   \
     missing from the merge — accounted, not silently lost), and shards that   \
     timed out at least once but succeeded on a deterministic retry. */        \
  X(std::size_t, shard_timeout, true)                                          \
  X(std::size_t, shard_retried, true)                                          \
  /* Distributed-fleet taxonomy (runtime::CampaignSupervisor): worker          \
     processes respawned after a crash or hang, exits by signal or nonzero     \
     status, and graceful drains (exit 75). */                                 \
  X(std::size_t, worker_restarts, true)                                        \
  X(std::size_t, worker_crashes, true)                                         \
  X(std::size_t, worker_drains, true)                                          \
  /* Closed-loop adaptation taxonomy (src/adapt). */                           \
  X(std::size_t, adapt_transitions, true)     /* state-machine edges taken */  \
  X(std::size_t, adapt_jam_episodes, true)    /* entries into DEGRADED */      \
  X(std::size_t, adapt_fallbacks, true)       /* entries into FALLBACK */      \
  X(std::size_t, adapt_recoveries, true)      /* returns to NOMINAL */         \
  X(std::size_t, adapt_windows_jammed, true)  /* detector windows tripped */   \
  X(std::size_t, adapt_packets_adapted, true) /* packets under a non-base plan */

/// Aggregated link statistics.
struct LinkStats {
#define BHSS_LINK_STATS_MEMBER(type, name, summed) type name = 0;
  BHSS_LINK_STATS_FIELDS(BHSS_LINK_STATS_MEMBER)
#undef BHSS_LINK_STATS_MEMBER

  [[nodiscard]] double per() const noexcept {
    return packets == 0 ? 1.0
                        : 1.0 - static_cast<double>(ok) / static_cast<double>(packets);
  }
  [[nodiscard]] double ser() const noexcept {
    return total_symbols == 0
               ? 1.0
               : static_cast<double>(symbol_errors) / static_cast<double>(total_symbols);
  }
};

/// Merge shard statistics under the shared merge-order contract:
///
///   The merge is a LEFT FOLD IN ASCENDING SHARD ORDER over a vector
///   whose length equals the run's shard count — shard i's contribution
///   sits at index i, and quarantined shards contribute a
///   default-constructed element at their index (never a shorter
///   vector). `obs::merge_telemetry` merges per-shard telemetry under
///   the *same* contract, and `runtime::merge_point_results`
///   BHSS_REQUIREs that both vectors agree on the length, so the two
///   merges cannot silently diverge.
///
/// `throughput_bps` is recomputed from the merged totals. Deterministic
/// for a fixed shard sequence.
[[nodiscard]] LinkStats merge_link_stats(const std::vector<LinkStats>& shards,
                                         std::size_t payload_len);

/// Seed tuple for one simulation shard. `run_link` derives the default
/// tuple from `SimConfig`; the parallel runner derives one per shard via
/// `SharedRandom::split_seed` so shard streams never overlap.
struct ShardSeeds {
  std::uint64_t channel = 0;      ///< AWGN source
  std::uint64_t impairments = 0;  ///< per-packet delay/phase/CFO draws
  std::uint64_t jammer = 0;       ///< jammer-private randomness
};

/// Run packets [first_packet, first_packet + n_packets) through the link
/// with an explicit seed tuple. Packet indices are global: the payload and
/// the shared-randomness frame counter depend only on the index, so a
/// sharded run transmits exactly the same frames as a sequential one.
/// `o` (optional) is this shard's telemetry — per-packet counters, hop
/// decision traces and stage timings; the simulation itself is
/// bit-identical with or without it.
[[nodiscard]] LinkStats run_link_shard(const SimConfig& cfg, std::size_t first_packet,
                                       std::size_t n_packets, const ShardSeeds& seeds,
                                       const obs::LinkObs& o = {});

/// Run `cfg.n_packets` packets through the link.
[[nodiscard]] LinkStats run_link(const SimConfig& cfg);

/// Packet-error-rate oracle for the bisection below: maps a SimConfig to
/// its measured PER. The default evaluates `run_link(cfg).per()`
/// sequentially; `runtime::ParallelLinkRunner` plugs itself in here so the
/// bisection inherits the parallel speedup.
using PerEvaluator = std::function<double(const SimConfig&)>;

/// Paper §6.3 measurement: the minimum SNR (dB) at which the packet loss
/// stays below `target_per`, found by bisection over [lo_db, hi_db].
/// Returns hi_db when even the highest SNR cannot reach the target.
[[nodiscard]] double min_snr_for_per(const SimConfig& cfg, double target_per = 0.5,
                                     double lo_db = -10.0, double hi_db = 45.0,
                                     double tol_db = 0.5);

/// Same bisection with a custom PER oracle (parallel runner, cached or
/// analytic models, ...).
[[nodiscard]] double min_snr_for_per(const SimConfig& cfg, const PerEvaluator& per_of,
                                     double target_per = 0.5, double lo_db = -10.0,
                                     double hi_db = 45.0, double tol_db = 0.5);

/// Power advantage of configuration `a` over configuration `b` in dB:
/// min-SNR(b) - min-SNR(a). Positive = `a` tolerates that much more
/// jamming for the same error performance.
[[nodiscard]] double power_advantage_db(const SimConfig& a, const SimConfig& b,
                                        double target_per = 0.5);

}  // namespace bhss::core
