#include "jammer/reactive_jammer.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/contracts.hpp"

namespace bhss::jammer {

ReactiveJammer::ReactiveJammer(std::vector<double> available_bws, std::size_t reaction_delay,
                               std::uint64_t seed, std::size_t estimation_samples)
    : available_bws_(std::move(available_bws)),
      reaction_delay_(reaction_delay),
      estimation_samples_(estimation_samples) {
  BHSS_REQUIRE(!available_bws_.empty(), "ReactiveJammer: need at least one bandwidth");
  sources_ = noise_bank(available_bws_, seed * 0xD1B54A32D192ED03ULL);
  current_bw_index_ = static_cast<std::size_t>(
      std::distance(available_bws_.begin(),
                    std::max_element(available_bws_.begin(), available_bws_.end())));
}

dsp::cvec ReactiveJammer::generate(std::span<const ObservedHop> hops, std::size_t n) {
  for (std::size_t i = 1; i < hops.size(); ++i) {
    BHSS_REQUIRE(hops[i].start >= hops[i - 1].start,
                 "ReactiveJammer: observed hops must be sorted ascending by start");
  }

  // The last matched bandwidth persists until the first delayed
  // observation of this transmission kicks in.
  const std::size_t idle = current_bw_index_;

  // Build the jammer's own switching timeline: each *estimable* hop takes
  // effect estimation_samples + reaction_delay samples after it started.
  // A hop that dwells for fewer than estimation_samples ends before the
  // estimate completes, so the jammer never reacts to it at all — the
  // degenerate dwell-shorter-than-latency case resolves deterministically
  // to "unseen" instead of an instant reaction.
  struct Segment {
    std::size_t start;
    std::size_t bw_index;
  };
  std::vector<Segment> timeline;
  timeline.push_back({0, idle});
  std::size_t last_estimated = idle;
  bool any_estimated = false;
  for (std::size_t i = 0; i < hops.size(); ++i) {
    const std::size_t hop_end = (i + 1 < hops.size()) ? hops[i + 1].start : n;
    const std::size_t dwell = hop_end > hops[i].start ? hop_end - hops[i].start : 0;
    if (dwell < estimation_samples_) continue;
    const std::size_t bw_index = closest_bandwidth(available_bws_, hops[i].bandwidth_frac);
    timeline.push_back({hops[i].start + estimation_samples_ + reaction_delay_, bw_index});
    last_estimated = bw_index;
    any_estimated = true;
  }
  std::stable_sort(timeline.begin(), timeline.end(),
                   [](const Segment& a, const Segment& b) { return a.start < b.start; });

  dsp::cvec out;
  out.reserve(n);
  for (std::size_t i = 0; i < timeline.size() && out.size() < n; ++i) {
    const std::size_t seg_start = std::max(timeline[i].start, out.size());
    const std::size_t seg_end =
        (i + 1 < timeline.size()) ? std::min<std::size_t>(timeline[i + 1].start, n) : n;
    if (seg_end <= seg_start) continue;
    const dsp::cvec seg = sources_[timeline[i].bw_index].generate(seg_end - seg_start);
    out.insert(out.end(), seg.begin(), seg.end());
  }
  if (out.size() < n) {
    const dsp::cvec tail = sources_[idle].generate(n - out.size());
    out.insert(out.end(), tail.begin(), tail.end());
  }
  // The jammer eventually reacts to the last thing it *finished
  // estimating*, even when that reaction lands after this transmission
  // ended (it then carries the stale bandwidth into the next one). Hops
  // it never estimated leave no residue.
  if (any_estimated) current_bw_index_ = last_estimated;
  return out;
}

}  // namespace bhss::jammer
