#include "jammer/estimating_jammer.hpp"

#include <algorithm>

#include "core/contracts.hpp"

namespace bhss::jammer {

EstimatingJammer::EstimatingJammer(std::vector<double> available_bws, std::size_t estimation_hops,
                                   std::uint64_t seed)
    : available_bws_(std::move(available_bws)), estimation_hops_(estimation_hops) {
  BHSS_REQUIRE(!available_bws_.empty(), "EstimatingJammer: need at least one bandwidth");
  BHSS_REQUIRE(estimation_hops_ >= 1, "EstimatingJammer: need at least one observation");
  sources_ = noise_bank(available_bws_, seed * 0xD1B54A32D192ED03ULL);
  counts_.assign(available_bws_.size(), 0);
  // Until the histogram matures, spend the budget on the widest band —
  // the same prior the plain reactive jammer starts from.
  target_ = static_cast<std::size_t>(
      std::distance(available_bws_.begin(),
                    std::max_element(available_bws_.begin(), available_bws_.end())));
}

dsp::cvec EstimatingJammer::generate(std::span<const ObservedHop> hops, std::size_t n) {
  // Output strictly before updating: this transmission is jammed with the
  // estimate learned from *previous* transmissions only.
  dsp::cvec out = sources_[target_].generate(n);

  for (const ObservedHop& hop : hops) {
    ++counts_[closest_bandwidth(available_bws_, hop.bandwidth_frac)];
  }
  observed_ += hops.size();

  if (observed_ >= estimation_hops_) {
    // Mode of the histogram; ties break to the lowest index so the
    // estimate is a pure function of the observation multiset.
    target_ = static_cast<std::size_t>(
        std::distance(counts_.begin(), std::max_element(counts_.begin(), counts_.end())));
  }
  // Exponential forgetting: once the window holds twice the maturity
  // horizon, halve everything. Keeps the estimator tracking a victim
  // that re-weights its distribution instead of averaging over eras.
  if (observed_ > 2 * estimation_hops_) {
    for (std::uint64_t& c : counts_) c >>= 1U;
    observed_ = 0;
    for (const std::uint64_t c : counts_) observed_ += c;
  }
  return out;
}

}  // namespace bhss::jammer
