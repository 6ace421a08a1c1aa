#include "jammer/hopping_jammer.hpp"

#include <stdexcept>

#include "core/contracts.hpp"

namespace bhss::jammer {

HoppingJammer::HoppingJammer(std::vector<double> bandwidth_fracs,
                             std::vector<double> probabilities, std::size_t dwell_samples,
                             std::uint64_t seed)
    : bandwidth_fracs_(std::move(bandwidth_fracs)),
      probabilities_(std::move(probabilities)),
      dwell_samples_(dwell_samples),
      rng_(seed) {
  BHSS_REQUIRE(!bandwidth_fracs_.empty() && bandwidth_fracs_.size() == probabilities_.size(),
               "HoppingJammer: bandwidths/probabilities size mismatch");
  BHSS_REQUIRE(dwell_samples_ != 0, "HoppingJammer: dwell must be > 0");
  sources_ = noise_bank(bandwidth_fracs_, seed * 0x9E3779B97F4A7C15ULL);
}

dsp::cvec HoppingJammer::generate(std::size_t n) {
  dsp::cvec out;
  out.reserve(n);
  last_hops_.clear();
  while (out.size() < n) {
    const std::size_t idx = rng_.pick(probabilities_);
    last_hops_.push_back(bandwidth_fracs_[idx]);
    const std::size_t chunk = std::min(dwell_samples_, n - out.size());
    const dsp::cvec seg = sources_[idx].generate(chunk);
    out.insert(out.end(), seg.begin(), seg.end());
  }
  return out;
}

}  // namespace bhss::jammer
