#include "jammer/noise_jammer.hpp"

#include <cmath>
#include <stdexcept>

#include "core/contracts.hpp"
#include "dsp/utils.hpp"

namespace bhss::jammer {

NoiseJammer::NoiseJammer(double bandwidth_frac, std::uint64_t seed, std::size_t num_taps)
    : bandwidth_frac_(bandwidth_frac), noise_(seed) {
  BHSS_REQUIRE(bandwidth_frac > 0.0 && bandwidth_frac <= 1.0,
               "NoiseJammer: bandwidth_frac must be in (0, 1]");
  if (bandwidth_frac < 1.0) {
    // Low-pass at half the two-sided bandwidth; complex baseband noise then
    // occupies [-bw/2, +bw/2].
    const dsp::fvec taps =
        dsp::design_lowpass(num_taps | 1, bandwidth_frac / 2.0, dsp::Window::blackman);
    shaper_.emplace(dsp::cspan{dsp::to_complex(taps)});
  }
}

dsp::cvec NoiseJammer::generate(std::size_t n) {
  if (!shaper_.has_value()) return noise_.generate(n, 1.0);

  // Generate with lead-in so the filter transient does not leave a quiet
  // gap at the start of the jamming burst.
  const std::size_t lead = shaper_->num_taps();
  dsp::cvec raw = noise_.generate(n + lead, 1.0);
  dsp::cvec shaped = shaper_->filter(raw);
  dsp::cvec out(shaped.begin() + static_cast<std::ptrdiff_t>(lead), shaped.end());
  dsp::scale_to_power(out, 1.0);
  return out;
}

std::vector<NoiseJammer> noise_bank(std::span<const double> bandwidths, std::uint64_t base_seed) {
  std::vector<NoiseJammer> bank;
  bank.reserve(bandwidths.size());
  for (std::size_t i = 0; i < bandwidths.size(); ++i) {
    bank.emplace_back(bandwidths[i], base_seed + i + 1);
  }
  return bank;
}

std::size_t closest_bandwidth(std::span<const double> bandwidths, double bw) {
  BHSS_REQUIRE(!bandwidths.empty(), "closest_bandwidth: need at least one bandwidth");
  std::size_t best = 0;
  double best_dist = std::abs(std::log(bandwidths[0]) - std::log(bw));
  for (std::size_t i = 1; i < bandwidths.size(); ++i) {
    const double d = std::abs(std::log(bandwidths[i]) - std::log(bw));
    if (d < best_dist) {
      best_dist = d;
      best = i;
    }
  }
  return best;
}

}  // namespace bhss::jammer
