#include "jammer/noise_jammer.hpp"

#include <algorithm>
#include <bit>
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
    const dsp::cvec taps = dsp::to_complex(
        dsp::design_lowpass(num_taps | 1, bandwidth_frac / 2.0, dsp::Window::blackman));
    // The smallest FFT whose block is at least as long as the history:
    // 4096 (block 2048) for the default 2049 taps.
    const std::size_t fft_size = std::bit_ceil(std::max<std::size_t>(2 * (taps.size() - 1), 2));
    stream_.emplace(dsp::ConvolverPlan::make(dsp::cspan{taps}, fft_size));
    // Prime the history with noise, so the stream has been running before
    // the first burst; no block is buffered yet.
    noise_.add_to(stream_->history(), 1.0);
    cursor_ = stream_->block().size();
  }
}

dsp::cvec NoiseJammer::generate(std::size_t n) {
  if (!stream_.has_value()) return noise_.generate(n, 1.0);

  dsp::cvec out(n);
  const dsp::cspan_mut block = stream_->block();
  for (std::size_t done = 0; done < n;) {
    if (cursor_ == block.size()) {
      std::fill(block.begin(), block.end(), dsp::cf{0.0F, 0.0F});
      noise_.add_to(block, 1.0);
      stream_->step();
      cursor_ = 0;
    }
    const std::size_t take = std::min(n - done, block.size() - cursor_);
    std::copy_n(block.begin() + static_cast<std::ptrdiff_t>(cursor_), take,
                out.begin() + static_cast<std::ptrdiff_t>(done));
    cursor_ += take;
    done += take;
  }
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
