#pragma once

/// @file fir.hpp
/// FIR filtering and filter design. This is the heart of the BHSS
/// receiver's pre-despreading interference suppression:
///  * windowed-sinc low-pass design (used against wide-band jammers,
///    eq. (4) of the paper),
///  * frequency-sampling "whitening" excision design (used against
///    narrow-band jammers, eq. (3) of the paper),
///  * an overlap-save FFT convolver that applies either design to a
///    hop's samples.

#include <memory>

#include "core/contracts.hpp"
#include "dsp/fft.hpp"
#include "dsp/types.hpp"
#include "dsp/window.hpp"

namespace bhss::dsp {

/// Immutable, shareable frequency-domain convolution plan: the tap
/// spectrum plus the FFT geometry derived from the tap count. Building
/// one costs a forward FFT of the taps; `FftConvolver`s constructed from
/// the same plan share it by pointer, which is what makes the per-hop
/// filter-design cache effective — a cache hit re-uses the taps spectrum
/// instead of re-transforming the taps every packet.
struct ConvolverPlan {
  std::size_t num_taps;
  std::size_t fft_size;
  std::size_t block_size;
  Fft fft;
  cvec taps_spectrum;

  /// Build a plan for a tap set (non-empty, finite). The FFT size is the
  /// receiver's rule: the smallest power of two >= max(4 * taps, 1024).
  [[nodiscard]] static std::shared_ptr<const ConvolverPlan> make(cspan taps);

  /// Build a plan with an explicit FFT size (a power of two >= taps.size()).
  [[nodiscard]] static std::shared_ptr<const ConvolverPlan> make(cspan taps,
                                                                 std::size_t fft_size);
};

/// Overlap-save block convolver. Produces the same output as direct-form
/// convolution y[n] = sum_k taps[k] * x[n-k] (causal, zero initial state,
/// output length == input length) but in O(N log N) — essential for the
/// high filter orders the paper uses (up to 3181 taps).
///
/// A reusable FFT workspace lives in the convolver, so `filter` performs
/// exactly one allocation (the output buffer) regardless of how many
/// overlap-save blocks the input spans. One convolver therefore serves
/// one thread at a time; give each worker its own instance.
///
/// The convolver is also a continuous stream: `step` filters one block of
/// `block_size` fresh inputs written to `block()` and leaves the matching
/// outputs there, carrying the last num_taps-1 inputs over as history.
/// `filter` is that stream restarted from zero history.
class FftConvolver {
 public:
  explicit FftConvolver(cspan taps);

  /// Construct from a shared plan (e.g. from the filter-design cache);
  /// skips the tap-spectrum FFT entirely.
  explicit FftConvolver(std::shared_ptr<const ConvolverPlan> plan);

  /// Causal filtering of a whole buffer.
  [[nodiscard]] cvec filter(cspan x);

  /// Causal filtering into a caller-provided buffer (resized to x.size());
  /// allocation-free once `out` has capacity.
  BHSS_HOT void filter(cspan x, cvec& out);

  /// The block step of the stream: filters `block()`'s fresh inputs
  /// behind the current history and replaces them with their outputs.
  BHSS_HOT void step();

  /// The next block's fresh inputs before `step`, its outputs after.
  [[nodiscard]] cspan_mut block() noexcept {
    return cspan_mut{work_}.subspan(plan_->num_taps - 1, plan_->block_size);
  }

  /// The num_taps-1 inputs the next `step` treats as preceding `block()`;
  /// zero at construction, writable to prime the stream.
  [[nodiscard]] cspan_mut history() noexcept {
    return cspan_mut{work_}.subspan(plan_->fft_size, plan_->num_taps - 1);
  }

 private:
  std::shared_ptr<const ConvolverPlan> plan_;
  cvec work_;  ///< [FFT block workspace | history], reused across calls
};

/// Windowed-sinc linear-phase low-pass design.
/// @param num_taps   filter length (odd recommended for symmetric delay)
/// @param cutoff     normalised cutoff in cycles/sample, 0 < cutoff < 0.5
/// @param window     window applied to the ideal impulse response
/// @returns real taps with unity DC gain.
[[nodiscard]] fvec design_lowpass(std::size_t num_taps, double cutoff,
                                  Window window = Window::hamming);

/// Kaiser estimate of the number of taps needed for a given transition
/// width (normalised, cycles/sample) and stop-band attenuation in dB.
/// Result is forced odd and clamped to [3, max_taps].
[[nodiscard]] std::size_t lowpass_num_taps(double transition_width, double atten_db,
                                           std::size_t max_taps = 3181);

/// Frequency-sampling excision ("whitening") filter from eq. (3):
///   H(k) = 1 / sqrt(P(k)) * exp(-j pi (K-1) k / K)
/// where P is the estimated PSD in natural FFT order. The filter is
/// normalised so its median magnitude response is unity — attenuation is
/// then concentrated where the jammer sits and ~1 elsewhere. We use an
/// integer group delay of K/2 samples (eq. (3)'s (K-1)/2 is fractional
/// for even K); the magnitude response is unchanged and the receiver can
/// compensate the delay exactly.
/// @param psd            PSD estimate, natural FFT order; size must be a
///                       power of two (it sets the number of taps K).
/// @param floor_rel      bins below floor_rel * max(P) are clamped to
///                       avoid huge gains in empty bins.
/// @param passband_frac  two-sided width (fraction of the sampling rate)
///                       outside which the response is forced to zero.
///                       Default 1.0 whitens the whole band (the paper's
///                       chip-rate-sampled receiver); an oversampled
///                       receiver passes its signal bandwidth here so the
///                       whitening gain is normalised in-band and
///                       out-of-band noise is rejected as well.
/// @returns K complex taps with group delay K/2.
[[nodiscard]] cvec design_excision_whitening(fspan psd, double floor_rel = 1e-6,
                                             double passband_frac = 1.0);

/// Complex frequency response of a tap set evaluated at `nfft` points
/// (natural FFT order). For tests and plotting.
[[nodiscard]] cvec frequency_response(cspan taps, std::size_t nfft);

/// |H(f)|^2 of a tap set at `nfft` points, natural FFT order.
[[nodiscard]] fvec power_response(cspan taps, std::size_t nfft);

/// Widen real taps into complex ones.
[[nodiscard]] cvec to_complex(fspan real_taps);

}  // namespace bhss::dsp
