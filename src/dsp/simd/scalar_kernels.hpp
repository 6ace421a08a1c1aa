#pragma once

/// @file scalar_kernels.hpp
/// Internal: the scalar kernel bodies, shared by the scalar reference TU
/// and by the vector TUs (which reuse them for tails and short inputs).
/// Each body is the bit-exact contract the vector implementations must
/// match — see simd.hpp for the accumulation-order rules.

#include <complex>
#include <cstddef>

#include "core/contracts.hpp"
#include "dsp/types.hpp"

namespace bhss::dsp::simd::detail {

inline void fir_decimate_real_scalar(const float* taps, std::size_t n_taps, const cf* x, cf* out,
                                     std::size_t n_out, std::size_t stride) {
  BHSS_REQUIRE(taps != nullptr && x != nullptr && out != nullptr,
               "fir_decimate_real: null buffer");
  for (std::size_t m = 0; m < n_out; ++m) {
    const cf* base = x + m * stride + n_taps - 1;
    cf acc{0.0F, 0.0F};
    for (std::size_t k = 0; k < n_taps; ++k) {
      const cf v = *(base - static_cast<std::ptrdiff_t>(k));
      acc += cf{taps[k] * v.real(), taps[k] * v.imag()};
    }
    out[m] = acc;
  }
}

inline void correlate_lags_scalar(const cf* x, const cf* ref, std::size_t n_ref, cf* out,
                                  std::size_t n_lags) {
  BHSS_REQUIRE(x != nullptr && ref != nullptr && out != nullptr, "correlate_lags: null buffer");
  for (std::size_t l = 0; l < n_lags; ++l) {
    cf acc{0.0F, 0.0F};
    for (std::size_t k = 0; k < n_ref; ++k) acc += x[l + k] * std::conj(ref[k]);
    out[l] = acc;
  }
}

inline void despread_correlate16_scalar(const cf* pairs, std::size_t n_pairs, const float* se,
                                        const float* so, const float* cols, cf* out) {
  BHSS_REQUIRE(pairs != nullptr && se != nullptr && so != nullptr && cols != nullptr &&
                   out != nullptr,
               "despread_correlate16: null buffer");
  constexpr std::size_t kSymbols = 16;
  for (std::size_t s = 0; s < kSymbols; ++s) out[s] = cf{0.0F, 0.0F};
  for (std::size_t m = 0; m < n_pairs; ++m) {
    const cf p = pairs[m];
    const float sem = se[m];
    const float nso = -so[m];
    const float* even = cols + (2 * m) * kSymbols;
    const float* odd = cols + (2 * m + 1) * kSymbols;
    for (std::size_t s = 0; s < kSymbols; ++s) {
      const cf ref{sem * even[s], nso * odd[s]};
      out[s] += p * ref;
    }
  }
}

/// The fft_stage block layout, checked once per stage by every
/// implementation before it touches memory.
inline void require_fft_stage_shape(std::size_t n, std::size_t half) {
  BHSS_REQUIRE(half != 0 && (half & (half - 1)) == 0 && n % (2 * half) == 0,
               "fft_stage: half must be a power of two and n a multiple of 2*half");
}

inline void fft_stage_scalar(cf* x, std::size_t n, std::size_t half, const cf* tw, bool inverse) {
  BHSS_REQUIRE(x != nullptr && tw != nullptr, "fft_stage: null buffer");
  require_fft_stage_shape(n, half);
  for (std::size_t start = 0; start < n; start += 2 * half) {
    cf* a = x + start;
    cf* b = a + half;
    for (std::size_t k = 0; k < half; ++k) {
      cf w = tw[k];
      if (inverse) w = std::conj(w);
      const cf u = a[k];
      const cf t = w * b[k];
      a[k] = u + t;
      b[k] = u - t;
    }
  }
}

inline void cmul_inplace_scalar(cf* a, const cf* b, std::size_t n) {
  BHSS_REQUIRE(a != nullptr && b != nullptr, "cmul_inplace: null buffer");
  for (std::size_t i = 0; i < n; ++i) a[i] *= b[i];
}

inline void scale_inplace_scalar(cf* x, float s, std::size_t n) {
  BHSS_REQUIRE(x != nullptr, "scale_inplace: null buffer");
  for (std::size_t i = 0; i < n; ++i) x[i] *= s;
}

inline void window_apply_scalar(const cf* x, const float* w, cf* out, std::size_t n) {
  BHSS_REQUIRE(x != nullptr && w != nullptr && out != nullptr, "window_apply: null buffer");
  for (std::size_t i = 0; i < n; ++i) out[i] = x[i] * w[i];
}

inline void scale_pulse_scalar(float a, float b, const float* pulse, cf* out, std::size_t n) {
  BHSS_REQUIRE(pulse != nullptr && out != nullptr, "scale_pulse: null buffer");
  for (std::size_t k = 0; k < n; ++k) out[k] = cf{a * pulse[k], b * pulse[k]};
}

}  // namespace bhss::dsp::simd::detail
