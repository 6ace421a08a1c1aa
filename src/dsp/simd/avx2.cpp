// AVX2 implementations of the simd.hpp kernels. Compiled with -mavx2 (and
// nothing more: no -mfma — a fused multiply-add rounds once where the
// scalar reference rounds twice and would break bit-identity).
//
// Layout convention: complex samples stay interleaved in memory
// ([re0 im0 re1 im1 ...]); one __m256 holds four cf values. The complex
// product uses _mm256_addsub_ps, which computes exactly the scalar
// (ar*br - ai*bi, ar*bi + ai*br) form — the same products, the same
// single add/sub per component, hence the same bits as
// std::complex<float> multiplication of finite values.
//
// Every kernel vectorizes only across its documented independence axis
// (outputs / lags / symbols / butterflies) and keeps the reduction index
// sequential; tails and short inputs fall through to the shared scalar
// bodies in scalar_kernels.hpp.

#if defined(__AVX2__)

#include <immintrin.h>

#include "dsp/simd/scalar_kernels.hpp"
#include "dsp/simd/simd.hpp"

namespace bhss::dsp::simd::avx2 {

namespace {

inline const float* fp(const cf* p) { return reinterpret_cast<const float*>(p); }
inline float* fp(cf* p) { return reinterpret_cast<float*>(p); }

/// Complex product of four (w, z) pairs: (wr*zr - wi*zi, wr*zi + wi*zr).
inline __m256 cmul4(__m256 w, __m256 z) {
  const __m256 wr = _mm256_moveldup_ps(w);            // [wr0 wr0 wr1 wr1 ...]
  const __m256 wi = _mm256_movehdup_ps(w);            // [wi0 wi0 wi1 wi1 ...]
  const __m256 zs = _mm256_permute_ps(z, 0xB1);       // [zi0 zr0 zi1 zr1 ...]
  return _mm256_addsub_ps(_mm256_mul_ps(wr, z), _mm256_mul_ps(wi, zs));
}

/// Broadcast-times-vector complex product: t * z for scalar t = (tr, ti).
inline __m256 cmul_bcast4(__m256 tr, __m256 ti, __m256 z) {
  const __m256 zs = _mm256_permute_ps(z, 0xB1);
  return _mm256_addsub_ps(_mm256_mul_ps(tr, z), _mm256_mul_ps(ti, zs));
}

/// Duplicate four packed floats pairwise into a __m256: [w0 w0 w1 w1 w2 w2 w3 w3].
inline __m256 dup_pairs(__m128 w) {
  return _mm256_set_m128(_mm_unpackhi_ps(w, w), _mm_unpacklo_ps(w, w));
}

}  // namespace

void fir_decimate_real(const float* taps, std::size_t n_taps, const cf* x, cf* out,
                       std::size_t n_out, std::size_t stride) {
  std::size_t m = 0;
  const __m128i idx = _mm_set_epi32(static_cast<int>(3 * stride), static_cast<int>(2 * stride),
                                    static_cast<int>(stride), 0);
  for (; m + 4 <= n_out; m += 4) {
    __m256 acc = _mm256_setzero_ps();
    const long long* base =
        reinterpret_cast<const long long*>(x + m * stride + n_taps - 1);
    for (std::size_t k = 0; k < n_taps; ++k) {
      // One cf (64 bits) per output lane, stride cf apart: a 4-way i64 gather.
      const __m256i packed =
          _mm256_i32gather_epi64(base - static_cast<std::ptrdiff_t>(k), idx, 8);
      const __m256 vx = _mm256_castsi256_ps(packed);
      acc = _mm256_add_ps(acc, _mm256_mul_ps(_mm256_set1_ps(taps[k]), vx));
    }
    _mm256_storeu_ps(fp(out + m), acc);
  }
  detail::fir_decimate_real_scalar(taps, n_taps, x + m * stride, out + m, n_out - m, stride);
}

void correlate_lags(const cf* x, const cf* ref, std::size_t n_ref, cf* out, std::size_t n_lags) {
  std::size_t l = 0;
  for (; l + 8 <= n_lags; l += 8) {
    __m256 acc0 = _mm256_setzero_ps();
    __m256 acc1 = _mm256_setzero_ps();
    const float* base = fp(x + l);
    for (std::size_t k = 0; k < n_ref; ++k) {
      // conj(ref[k]) broadcast: negating the float imag flips exactly the
      // sign bit, matching std::conj.
      const __m256 cr = _mm256_set1_ps(ref[k].real());
      const __m256 ci = _mm256_set1_ps(-ref[k].imag());
      const float* p = base + 2 * k;
      acc0 = _mm256_add_ps(acc0, cmul_bcast4(cr, ci, _mm256_loadu_ps(p)));
      acc1 = _mm256_add_ps(acc1, cmul_bcast4(cr, ci, _mm256_loadu_ps(p + 8)));
    }
    _mm256_storeu_ps(fp(out + l), acc0);
    _mm256_storeu_ps(fp(out + l + 4), acc1);
  }
  detail::correlate_lags_scalar(x + l, ref, n_ref, out + l, n_lags - l);
}

void despread_correlate16(const cf* pairs, std::size_t n_pairs, const float* se, const float* so,
                          const float* cols, cf* out) {
  // Sixteen symbol lanes, split re/im (structure of arrays): 2+2 __m256
  // accumulators. The chip-pair index m is the sequential reduction axis.
  __m256 re0 = _mm256_setzero_ps();
  __m256 re1 = _mm256_setzero_ps();
  __m256 im0 = _mm256_setzero_ps();
  __m256 im1 = _mm256_setzero_ps();
  for (std::size_t m = 0; m < n_pairs; ++m) {
    const __m256 pr = _mm256_set1_ps(pairs[m].real());
    const __m256 pi = _mm256_set1_ps(pairs[m].imag());
    const __m256 vse = _mm256_set1_ps(se[m]);
    const __m256 vnso = _mm256_set1_ps(-so[m]);
    const float* even = cols + (2 * m) * 16;
    const float* odd = cols + (2 * m + 1) * 16;
    const __m256 rr0 = _mm256_mul_ps(vse, _mm256_loadu_ps(even));
    const __m256 rr1 = _mm256_mul_ps(vse, _mm256_loadu_ps(even + 8));
    const __m256 ri0 = _mm256_mul_ps(vnso, _mm256_loadu_ps(odd));
    const __m256 ri1 = _mm256_mul_ps(vnso, _mm256_loadu_ps(odd + 8));
    // p * ref: re += pr*rr - pi*ri; im += pr*ri + pi*rr (scalar order).
    re0 = _mm256_add_ps(re0, _mm256_sub_ps(_mm256_mul_ps(pr, rr0), _mm256_mul_ps(pi, ri0)));
    re1 = _mm256_add_ps(re1, _mm256_sub_ps(_mm256_mul_ps(pr, rr1), _mm256_mul_ps(pi, ri1)));
    im0 = _mm256_add_ps(im0, _mm256_add_ps(_mm256_mul_ps(pr, ri0), _mm256_mul_ps(pi, rr0)));
    im1 = _mm256_add_ps(im1, _mm256_add_ps(_mm256_mul_ps(pr, ri1), _mm256_mul_ps(pi, rr1)));
  }
  alignas(32) float re[16];
  alignas(32) float im[16];
  _mm256_store_ps(re, re0);
  _mm256_store_ps(re + 8, re1);
  _mm256_store_ps(im, im0);
  _mm256_store_ps(im + 8, im1);
  for (std::size_t s = 0; s < 16; ++s) out[s] = cf{re[s], im[s]};
}

void fft_stage(cf* x, std::size_t n, std::size_t half, const cf* tw, bool inverse) {
  detail::require_fft_stage_shape(n, half);
  // conj(w) == flip the sign bit of the imaginary component.
  const __m256 conj_mask = inverse ? _mm256_castsi256_ps(_mm256_set_epi32(
                                         static_cast<int>(0x80000000U), 0,
                                         static_cast<int>(0x80000000U), 0,
                                         static_cast<int>(0x80000000U), 0,
                                         static_cast<int>(0x80000000U), 0))
                                   : _mm256_setzero_ps();
  std::size_t start = 0;
  if (half == 1) {
    // Four 2-point blocks per step, [a0 b0 a1 b1 | a2 b2 a3 b3]. Unpacking
    // 64-bit (one-cf) elements splits them into [a0 a2 a1 a3] and
    // [b0 b2 b1 b3]; the same unpack of the sums and differences restores
    // the block layout.
    const float wr = tw[0].real();
    const float wi = tw[0].imag();
    const __m256 w = _mm256_xor_ps(_mm256_setr_ps(wr, wi, wr, wi, wr, wi, wr, wi), conj_mask);
    for (; start + 8 <= n; start += 8) {
      const __m256d v0 = _mm256_castps_pd(_mm256_loadu_ps(fp(x + start)));
      const __m256d v1 = _mm256_castps_pd(_mm256_loadu_ps(fp(x + start + 4)));
      const __m256 va = _mm256_castpd_ps(_mm256_unpacklo_pd(v0, v1));
      const __m256 t = cmul4(w, _mm256_castpd_ps(_mm256_unpackhi_pd(v0, v1)));
      const __m256d sum = _mm256_castps_pd(_mm256_add_ps(va, t));
      const __m256d diff = _mm256_castps_pd(_mm256_sub_ps(va, t));
      _mm256_storeu_ps(fp(x + start), _mm256_castpd_ps(_mm256_unpacklo_pd(sum, diff)));
      _mm256_storeu_ps(fp(x + start + 4), _mm256_castpd_ps(_mm256_unpackhi_pd(sum, diff)));
    }
  } else if (half == 2) {
    // Two 4-point blocks per step, [a0 a1 b0 b1 | c0 c1 d0 d1]. Swapping
    // 128-bit halves gives [a0 a1 c0 c1] and [b0 b1 d0 d1], which line up
    // with the twiddles [w0 w1 w0 w1].
    const __m128 w2 = _mm_loadu_ps(fp(tw));
    const __m256 w = _mm256_xor_ps(_mm256_set_m128(w2, w2), conj_mask);
    for (; start + 8 <= n; start += 8) {
      const __m256 v0 = _mm256_loadu_ps(fp(x + start));
      const __m256 v1 = _mm256_loadu_ps(fp(x + start + 4));
      const __m256 va = _mm256_permute2f128_ps(v0, v1, 0x20);
      const __m256 t = cmul4(w, _mm256_permute2f128_ps(v0, v1, 0x31));
      const __m256 sum = _mm256_add_ps(va, t);
      const __m256 diff = _mm256_sub_ps(va, t);
      _mm256_storeu_ps(fp(x + start), _mm256_permute2f128_ps(sum, diff, 0x20));
      _mm256_storeu_ps(fp(x + start + 4), _mm256_permute2f128_ps(sum, diff, 0x31));
    }
  } else {
    // half is a power of two >= 4, so every block is whole vectors.
    for (; start < n; start += 2 * half) {
      cf* a = x + start;
      cf* b = a + half;
      for (std::size_t k = 0; k < half; k += 4) {
        const __m256 w = _mm256_xor_ps(_mm256_loadu_ps(fp(tw + k)), conj_mask);
        const __m256 vb = _mm256_loadu_ps(fp(b + k));
        const __m256 va = _mm256_loadu_ps(fp(a + k));
        const __m256 t = cmul4(w, vb);
        _mm256_storeu_ps(fp(a + k), _mm256_add_ps(va, t));
        _mm256_storeu_ps(fp(b + k), _mm256_sub_ps(va, t));
      }
    }
  }
  // Blocks left over when n is shorter than one step.
  detail::fft_stage_scalar(x + start, n - start, half, tw, inverse);
}

void cmul_inplace(cf* a, const cf* b, std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256 va = _mm256_loadu_ps(fp(a + i));
    const __m256 vb = _mm256_loadu_ps(fp(b + i));
    _mm256_storeu_ps(fp(a + i), cmul4(va, vb));
  }
  detail::cmul_inplace_scalar(a + i, b + i, n - i);
}

void scale_inplace(cf* x, float s, std::size_t n) {
  const __m256 vs = _mm256_set1_ps(s);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_ps(fp(x + i), _mm256_mul_ps(_mm256_loadu_ps(fp(x + i)), vs));
  }
  detail::scale_inplace_scalar(x + i, s, n - i);
}

void window_apply(const cf* x, const float* w, cf* out, std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256 wd = dup_pairs(_mm_loadu_ps(w + i));
    _mm256_storeu_ps(fp(out + i), _mm256_mul_ps(_mm256_loadu_ps(fp(x + i)), wd));
  }
  detail::window_apply_scalar(x + i, w + i, out + i, n - i);
}

void scale_pulse(float a, float b, const float* pulse, cf* out, std::size_t n) {
  // out[k] = (a*p, b*p): broadcast (a, b) into alternating lanes and
  // multiply by the pairwise-duplicated pulse.
  const __m256 ab = _mm256_setr_ps(a, b, a, b, a, b, a, b);
  std::size_t k = 0;
  for (; k + 4 <= n; k += 4) {
    const __m256 pd = dup_pairs(_mm_loadu_ps(pulse + k));
    _mm256_storeu_ps(fp(out + k), _mm256_mul_ps(ab, pd));
  }
  detail::scale_pulse_scalar(a, b, pulse + k, out + k, n - k);
}

}  // namespace bhss::dsp::simd::avx2

#endif  // __AVX2__
