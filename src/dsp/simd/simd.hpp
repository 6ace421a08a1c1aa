#pragma once

/// @file simd.hpp
/// Explicitly vectorized DSP kernels with a scalar reference fallback.
///
/// Every kernel here is **bit-identical** to its scalar reference — not
/// "numerically close", the same IEEE-754 bits. That property is what
/// lets the vector layer slide under the receiver chain without touching
/// the golden decision traces, the shard-merge byte-identity contract
/// (`merge_point_results`), or the 1-ulp seed-equivalence pins: the
/// vectorization axis of each kernel is chosen so the per-output
/// accumulation order is exactly the scalar order.
///
///  * `fir_decimate_real`     — matched-filter output at the sampling
///    instants only (the demodulator discards everything between them);
///    vectorized across outputs via gathers, k sequential per output.
///  * `correlate_lags`        — vectorized across *lags*; each lag's
///    accumulator lives in its own lane and k walks sequentially,
///    matching `sync::correlate_at` exactly.
///  * `despread_correlate16`  — vectorized across the 16 candidate
///    symbols over a structure-of-arrays chip table; the chip-pair index
///    m walks sequentially, so each symbol's correlation accumulates in
///    the scalar order.
///  * `fft_stage`             — one whole radix-2 stage per call; each
///    butterfly is elementwise. Vectorized across the butterfly index k
///    within a block for half >= 4 (AVX2) / half >= 2 (NEON), and across
///    blocks for the two smallest AVX2 stages (half = 1, 2), which hold
///    half of all blocks of a transform.
///  * `cmul_inplace`, `scale_inplace`, `window_apply`, `scale_pulse` —
///    elementwise, trivially order-preserving.
///
/// No FMA is used anywhere (a fused multiply-add rounds once where the
/// scalar code rounds twice, which would break bit-identity between this
/// translation unit and the scalar ones). The complex multiply is the
/// naive four-multiply form — the same fast path GCC emits for finite
/// `std::complex<float>` products — so callers must keep NaN/Inf out
/// (the receiver already scrubs non-finite samples at its boundary and
/// every kernel input is guarded by BHSS_REQUIRE upstream).
///
/// Dispatch: the AVX2 translation unit is compiled only on x86-64 when
/// the compiler supports `-mavx2` and `BHSS_SIMD=ON`, and is entered only
/// when the CPU reports AVX2 at runtime; NEON is compile-time on aarch64.
/// `simd::scalar::*` is always built and is the reference the equivalence
/// suite (`test_dsp_simd`) compares against on every platform.

#include <cstddef>

#include "core/contracts.hpp"
#include "dsp/types.hpp"

namespace bhss::dsp::simd {

/// Name of the instruction set the dispatched kernels actually use at
/// runtime: "avx2", "neon", or "scalar".
[[nodiscard]] const char* active_isa() noexcept;

/// True when active_isa() is a vector ISA.
[[nodiscard]] bool vectorized() noexcept;

// ------------------------------------------------------------- kernels
//
// All pointers must be valid over the documented ranges; in-place aliasing
// is only allowed where a parameter is documented as in/out.

/// Decimating real-tap FIR (matched-filter sampling instants only):
/// out[m] = sum_{k=0}^{n_taps-1} taps[k] * x[m*stride + n_taps-1 - k]
/// for m in [0, n_out), accumulated as re += t*xr / im += t*xi.
/// `x` must hold (n_out-1)*stride + n_taps samples.
BHSS_HOT void fir_decimate_real(const float* taps, std::size_t n_taps, const cf* x, cf* out,
                                std::size_t n_out, std::size_t stride);

/// Sliding cross-correlation: out[l] = sum_k x[l + k] * conj(ref[k]) for
/// l in [0, n_lags). `x` must hold n_lags - 1 + n_ref samples.
BHSS_HOT void correlate_lags(const cf* x, const cf* ref, std::size_t n_ref, cf* out,
                             std::size_t n_lags);

/// 16-ary despreading correlations over a structure-of-arrays chip table:
/// out[s] = sum_{m=0}^{n_pairs-1} pairs[m] * cf{se[m] * cols[2m][s],
///                                              (-so[m]) * cols[2m+1][s]}
/// where cols[c][s] = chip c of symbol s, stored column-major as
/// cols[c * 16 + s] (see ChipTable::columns()). `out` holds 16 values.
BHSS_HOT void despread_correlate16(const cf* pairs, std::size_t n_pairs, const float* se,
                                   const float* so, const float* cols, cf* out);

/// One radix-2 FFT stage over `x` (in/out, n samples): for every block
/// start s = 0, 2*half, 4*half, ... < n, with a = x + s and b = a + half,
/// and for k in [0, half)
///   w = inverse ? conj(tw[k]) : tw[k];
///   t = w * b[k];  a[k] = a[k] + t;  b[k] = a[k]_old - t;
/// `half` must be a power of two and n a multiple of 2*half (BHSS_REQUIRE).
BHSS_HOT void fft_stage(cf* x, std::size_t n, std::size_t half, const cf* tw, bool inverse);

/// Pointwise complex multiply in place: a[i] *= b[i].
BHSS_HOT void cmul_inplace(cf* a, const cf* b, std::size_t n);

/// Scale in place: x[i] *= s (componentwise real scale).
BHSS_HOT void scale_inplace(cf* x, float s, std::size_t n);

/// Windowing: out[i] = x[i] * w[i] (complex times real). `out` may alias `x`.
BHSS_HOT void window_apply(const cf* x, const float* w, cf* out, std::size_t n);

/// Pulse shaping: out[k] = cf{a * pulse[k], b * pulse[k]}.
BHSS_HOT void scale_pulse(float a, float b, const float* pulse, cf* out, std::size_t n);

/// Reference implementations — always compiled, on every platform. The
/// dispatched kernels above must produce bit-identical results; the
/// equivalence suite asserts exactly that (ulp distance zero).
namespace scalar {

BHSS_HOT void fir_decimate_real(const float* taps, std::size_t n_taps, const cf* x, cf* out,
                                std::size_t n_out, std::size_t stride);
BHSS_HOT void correlate_lags(const cf* x, const cf* ref, std::size_t n_ref, cf* out,
                             std::size_t n_lags);
BHSS_HOT void despread_correlate16(const cf* pairs, std::size_t n_pairs, const float* se,
                                   const float* so, const float* cols, cf* out);
BHSS_HOT void fft_stage(cf* x, std::size_t n, std::size_t half, const cf* tw, bool inverse);
BHSS_HOT void cmul_inplace(cf* a, const cf* b, std::size_t n);
BHSS_HOT void scale_inplace(cf* x, float s, std::size_t n);
BHSS_HOT void window_apply(const cf* x, const float* w, cf* out, std::size_t n);
BHSS_HOT void scale_pulse(float a, float b, const float* pulse, cf* out, std::size_t n);

}  // namespace scalar

}  // namespace bhss::dsp::simd
