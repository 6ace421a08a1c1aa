#include "dsp/utils.hpp"

#include <bit>
#include <cmath>
#include <cstdint>
#include <numbers>

namespace bhss::dsp {

namespace {

/// True iff no value has an all-ones exponent field (Inf or NaN). An OR
/// over per-value masks instead of an early exit, so the loop vectorises.
bool none_inf_or_nan(const float* x, std::size_t n) noexcept {
  constexpr std::uint32_t kExponent = 0x7F800000U;
  std::uint32_t any = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const auto bits = std::bit_cast<std::uint32_t>(x[i]);
    any |= static_cast<std::uint32_t>((bits & kExponent) == kExponent);
  }
  return any == 0;
}

}  // namespace

double db_to_linear(double db) noexcept { return std::pow(10.0, db / 10.0); }

double linear_to_db(double linear) noexcept {
  if (linear <= 0.0) return -300.0;
  return 10.0 * std::log10(linear);
}

double sinc(double x) noexcept {
  if (std::abs(x) < 1e-12) return 1.0;
  const double px = std::numbers::pi * x;
  return std::sin(px) / px;
}

double mean_power(cspan x) noexcept {
  if (x.empty()) return 0.0;
  return energy(x) / static_cast<double>(x.size());
}

double energy(cspan x) noexcept {
  double acc = 0.0;
  for (const cf& s : x) acc += static_cast<double>(std::norm(s));
  return acc;
}

void scale_to_power(cspan_mut x, double target_power) noexcept {
  const double current = mean_power(x);
  if (current <= 0.0) return;
  const auto gain = static_cast<float>(std::sqrt(target_power / current));
  for (cf& s : x) s *= gain;
}

bool all_finite(cspan x) noexcept {
  // std::complex<float> is layout-compatible with float[2].
  return none_inf_or_nan(reinterpret_cast<const float*>(x.data()), 2 * x.size());
}

bool all_finite(fspan x) noexcept { return none_inf_or_nan(x.data(), x.size()); }

}  // namespace bhss::dsp
