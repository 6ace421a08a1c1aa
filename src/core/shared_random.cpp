#include "core/shared_random.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

namespace bhss::core {
namespace {

std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  state += 0x9E3779B97F4A7C15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::uint64_t rotl(std::uint64_t x, int k) noexcept { return (x << k) | (x >> (64 - k)); }

// ---- Box–Muller ---------------------------------------------------------
//
// Everything below is single-precision + − × and std::sqrt, all correctly
// rounded under IEEE 754, plus integer bit operations. The polynomials are
// the Cephes single-precision minimax fits (S. L. Moshier) for log on
// [sqrt(1/2), sqrt(2)) and sin/cos on [−π/4, π/4]. This TU is compiled
// with -ffp-contract=off (no FMA: a fused multiply-add rounds once where
// the source rounds twice) and -fno-math-errno (so std::sqrt is the bare
// instruction and the block loop vectorises; it changes no result bit).

/// Natural log of u in (0, 1], u a normal float: u = m·2^e with m folded
/// into [sqrt(1/2), sqrt(2)), then ln u = e·ln 2 + ln(1 + x), x = m − 1.
[[gnu::always_inline]] inline float log_unit(float u) noexcept {
  const auto ub = std::bit_cast<std::int32_t>(u);
  std::int32_t mb = (ub & 0x007FFFFF) | 0x3F800000;  // m in [1, 2)
  const std::int32_t fold = mb > 0x3FB504F3 ? 1 : 0;  // m > sqrt(2): halve it
  mb -= fold << 23;
  const auto e = static_cast<float>((ub >> 23) - 127 + fold);
  const float x = std::bit_cast<float>(mb) - 1.0F;
  const float z = x * x;
  float p = 7.0376836292E-2F;
  p = p * x - 1.1514610310E-1F;
  p = p * x + 1.1676998740E-1F;
  p = p * x - 1.2420140846E-1F;
  p = p * x + 1.4249322787E-1F;
  p = p * x - 1.6668057665E-1F;
  p = p * x + 2.0000714765E-1F;
  p = p * x - 2.4999993993E-1F;
  p = p * x + 3.3333331174E-1F;
  // ln 2 split in two so e·ln2_hi is exact for every exponent we meet.
  float y = x * z * p + e * -2.12194440E-4F;
  y = y - 0.5F * z;
  return (x + y) + e * 0.693359375F;
}

/// One Box–Muller sample from a draw split into its high and low words
/// (layout in shared_random.hpp at gaussian_from_bits).
/// Forced inline (as is log_unit): the block loop only vectorises with the
/// body in it, and at -O2 GCC would otherwise keep the call.
[[gnu::always_inline]] inline void box_muller(std::uint32_t hi, std::uint32_t lo, float sigma,
                                              float& re, float& im) noexcept {
  // Radius. k + 1 <= 2^24 converts exactly; so does the scale by 2^-24.
  const auto k = static_cast<std::int32_t>(hi >> 8);
  const float u1 = static_cast<float>(k + 1) * 0x1.0p-24F;
  // ln u1 <= 0 for every u1 the layout can produce (a test checks all
  // 2^24); the max turns the −0 of u1 = 1 into +0 and guards the sqrt.
  const float r = std::sqrt(std::max(0.0F, -2.0F * log_unit(u1))) * sigma;

  // Angle inside the quadrant: an odd integer j in [−(2^24 − 1), 2^24 − 1]
  // scaled so a = j·(π/2)·2^-25 lies strictly inside (−π/4, π/4).
  const auto j = static_cast<std::int32_t>((lo >> 6) & 0x00FFFFFFU) * 2 - 0x00FFFFFF;
  const float a = static_cast<float>(j) * 0x1.921fb6p-25F;  // (π/2)·2^-25
  const float z = a * a;
  float s = -1.9515295891E-4F;
  s = s * z + 8.3321608736E-3F;
  s = s * z - 1.6666654611E-1F;
  s = s * z * a + a;
  float c = 2.443315711809948E-5F;
  c = c * z - 1.388731625493765E-3F;
  c = c * z + 4.166664568298827E-2F;
  c = c * z * z - 0.5F * z + 1.0F;

  // Rotate (c, s) by q quarter turns, q = top two bits of lo:
  //   q = 0: (c, s)   q = 1: (−s, c)   q = 2: (−c, −s)   q = 3: (s, −c).
  const std::uint32_t q = lo >> 30;
  const std::uint32_t swap = 0U - (q & 1U);  // all ones on odd quadrants
  const auto cb = std::bit_cast<std::uint32_t>(c);
  const auto sb = std::bit_cast<std::uint32_t>(s);
  const std::uint32_t xb = ((cb & ~swap) | (sb & swap)) ^ (((q ^ (q >> 1)) & 1U) << 31);
  const std::uint32_t yb = ((sb & ~swap) | (cb & swap)) ^ ((q >> 1) << 31);
  re = r * std::bit_cast<float>(xb);
  im = r * std::bit_cast<float>(yb);
}

/// Draws are made in blocks: the xoshiro recurrence is serial, the
/// transform is not, so splitting them lets the transform vectorise.
constexpr std::size_t kGaussianBlock = 256;

}  // namespace

SharedRandom::SharedRandom(std::uint64_t seed) noexcept {
  std::uint64_t sm = seed;
  for (std::uint64_t& word : s_) word = splitmix64(sm);
}

std::uint64_t SharedRandom::next_u64() noexcept {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

double SharedRandom::uniform() noexcept {
  // Use the top 53 bits for a uniform double in [0, 1).
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

std::size_t SharedRandom::uniform_index(std::size_t n) noexcept {
  if (n == 0) return 0;
  return static_cast<std::size_t>(uniform() * static_cast<double>(n)) % n;
}

std::size_t SharedRandom::pick(std::span<const double> weights) noexcept {
  double total = 0.0;
  for (double w : weights) total += w;
  if (total <= 0.0 || weights.empty()) return 0;
  double x = uniform() * total;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    x -= weights[i];
    if (x < 0.0) return i;
  }
  return weights.size() - 1;
}

void SharedRandom::add_gaussian(std::span<std::complex<float>> x, double power) noexcept {
  const auto sigma = static_cast<float>(std::sqrt(power / 2.0));
  std::array<std::uint32_t, kGaussianBlock> hi{};
  std::array<std::uint32_t, kGaussianBlock> lo{};
  std::array<float, kGaussianBlock> re;
  std::array<float, kGaussianBlock> im;
  for (std::size_t base = 0; base < x.size(); base += kGaussianBlock) {
    const std::size_t m = std::min(kGaussianBlock, x.size() - base);
    for (std::size_t i = 0; i < m; ++i) {
      const std::uint64_t bits = next_u64();
      hi[i] = static_cast<std::uint32_t>(bits >> 32);
      lo[i] = static_cast<std::uint32_t>(bits);
    }
    // Always the full block: a fixed trip count vectorises at -O2 too. The
    // lanes past m hold stale draws and are never stored.
    for (std::size_t i = 0; i < kGaussianBlock; ++i) {
      box_muller(hi[i], lo[i], sigma, re[i], im[i]);
    }
    std::complex<float>* dst = x.data() + base;
    for (std::size_t i = 0; i < m; ++i) dst[i] += std::complex<float>{re[i], im[i]};
  }
}

std::complex<float> gaussian_from_bits(std::uint64_t bits, float sigma) noexcept {
  float re = 0.0F;
  float im = 0.0F;
  box_muller(static_cast<std::uint32_t>(bits >> 32), static_cast<std::uint32_t>(bits), sigma, re,
             im);
  return {re, im};
}

std::uint32_t SharedRandom::derive_scrambler_seed() noexcept {
  const auto seed = static_cast<std::uint32_t>(next_u64() & 0xFFFFU);
  return seed == 0 ? 1U : seed;
}

std::uint64_t SharedRandom::split_seed(std::uint64_t base, std::uint64_t stream,
                                       std::uint64_t index) noexcept {
  // Chain two splitmix64 steps through the stream and index words. The
  // odd multipliers decorrelate (stream, index) pairs that differ in only
  // one coordinate; the final splitmix64 avalanches the combination.
  std::uint64_t sm = base;
  std::uint64_t z = splitmix64(sm);
  sm = z ^ (stream * 0xA0761D6478BD642FULL);
  z = splitmix64(sm);
  sm = z ^ (index * 0xE7037ED1A0B428DBULL);
  return splitmix64(sm);
}

SharedRandom SharedRandom::for_frame(std::uint64_t session_seed,
                                     std::uint64_t frame_counter) noexcept {
  std::uint64_t sm = session_seed;
  const std::uint64_t mixed = splitmix64(sm) ^ (frame_counter * 0xD1B54A32D192ED03ULL);
  return SharedRandom(mixed);
}

}  // namespace bhss::core
