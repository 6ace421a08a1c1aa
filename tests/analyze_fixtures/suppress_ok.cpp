// bhss-analyze fixture: a reasoned inline suppression silences the
// finding — the analyzer must exit 0 and count one suppressed finding.
#include <random>

namespace fx {

double adversary_draw(unsigned long seed) {
  // BHSS_ANALYZE_SUPPRESS(d2-rng-discipline): fixture stand-in for adversary-domain RNG, explicitly seeded
  std::mt19937_64 gen(seed);
  return static_cast<double>(gen() >> 11) * 0x1.0p-53;
}

}  // namespace fx
