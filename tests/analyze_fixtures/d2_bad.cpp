// bhss-analyze fixture: d2-rng-discipline MUST fire.
// Ad-hoc std RNG engines, std::random_device and a time()-derived seed,
// all outside src/core/shared_random.
#include <ctime>
#include <random>

namespace fx {

double jitter() {
  std::random_device rd;                 // non-reproducible entropy
  std::mt19937_64 gen(rd());             // ad-hoc engine
  std::uniform_real_distribution<double> dist(0.0, 1.0);
  return dist(gen);
}

unsigned long clock_seed() {
  const unsigned long seed = static_cast<unsigned long>(time(nullptr));
  return seed;                           // wall-clock-derived seed
}

// Engine and distribution held as class members: the engine declared
// straight after an access label, the distribution brace-initialised.
class NoiseSource {
 public:
  explicit NoiseSource(unsigned long seed) : rng_(seed) {}
  float draw() { return normal_(rng_); }

 private:
  std::mt19937_64 rng_;
  std::normal_distribution<float> normal_{0.0F, 1.0F};
};

}  // namespace fx
