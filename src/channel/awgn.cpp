#include "channel/awgn.hpp"

namespace bhss::channel {

dsp::cvec AwgnSource::generate(std::size_t n, double power) {
  dsp::cvec out(n);
  rng_.add_gaussian(out, power);
  return out;
}

void AwgnSource::add_to(dsp::cspan_mut x, double power) { rng_.add_gaussian(x, power); }

}  // namespace bhss::channel
