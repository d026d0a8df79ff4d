// Example: interactive number-format explorer.
//
//   $ ./format_explorer [bits] [exp_bits] [exp_bias]
//
// Prints every representable value of the requested AdaptivFloat format,
// and the matching IEEE-like float / posit formats at the same width, so
// the dynamic-range trade-offs of Section 3 can be inspected directly.
#include <cstdio>
#include <cstdlib>

#include "src/core/adaptivfloat.hpp"
#include "src/numerics/float_format.hpp"
#include "src/numerics/posit.hpp"

int main(int argc, char** argv) {
  using namespace af;
  const int bits = argc > 1 ? std::atoi(argv[1]) : 6;
  const int exp_bits = argc > 2 ? std::atoi(argv[2]) : 3;
  const int exp_bias = argc > 3 ? std::atoi(argv[3]) : -4;

  const AdaptivFloatFormat af_fmt(bits, exp_bits, exp_bias);
  std::printf("%s: %d codes, value_min %.6g, value_max %.6g\n",
              af_fmt.to_string().c_str(), af_fmt.num_codes(),
              af_fmt.value_min(), af_fmt.value_max());
  std::printf("non-negative representable values:\n ");
  for (float v : af_fmt.representable_values()) {
    if (v >= 0.0f) std::printf(" %.6g", v);
  }
  std::printf("\n\n");

  const FloatFormat fl(bits, std::min(exp_bits + 1, bits - 1));
  std::printf("%s (fixed bias %d): value_max %.6g, value_min %.6g\n",
              fl.to_string().c_str(), fl.bias(), fl.value_max(),
              fl.value_min());
  std::printf("non-negative representable values:\n ");
  for (float v : fl.representable_values()) {
    if (v >= 0.0f) std::printf(" %.6g", v);
  }
  std::printf("\n\n");

  const PositQuantizer ps(bits, 1);
  std::printf("%s: minpos %.6g, maxpos %.6g\n",
              ps.format().to_string().c_str(), ps.format().minpos(),
              ps.format().maxpos());
  std::printf("non-negative representable values:\n ");
  for (float v : ps.representable_values()) {
    if (v >= 0.0f) std::printf(" %.6g", v);
  }
  std::printf("\n");
  return 0;
}
