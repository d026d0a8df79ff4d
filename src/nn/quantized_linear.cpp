#include "src/nn/quantized_linear.hpp"

#include "src/kernels/gemm_packed.hpp"
#include "src/resilience/abft.hpp"
#include "src/runtime/execution_context.hpp"
#include "src/tensor/arena.hpp"
#include "src/tensor/ops.hpp"
#include "src/util/check.hpp"
#include "src/util/fault.hpp"

namespace af {
namespace {

// Serving-reachable shape validation: malformed requests are typed,
// catchable rejections, never aborts (see src/nn/linear.cpp).
void check_forward_input(const Tensor& x, std::int64_t in) {
  if (x.rank() != 2 || x.dim(1) != in) {
    throw FaultError("quantized_linear", FaultKind::kMalformedInput,
                     "input must be [m, " + std::to_string(in) + "], got " +
                         shape_str(x.shape()));
  }
}

}  // namespace

QuantizedLinear::QuantizedLinear(Linear& source, int bits, int exp_bits)
    : in_(source.in_features()),
      out_(source.out_features()),
      weight_(PackedAdaptivFloatTensor::quantize_pack(source.weight().value,
                                                      bits, exp_bits)),
      bias_(source.bias().value) {}

QuantizedLinear::QuantizedLinear(PackedAdaptivFloatTensor weight, Tensor bias)
    : in_(0), out_(0), weight_(std::move(weight)), bias_(std::move(bias)) {
  AF_CHECK(weight_.shape().size() == 2,
           "QuantizedLinear weights must be [out, in]");
  out_ = weight_.shape()[0];
  in_ = weight_.shape()[1];
  AF_CHECK(bias_.numel() == 0 || bias_.numel() == out_,
           "bias length must match out_features (or be empty)");
}

Tensor QuantizedLinear::forward(const Tensor& x, ExecutionContext& ctx) {
  check_forward_input(x, in_);
  // The packed product; an ABFT request checks it. Called with [1, in]
  // row slices too when a repair recomputes one row.
  auto product = [&](const Tensor& a) {
    return matmul_packed(a, weight_, ctx.kernel_backend());
  };
  auto compute = [&]() -> Tensor {
    Tensor y;
    if (ctx.wants_abft()) {
      AbftReport abft;
      y = abft_checked_product(x, decoded_weight(), /*trans_b=*/true,
                               weight_sums(), product,
                               ctx.abft_config("quantized_linear"), &abft,
                               ctx.mac_hook);
      if (ctx.report != nullptr) ctx.report->abft.merge(abft);
    } else {
      y = product(x);
    }
    if (bias_.numel() == out_) add_row_bias_inplace(y, bias_);
    return y;
  };
  return ctx.wants_guard()
             ? ctx.active_guard().run(compute, {x.dim(0), out_}, ctx.report)
             : compute();
}

const Tensor& QuantizedLinear::decoded_weight() const {
  if (!decoded_valid_) {
    // The decode cache outlives any inference arena: force owned storage
    // even when a session's ArenaScope is active.
    ArenaScope no_arena(nullptr);
    decoded_ = weight_.unpack();
    decoded_valid_ = true;
    ++decode_count_;
  }
  return decoded_;
}

const AbftWeightSums& QuantizedLinear::weight_sums() const {
  if (!weight_sums_valid_) {
    weight_sums_ = abft_weight_sums(decoded_weight(), /*trans_b=*/true);
    weight_sums_valid_ = true;
  }
  return weight_sums_;
}

}  // namespace af
