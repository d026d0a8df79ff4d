#include "src/nn/linear.hpp"

#include "src/resilience/abft.hpp"
#include "src/runtime/execution_context.hpp"
#include "src/tensor/ops.hpp"
#include "src/util/check.hpp"
#include "src/util/fault.hpp"

namespace af {
namespace {

// Forward-path shape validation is reachable from a serving request, so a
// mismatch is a typed, catchable rejection (the request is malformed) —
// never a process abort. Backward/training checks stay AF_CHECK.
void check_forward_input(const Tensor& x, std::int64_t in,
                         const std::string& layer) {
  if (x.rank() != 2 || x.dim(1) != in) {
    throw FaultError(layer, FaultKind::kMalformedInput,
                     "input must be [m, " + std::to_string(in) + "], got " +
                         shape_str(x.shape()));
  }
}

}  // namespace

Linear::Linear(std::int64_t in_features, std::int64_t out_features, Pcg32& rng,
               bool has_bias, const std::string& name)
    : in_(in_features),
      out_(out_features),
      has_bias_(has_bias),
      weight_(name + ".weight",
              xavier_uniform({out_features, in_features}, in_features,
                             out_features, rng)),
      bias_(name + ".bias", Tensor({out_features})) {}

Tensor Linear::forward(const Tensor& x, ExecutionContext& ctx) {
  check_forward_input(x, in_, weight_.name);
  auto compute = [&]() -> Tensor {
    // The x*W^T on the context's backend; an ABFT request checks it, with
    // weight sums built per call (training may have moved the weights).
    auto product = [&](const Tensor& a) {
      return matmul(a, weight_.value, false, /*trans_b=*/true,
                    &ctx.kernel_backend());
    };
    Tensor y;
    if (ctx.wants_abft()) {
      AbftReport abft;
      y = abft_checked_product(
          x, weight_.value, /*trans_b=*/true,
          abft_weight_sums(weight_.value, /*trans_b=*/true), product,
          ctx.abft_config(weight_.name), &abft, ctx.mac_hook);
      if (ctx.report != nullptr) ctx.report->abft.merge(abft);
    } else {
      y = product(x);
    }
    if (has_bias_) add_row_bias_inplace(y, bias_.value);
    return y;
  };
  Tensor y = ctx.wants_guard()
                 ? ctx.active_guard().run(compute, {x.dim(0), out_},
                                          ctx.report)
                 : compute();
  if (ctx.training) cached_x_.push_back(x);
  return y;
}

Tensor Linear::backward(const Tensor& dy) {
  AF_CHECK(!cached_x_.empty(), "Linear backward without matching forward");
  Tensor x = std::move(cached_x_.back());
  cached_x_.pop_back();
  AF_CHECK(dy.rank() == 2 && dy.dim(1) == out_ && dy.dim(0) == x.dim(0),
           "Linear backward shape mismatch");
  // dW = dy^T x, db = sum_rows(dy), dx = dy W.
  matmul_acc(weight_.grad, dy, x, /*trans_a=*/true);
  if (has_bias_) add_inplace(bias_.grad, sum_rows(dy));
  return matmul(dy, weight_.value);
}

std::vector<Parameter*> Linear::parameters() {
  if (has_bias_) return {&weight_, &bias_};
  return {&weight_};
}

}  // namespace af
