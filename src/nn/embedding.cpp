#include "src/nn/embedding.hpp"

#include <algorithm>
#include <cmath>

#include "src/runtime/execution_context.hpp"
#include "src/util/check.hpp"
#include "src/util/fault.hpp"

namespace af {

Embedding::Embedding(std::int64_t vocab, std::int64_t dim, Pcg32& rng,
                     const std::string& name, float init_std)
    : vocab_(vocab),
      dim_(dim),
      table_(name + ".table",
             Tensor::randn({vocab, dim}, rng,
                           init_std >= 0.0f
                               ? init_std
                               : 1.0f / std::sqrt(static_cast<float>(dim)))) {}

Tensor Embedding::forward(const std::vector<std::int64_t>& ids,
                          ExecutionContext& ctx) {
  Tensor out({static_cast<std::int64_t>(ids.size()), dim_});
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const std::int64_t id = ids[i];
    if (id < 0 || id >= vocab_) {
      throw FaultError(table_.name, FaultKind::kMalformedInput,
                       "token id " + std::to_string(id) + " out of vocab [0, " +
                           std::to_string(vocab_) + ")");
    }
    std::copy_n(table_.value.data() + id * dim_, dim_,
                out.data() + static_cast<std::int64_t>(i) * dim_);
  }
  if (ctx.training) cached_ids_.push_back(ids);
  return out;
}

void Embedding::backward(const Tensor& dy) {
  AF_CHECK(!cached_ids_.empty(), "Embedding backward without forward");
  std::vector<std::int64_t> ids = std::move(cached_ids_.back());
  cached_ids_.pop_back();
  AF_CHECK(dy.rank() == 2 && dy.dim(1) == dim_ &&
               dy.dim(0) == static_cast<std::int64_t>(ids.size()),
           "Embedding backward shape mismatch");
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const float* src = dy.data() + static_cast<std::int64_t>(i) * dim_;
    float* dst = table_.grad.data() + ids[i] * dim_;
    for (std::int64_t j = 0; j < dim_; ++j) dst[j] += src[j];
  }
}

}  // namespace af
