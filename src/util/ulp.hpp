// Norm-scaled ULP error between floats, the unit of the cross-backend GEMM
// bound: backends may reorder an accumulation chain, so two results are
// compared against the rounding that chain's magnitude allows, not bit for
// bit.
#pragma once

#include <limits>

namespace af {

/// |a - b| measured in ULPs at scale `norm`: multiples of 2^-24 * norm,
/// the half-ULP of a value of magnitude `norm`. This is the unit of
/// kGemmBackendUlpTol (src/kernels/backend.hpp), with `norm` the L1 norm
/// of the dot product sum_k |a_k * b_k| — the backward-error scale an
/// accumulation chain's rounding is actually bounded by. A zero norm means
/// an empty/all-zero reduction: both sides must agree exactly.
inline double ulp_at_scale(float a, float b, double norm) {
  const double diff =
      a > b ? static_cast<double>(a) - b : static_cast<double>(b) - a;
  if (diff == 0.0) return 0.0;
  if (norm <= 0.0) return std::numeric_limits<double>::infinity();
  return diff / (norm * 0x1p-24);
}

}  // namespace af
