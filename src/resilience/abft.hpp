// Algorithm-based fault tolerance (ABFT) for the GEMM compute path.
//
// Algebraic verification protects a matrix product C = A * op(B): the
// predicted row sums sum_j C[i][j] = sum_k A[i][k] * bsum[k] and the
// symmetric column form, accumulated in double with fixed chunk grains
// (bit-deterministic across thread counts). Predicted and recomputed sums
// differ by kernel roundoff, so comparison uses a rigorous O((k+n)*eps)
// magnitude-scaled tolerance: a fault during the multiply itself (an
// accumulator upset inside a MAC) is detected whenever it moves an output
// by more than the roundoff floor — faults below that floor are
// indistinguishable from rounding and equally harmless. A is always read
// as stored; only B has a transpose form, because the callers differ there:
// Conv2d multiplies its flattened filters by im2col columns (trans_b
// false), the linear layers compute x * W^T (trans_b true).
//
// The check comes in three steps: weight-side sums (abft_weight_sums,
// depending on B alone, so a layer with fixed weights builds them once),
// the input-side prediction (abft_predicted_sums), and the recovery ladder
// around a caller-supplied product (abft_checked_product). abft_matmul is
// the three over matmul() with fresh weight sums.
//
// Recovery follows the RecoveryPolicy ladder: detect -> correct (exact
// single-element repair) -> recompute (bounded retry budget with modeled
// backoff) -> degrade-to-zero (scrub the suspect region; never crash).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/hw/fault_hook.hpp"
#include "src/tensor/tensor.hpp"
#include "src/util/fault.hpp"

namespace af {

struct KernelBackend;

/// Recovery configuration of one guarded GEMM site.
struct AbftConfig {
  RecoveryPolicy policy = RecoveryPolicy::kDegradeToZero;
  int max_recomputes = 2;  ///< full-recompute retry budget per multiply
  std::string layer = "abft_matmul";  ///< site name carried into FaultError
  /// Backend of the checksum chains; nullptr = active_backend(). Every
  /// backend computes the same bits, so this moves speed only.
  const KernelBackend* backend = nullptr;
};

/// What the guarded multiplies observed and did. Counters sum across calls
/// via merge() so a whole inference pass reports one line.
struct AbftReport {
  std::int64_t multiplies = 0;     ///< guarded GEMMs executed
  std::int64_t verifies = 0;       ///< checksum verifications run
  std::int64_t detected = 0;       ///< verifications with >= 1 mismatch
  std::int64_t corrected = 0;      ///< exact single-element repairs
  std::int64_t recomputes = 0;     ///< full recompute attempts
  std::int64_t backoff_units = 0;  ///< modeled retry backoff (2^attempt)
  std::int64_t degraded = 0;       ///< elements scrubbed to zero
  std::int64_t uncorrected = 0;    ///< faults observed but left in place

  void merge(const AbftReport& other);
};

/// Double-precision row/column sums of a rank-2 tensor: each output is one
/// ascending-index chain, and column partials fold in fixed chunk order —
/// bit-identical for any AF_THREADS. Exposed for the determinism tests;
/// the checked product uses them internally.
struct AlgebraicSums {
  std::vector<double> row;  ///< [m] sums over each row
  std::vector<double> col;  ///< [n] sums over each column
};
AlgebraicSums abft_actual_sums(const Tensor& c);

/// Weight-side checksum vectors of op(B): sum[kk] = sum_j opB[kk][j] and
/// abs[kk] = sum_j |opB[kk][j]|. They depend on B alone, so a layer whose
/// weights never change builds them once and reuses them on every call.
struct AbftWeightSums {
  std::vector<double> sum;  ///< [k]
  std::vector<double> abs;  ///< [k]
};
AbftWeightSums abft_weight_sums(const Tensor& b, bool trans_b);

/// The ABFT-predicted row/column sums of A * op(B), computed from the
/// inputs alone (never from C), plus the magnitude sums that scale the
/// comparison tolerance.
struct PredictedSums {
  std::vector<double> row;      ///< predicted sum_j C[i][j]
  std::vector<double> col;      ///< predicted sum_i C[i][j]
  std::vector<double> row_mag;  ///< sum_j sum_k |a||b| per row
  std::vector<double> col_mag;  ///< sum_i sum_k |a||b| per column
};
/// `weight_sums` must be abft_weight_sums(b, trans_b). Each sum is one
/// double chain ascending in k (DESIGN.md §8.1); A's rows, and W's rows
/// under trans_b, run on `backend`'s checksum_dot_rows (nullptr =
/// active_backend()), bit-identical on every backend.
PredictedSums abft_predicted_sums(const Tensor& a, const Tensor& b,
                                  bool trans_b,
                                  const AbftWeightSums& weight_sums,
                                  const KernelBackend* backend = nullptr);

/// The product a checked multiply verifies. Called as product(a) for all
/// of C, and as product(row) with one row of A ([1, k]) to repair a single
/// output. Rows must not interact — row i of a full
/// call bit-equal to that row computed alone, as on every matmul and
/// matmul_packed path — so the repair stores exactly what a clean multiply
/// would have.
using AbftProduct = std::function<Tensor(const Tensor& a)>;

/// ABFT-checked product: runs `product`, verifies C = A * op(B)
/// against the sums predicted from a, b and `weight_sums` (which must be
/// abft_weight_sums(b, trans_b)), and walks the recovery ladder on
/// mismatch. b holds the FP32 values the product multiplies by; the
/// product itself may take another route to them (the packed LUT kernel).
/// `mac_hook`, when non-null, models accumulator-resident MAC upsets:
/// every freshly computed output value is offered to the hook (serially,
/// so the fault stream is thread-count invariant) before verification —
/// including recompute attempts, which therefore retry under fire. Throws
/// FaultError (kUncorrectable) only when the policy forbids degradation
/// and the retry budget is exhausted.
Tensor abft_checked_product(const Tensor& a, const Tensor& b, bool trans_b,
                            const AbftWeightSums& weight_sums,
                            const AbftProduct& product, const AbftConfig& cfg,
                            AbftReport* report, PeFaultHook* mac_hook);

/// ABFT-guarded matmul(): abft_checked_product over matmul(a, b, false,
/// trans_b) with weight sums built for this call.
Tensor abft_matmul(const Tensor& a, const Tensor& b, bool trans_b = false,
                   const AbftConfig& cfg = {},
                   AbftReport* report = nullptr,
                   PeFaultHook* mac_hook = nullptr);

}  // namespace af
