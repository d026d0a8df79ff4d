// Algorithm-based fault tolerance (ABFT) for the GEMM compute path.
//
// Two checksum mechanisms protect a matrix product C = op(A) * op(B), each
// matched to the fault class it can actually catch:
//
//  * Integrity checksums (GemmChecksums): per-row / per-column additive
//    checksums over the *bit patterns* of C, mod 2^64. Addition mod 2^64 is
//    commutative, so the sums are bit-identical for any AF_THREADS value by
//    construction, and verification is exact: any storage corruption of C
//    between compute and consumption changes at least one row and one
//    column sum. A single corrupted element is localized by the unique
//    (row, column) mismatch pair, and — because the row delta *is* the bit
//    error — repaired exactly by subtracting it, with the column delta as a
//    cross-check. This is the classic Huang-Abraham row/column scheme
//    applied to the stored image of C.
//
//  * Algebraic verification (abft_checked_product): predicted row sums
//    sum_j C[i][j] = sum_k opA[i][k] * bsum[k] and the symmetric column
//    form, accumulated in double with fixed chunk grains (bit-deterministic
//    across thread counts). Predicted and recomputed sums differ by kernel
//    roundoff, so comparison uses a rigorous O((k+n)*eps) magnitude-scaled
//    tolerance: a fault during the multiply itself (an accumulator upset
//    inside a MAC) is detected whenever it moves an output by more than the
//    roundoff floor — faults below that floor are indistinguishable from
//    rounding and equally harmless.
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

/// Recovery configuration of one guarded GEMM site.
struct AbftConfig {
  RecoveryPolicy policy = RecoveryPolicy::kDegradeToZero;
  int max_recomputes = 2;  ///< full-recompute retry budget per multiply
  std::string layer = "abft_matmul";  ///< site name carried into FaultError
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

/// Exact integrity sidecar of a rank-2 tensor: bit-pattern checksums per
/// row, per column, and in total.
class GemmChecksums {
 public:
  /// Snapshots the checksums of c (rank-2).
  static GemmChecksums of(const Tensor& c);

  /// Outcome of checking a tensor against the snapshot.
  struct Verify {
    std::vector<std::int64_t> rows;  ///< mismatched row indices, ascending
    std::vector<std::int64_t> cols;  ///< mismatched column indices, ascending
    bool total_mismatch = false;

    bool clean() const {
      return rows.empty() && cols.empty() && !total_mismatch;
    }
    /// Exactly one row and one column disagree: a single-element fault,
    /// localized at (rows[0], cols[0]).
    bool single() const { return rows.size() == 1 && cols.size() == 1; }
  };

  /// Recomputes c's checksums and reports every disagreement. c must have
  /// the snapshot's shape.
  Verify verify(const Tensor& c) const;

  /// Exact single-element repair: subtracts the row checksum delta from the
  /// bit pattern of c[rows[0], cols[0]]. Returns false (c untouched) unless
  /// v.single() holds and the row and column deltas agree — a disagreement
  /// means more than one element changed and repair would fabricate data.
  bool correct(Tensor& c, const Verify& v) const;

  std::int64_t rows() const { return m_; }
  std::int64_t cols() const { return n_; }
  const std::vector<std::uint64_t>& row_sums() const { return row_; }
  const std::vector<std::uint64_t>& col_sums() const { return col_; }
  std::uint64_t total() const { return total_; }

 private:
  std::int64_t m_ = 0, n_ = 0;
  std::vector<std::uint64_t> row_;
  std::vector<std::uint64_t> col_;
  std::uint64_t total_ = 0;
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

/// The ABFT-predicted row/column sums of op(A) * op(B), computed from the
/// inputs alone (never from C), plus the magnitude sums that scale the
/// comparison tolerance.
struct PredictedSums {
  std::vector<double> row;      ///< predicted sum_j C[i][j]
  std::vector<double> col;      ///< predicted sum_i C[i][j]
  std::vector<double> row_mag;  ///< sum_j sum_k |a||b| per row
  std::vector<double> col_mag;  ///< sum_i sum_k |a||b| per column
};
/// `weight_sums` must be abft_weight_sums(b, trans_b).
PredictedSums abft_predicted_sums(const Tensor& a, const Tensor& b,
                                  bool trans_a, bool trans_b,
                                  const AbftWeightSums& weight_sums);

/// The product a checked multiply verifies. Called as product(a, trans_a)
/// for all of C, and as product(row, false) with one row of op(A) ([1, k])
/// to repair a single output. Rows must not interact — row i of a full
/// call bit-equal to that row computed alone, as on every matmul and
/// matmul_packed path — so the repair stores exactly what a clean multiply
/// would have.
using AbftProduct = std::function<Tensor(const Tensor& a, bool trans_a)>;

/// ABFT-checked product: runs `product`, verifies C = op(A) * op(B)
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
Tensor abft_checked_product(const Tensor& a, const Tensor& b, bool trans_a,
                            bool trans_b, const AbftWeightSums& weight_sums,
                            const AbftProduct& product, const AbftConfig& cfg,
                            AbftReport* report, PeFaultHook* mac_hook);

/// ABFT-guarded matmul(): abft_checked_product over matmul(a, b, trans_a,
/// trans_b) with weight sums built for this call.
Tensor abft_matmul(const Tensor& a, const Tensor& b, bool trans_a = false,
                   bool trans_b = false, const AbftConfig& cfg = {},
                   AbftReport* report = nullptr,
                   PeFaultHook* mac_hook = nullptr);

}  // namespace af
