#include "src/resilience/abft.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "src/kernels/backend.hpp"
#include "src/tensor/ops.hpp"
#include "src/util/parallel.hpp"

namespace af {
namespace {

// Chunk grains of the checksum passes. Like the matmul grains these are part
// of the determinism contract: fixed, never derived from the thread count.
constexpr std::int64_t kRowGrain = 16;
constexpr std::int64_t kColGrain = 256;  // B columns per axpy-walk chunk

std::uint32_t float_bits(float v) {
  std::uint32_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

void store_bits(float* v, std::uint32_t bits) {
  std::memcpy(v, &bits, sizeof(bits));
}

void check_rank2(const Tensor& t, const char* name) {
  AF_CHECK(t.rank() == 2,
           std::string(name) + " must be rank-2, got " + shape_str(t.shape()));
}

// Offers every freshly computed output value to the hook as a 32-bit
// accumulator register (the FP32 image *is* the writeback register of the
// software datapath). Runs serially so the Bernoulli fault stream is
// invariant under AF_THREADS.
void inject_mac_faults(Tensor& c, PeFaultHook* hook) {
  for (std::int64_t i = 0; i < c.numel(); ++i) {
    const std::uint32_t bits = float_bits(c[i]);
    auto acc = static_cast<std::int64_t>(bits);
    hook->on_accumulator(acc, 32);
    const auto flipped =
        static_cast<std::uint32_t>(static_cast<std::uint64_t>(acc));
    if (flipped != bits) store_bits(&c[i], flipped);
  }
}

}  // namespace

void AbftReport::merge(const AbftReport& other) {
  multiplies += other.multiplies;
  verifies += other.verifies;
  detected += other.detected;
  corrected += other.corrected;
  recomputes += other.recomputes;
  backoff_units += other.backoff_units;
  degraded += other.degraded;
  uncorrected += other.uncorrected;
}

// ----- algebraic sums --------------------------------------------------------

namespace {

// out[o] and mag[o] for the `count` fp32 rows at p (row stride ld) against
// y / yabs: the backend's checksum chains, one call per row chunk.
void checksum_rows(const KernelBackend& be, const float* p, std::int64_t ld,
                   std::int64_t count, std::int64_t k, const double* y,
                   const double* yabs, std::vector<double>& out,
                   std::vector<double>& mag) {
  out.assign(static_cast<std::size_t>(count), 0.0);
  mag.assign(static_cast<std::size_t>(count), 0.0);
  parallel_for(0, count, kRowGrain, [&](std::int64_t o0, std::int64_t o1) {
    be.checksum_dot_rows(p + o0 * ld, ld, o1 - o0, k, y, yabs,
                         out.data() + o0, mag.data() + o0);
  });
}

}  // namespace

AlgebraicSums abft_actual_sums(const Tensor& c) {
  check_rank2(c, "abft_actual_sums");
  const std::int64_t m = c.dim(0), n = c.dim(1);
  AlgebraicSums sums;
  sums.row.assign(static_cast<std::size_t>(m), 0.0);
  // Column partials are doubles, so combine order matters: parallel_reduce
  // folds them in ascending chunk order — one fixed association. Inside a
  // chunk four rows run as independent chains, and each column partial
  // still adds its rows in ascending order.
  sums.col = parallel_reduce(
      0, m, kRowGrain, std::vector<double>(static_cast<std::size_t>(n)),
      [&](std::int64_t i0, std::int64_t i1) {
        std::vector<double> part(static_cast<std::size_t>(n), 0.0);
        std::int64_t i = i0;
        for (; i + 4 <= i1; i += 4) {
          const float* c0 = c.data() + i * n;
          const float* c1 = c0 + n;
          const float* c2 = c1 + n;
          const float* c3 = c2 + n;
          double r0 = 0.0, r1 = 0.0, r2 = 0.0, r3 = 0.0;
          for (std::int64_t j = 0; j < n; ++j) {
            r0 += c0[j];
            r1 += c1[j];
            r2 += c2[j];
            r3 += c3[j];
            double& p = part[static_cast<std::size_t>(j)];
            p += c0[j];
            p += c1[j];
            p += c2[j];
            p += c3[j];
          }
          const auto r = static_cast<std::size_t>(i);
          sums.row[r] = r0;
          sums.row[r + 1] = r1;
          sums.row[r + 2] = r2;
          sums.row[r + 3] = r3;
        }
        for (; i < i1; ++i) {
          const float* crow = c.data() + i * n;
          double rsum = 0.0;
          for (std::int64_t j = 0; j < n; ++j) {
            rsum += crow[j];
            part[static_cast<std::size_t>(j)] += crow[j];
          }
          sums.row[static_cast<std::size_t>(i)] = rsum;
        }
        return part;
      },
      [](std::vector<double> acc, std::vector<double> part) {
        for (std::size_t j = 0; j < acc.size(); ++j) acc[j] += part[j];
        return acc;
      });
  return sums;
}

AbftWeightSums abft_weight_sums(const Tensor& b, bool trans_b) {
  check_rank2(b, "abft b");
  const std::int64_t k = trans_b ? b.dim(1) : b.dim(0);
  const std::int64_t n = trans_b ? b.dim(0) : b.dim(1);
  // op(B)[kk][j] sits at b.data() + kk * skk + j * sj.
  const std::int64_t ld = b.dim(1);
  const std::int64_t skk = trans_b ? 1 : ld, sj = trans_b ? ld : 1;
  AbftWeightSums ws;
  ws.sum.assign(static_cast<std::size_t>(k), 0.0);
  ws.abs.assign(static_cast<std::size_t>(k), 0.0);
  parallel_for(0, k, kRowGrain, [&](std::int64_t k0, std::int64_t k1) {
    for (std::int64_t kk = k0; kk < k1; ++kk) {
      double s = 0.0, sa = 0.0;
      for (std::int64_t j = 0; j < n; ++j) {
        const double v = b.data()[kk * skk + j * sj];
        s += v;
        sa += std::fabs(v);
      }
      ws.sum[static_cast<std::size_t>(kk)] = s;
      ws.abs[static_cast<std::size_t>(kk)] = sa;
    }
  });
  return ws;
}

PredictedSums abft_predicted_sums(const Tensor& a, const Tensor& b,
                                  bool trans_b,
                                  const AbftWeightSums& weight_sums,
                                  const KernelBackend* backend) {
  check_rank2(a, "abft a");
  check_rank2(b, "abft b");
  const std::int64_t m = a.dim(0);
  const std::int64_t k = a.dim(1);
  const std::int64_t kb = trans_b ? b.dim(1) : b.dim(0);
  const std::int64_t n = trans_b ? b.dim(0) : b.dim(1);
  AF_CHECK(k == kb, "abft inner dimensions disagree");
  AF_CHECK(weight_sums.sum.size() == static_cast<std::size_t>(k) &&
               weight_sums.abs.size() == static_cast<std::size_t>(k),
           "abft weight sums do not match the inner dimension");

  // asum[kk] = sum_i A[i][kk] and its magnitude analogue. Rows are the
  // outer loop, so a chunk's k entries advance as independent chains (the
  // inner loop vectorizes across kk), each still adding the rows in
  // ascending order.
  std::vector<double> asum(static_cast<std::size_t>(k), 0.0);
  std::vector<double> aabs(static_cast<std::size_t>(k), 0.0);
  parallel_for(0, k, kRowGrain, [&](std::int64_t k0, std::int64_t k1) {
    for (std::int64_t i = 0; i < m; ++i) {
      const float* arow = a.data() + i * k;
      for (std::int64_t kk = k0; kk < k1; ++kk) {
        const double v = arow[kk];
        asum[static_cast<std::size_t>(kk)] += v;
        aabs[static_cast<std::size_t>(kk)] += std::fabs(v);
      }
    }
  });

  // pred.row: A's rows against bsum. pred.col: op(B)'s columns against
  // asum — W's rows under trans_b, both through the backend's checksum
  // chains; otherwise an axpy walk down B's rows, which still gives each
  // column one chain ascending in kk.
  const KernelBackend& be =
      backend != nullptr ? *backend : active_backend();
  count_backend_dispatch(be);
  PredictedSums pred;
  checksum_rows(be, a.data(), k, m, k, weight_sums.sum.data(),
                weight_sums.abs.data(), pred.row, pred.row_mag);
  if (trans_b) {
    checksum_rows(be, b.data(), k, n, k, asum.data(), aabs.data(), pred.col,
                  pred.col_mag);
  } else {
    pred.col.assign(static_cast<std::size_t>(n), 0.0);
    pred.col_mag.assign(static_cast<std::size_t>(n), 0.0);
    parallel_for(0, n, kColGrain, [&](std::int64_t j0, std::int64_t j1) {
      for (std::int64_t kk = 0; kk < k; ++kk) {
        const float* brow = b.data() + kk * n;
        const double y = asum[static_cast<std::size_t>(kk)];
        const double yabs = aabs[static_cast<std::size_t>(kk)];
        for (std::int64_t j = j0; j < j1; ++j) {
          const double x = brow[j];
          pred.col[static_cast<std::size_t>(j)] += x * y;
          pred.col_mag[static_cast<std::size_t>(j)] += std::fabs(x) * yabs;
        }
      }
    });
  }
  return pred;
}

// ----- the checked product ---------------------------------------------------

namespace {

struct AlgebraicVerify {
  std::vector<std::int64_t> rows, cols;
  bool clean() const { return rows.empty() && cols.empty(); }
  bool single() const { return rows.size() == 1 && cols.size() == 1; }
};

// A sum disagrees when |actual - predicted| exceeds the magnitude-scaled
// roundoff bound. eps_f covers the kernel's float accumulation; the sum
// length factors cover both the k-products and the row/column fold.
AlgebraicVerify algebraic_verify(const AlgebraicSums& act,
                                 const PredictedSums& pred, double row_tol,
                                 double col_tol) {
  AlgebraicVerify v;
  for (std::size_t i = 0; i < act.row.size(); ++i) {
    const double tol = row_tol * pred.row_mag[i] +
                       std::numeric_limits<float>::denorm_min();
    const double diff = act.row[i] - pred.row[i];
    if (!(std::fabs(diff) <= tol)) {  // NaN compares false -> flagged
      v.rows.push_back(static_cast<std::int64_t>(i));
    }
  }
  for (std::size_t j = 0; j < act.col.size(); ++j) {
    const double tol = col_tol * pred.col_mag[j] +
                       std::numeric_limits<float>::denorm_min();
    const double diff = act.col[j] - pred.col[j];
    if (!(std::fabs(diff) <= tol)) {
      v.cols.push_back(static_cast<std::int64_t>(j));
    }
  }
  return v;
}

// Row r of A as a [1, k] tensor: the slice a single-element repair
// recomputes.
Tensor a_row(const Tensor& a, std::int64_t r) {
  const std::int64_t k = a.dim(1);
  Tensor row({1, k});
  std::copy_n(a.data() + r * k, k, row.data());
  return row;
}

}  // namespace

Tensor abft_checked_product(const Tensor& a, const Tensor& b, bool trans_b,
                            const AbftWeightSums& weight_sums,
                            const AbftProduct& product, const AbftConfig& cfg,
                            AbftReport* report, PeFaultHook* mac_hook) {
  AF_CHECK(cfg.max_recomputes >= 0, "negative recompute budget");
  const PredictedSums pred =
      abft_predicted_sums(a, b, trans_b, weight_sums, cfg.backend);
  const std::int64_t m = a.dim(0);
  const std::int64_t k = a.dim(1);
  const std::int64_t n = trans_b ? b.dim(0) : b.dim(1);
  const double eps = static_cast<double>(std::numeric_limits<float>::epsilon());
  // Roundoff bounds, relative to each row/column magnitude sum.
  const double row_tol = 4.0 * eps * static_cast<double>(k + n);
  const double col_tol = 4.0 * eps * static_cast<double>(k + m);

  AbftReport local;
  local.multiplies = 1;
  Tensor c;
  int attempt = 0;
  for (;;) {
    c = product(a);
    AF_CHECK(c.rank() == 2 && c.dim(0) == m && c.dim(1) == n,
             "abft product returned " + shape_str(c.shape()));
    if (mac_hook != nullptr) inject_mac_faults(c, mac_hook);
    ++local.verifies;
    AlgebraicVerify v = algebraic_verify(abft_actual_sums(c), pred, row_tol,
                                         col_tol);
    if (v.clean()) break;
    ++local.detected;

    if (v.single() && cfg.policy >= RecoveryPolicy::kCorrect) {
      // Single-error correct path: the (row, col) mismatch pair localizes
      // one output. Its row is recomputed alone through the same product
      // (the repair unit is assumed scrubbed, so no re-injection); rows
      // never interact, so the element gets exactly the bits a clean
      // multiply stores. Then confirm the sums close.
      const std::int64_t r = v.rows[0], s = v.cols[0];
      c[r * n + s] = product(a_row(a, r))[s];
      ++local.verifies;
      v = algebraic_verify(abft_actual_sums(c), pred, row_tol, col_tol);
      if (v.clean()) {
        ++local.corrected;
        break;
      }
    }

    if (cfg.policy >= RecoveryPolicy::kRecompute &&
        attempt < cfg.max_recomputes) {
      ++attempt;
      ++local.recomputes;
      local.backoff_units += std::int64_t{1} << attempt;  // modeled backoff
      continue;  // full recompute, retried under fire (hook re-injects)
    }

    // Ladder exhausted.
    if (cfg.policy == RecoveryPolicy::kDegradeToZero) {
      // Scrub the suspect region: the flagged row x column intersection
      // when both sides localized, else every flagged row/column outright.
      // Exact 0 is representable in all five formats, so the damage is
      // bounded — degraded, not garbage.
      if (!v.rows.empty() && !v.cols.empty()) {
        for (std::int64_t r : v.rows) {
          for (std::int64_t s : v.cols) {
            c[r * n + s] = 0.0f;
            ++local.degraded;
          }
        }
      } else {
        for (std::int64_t r : v.rows) {
          for (std::int64_t j = 0; j < n; ++j) c[r * n + j] = 0.0f;
          local.degraded += n;
        }
        for (std::int64_t s : v.cols) {
          for (std::int64_t i = 0; i < m; ++i) c[i * n + s] = 0.0f;
          local.degraded += m;
        }
      }
      break;
    }
    if (cfg.policy == RecoveryPolicy::kDetect) {
      ++local.uncorrected;  // observe-only: record and propagate as-is
      break;
    }
    if (report != nullptr) report->merge(local);
    throw FaultError(cfg.layer, FaultKind::kUncorrectable,
                     std::to_string(v.rows.size()) + " row / " +
                         std::to_string(v.cols.size()) +
                         " column checksum mismatches after " +
                         std::to_string(attempt) + " recompute(s)");
  }
  if (report != nullptr) report->merge(local);
  return c;
}

Tensor abft_matmul(const Tensor& a, const Tensor& b, bool trans_b,
                   const AbftConfig& cfg, AbftReport* report,
                   PeFaultHook* mac_hook) {
  return abft_checked_product(
      a, b, trans_b, abft_weight_sums(b, trans_b),
      [&](const Tensor& x) { return matmul(x, b, false, trans_b); }, cfg,
      report, mac_hook);
}

}  // namespace af
