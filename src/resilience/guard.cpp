#include "src/resilience/guard.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "src/numerics/quantizer.hpp"
#include "src/tensor/ops.hpp"
#include "src/util/parallel.hpp"

namespace af {
namespace {

constexpr std::int64_t kScanGrain = 1 << 13;

}  // namespace

void ResilienceReport::merge(const ResilienceReport& other) {
  events.insert(events.end(), other.events.begin(), other.events.end());
  abft.merge(other.abft);
  tensors_checked += other.tensors_checked;
  values_flagged += other.values_flagged;
  values_scrubbed += other.values_scrubbed;
  values_clamped += other.values_clamped;
  reruns += other.reruns;
}

void LayerGuard::calibrate(const Quantizer& q, double gain) {
  AF_CHECK(gain > 0.0, "guard calibration gain must be positive");
  cfg_.range_limit =
      static_cast<float>(static_cast<double>(q.value_range()) * gain);
}

std::int64_t LayerGuard::apply(Tensor& t, ResilienceReport* report) const {
  // Per-chunk scan statistics. Chunks are disjoint, so the in-place remedy
  // is race-free, and the combine runs in parallel_reduce's fixed ascending
  // order — the report is identical for any AF_THREADS.
  struct Stats {
    std::int64_t nonfinite = 0, range = 0, scrubbed = 0, clamped = 0;
    float worst_nonfinite = 0.0f, worst_range = 0.0f;
  };
  const float bound = cfg_.range_limit;
  const RecoveryPolicy policy = cfg_.policy;
  // Every value the scan below flags has magnitude bits above lim's: NaN
  // and ±Inf compare above any finite limit as integers, and a finite value
  // exceeds a positive bound exactly when its magnitude bits do. Without a
  // finite positive bound (0, negative, +inf or NaN: no range excess to
  // find) the limit is FLT_MAX, leaving only the non-finite values.
  const float lim = bound > 0.0f && bound <= std::numeric_limits<float>::max()
                        ? bound
                        : std::numeric_limits<float>::max();
  std::int32_t lim_bits = 0;
  std::memcpy(&lim_bits, &lim, sizeof(lim_bits));
  const Stats total = parallel_reduce(
      0, t.numel(), kScanGrain, Stats{},
      [&](std::int64_t i0, std::int64_t i1) {
        Stats s;
        // Branch-free pre-check: a clean chunk skips the per-element walk.
        const float* p = t.data();
        std::int32_t over = 0;
        for (std::int64_t i = i0; i < i1; ++i) {
          std::int32_t u = 0;
          std::memcpy(&u, p + i, sizeof(u));
          over |= (u & 0x7fffffff) > lim_bits;
        }
        if (over == 0) return s;
        for (std::int64_t i = i0; i < i1; ++i) {
          const float v = t[i];
          const bool nonfinite = !std::isfinite(v);
          const bool out_of_range =
              !nonfinite && bound > 0.0f && std::fabs(v) > bound;
          if (!nonfinite && !out_of_range) continue;
          if (nonfinite) {
            ++s.nonfinite;
            if (std::isinf(v)) {
              s.worst_nonfinite = std::numeric_limits<float>::infinity();
            }
          } else {
            ++s.range;
            s.worst_range = std::max(s.worst_range, std::fabs(v));
          }
          switch (policy) {
            case RecoveryPolicy::kDetect:
              break;  // observe only
            case RecoveryPolicy::kCorrect:
            case RecoveryPolicy::kRecompute:
              // Best available repair without a checksum: the hardened
              // value — NaN to 0, everything else into [-bound, bound].
              if (std::isnan(v) || bound <= 0.0f) {
                t[i] = 0.0f;
              } else {
                t[i] = v > 0.0f ? bound : -bound;
              }
              ++s.clamped;
              break;
            case RecoveryPolicy::kDegradeToZero:
              t[i] = 0.0f;
              ++s.scrubbed;
              break;
          }
        }
        return s;
      },
      [](Stats acc, Stats part) {
        acc.nonfinite += part.nonfinite;
        acc.range += part.range;
        acc.scrubbed += part.scrubbed;
        acc.clamped += part.clamped;
        acc.worst_nonfinite = std::max(acc.worst_nonfinite,
                                       part.worst_nonfinite);
        acc.worst_range = std::max(acc.worst_range, part.worst_range);
        return acc;
      });

  const std::int64_t flagged = total.nonfinite + total.range;
  if (report != nullptr) {
    ++report->tensors_checked;
    report->values_flagged += flagged;
    report->values_scrubbed += total.scrubbed;
    report->values_clamped += total.clamped;
    if (total.nonfinite > 0) {
      report->events.push_back({layer_, FaultKind::kNonFinite,
                                total.nonfinite, total.worst_nonfinite,
                                policy});
    }
    if (total.range > 0) {
      report->events.push_back({layer_, FaultKind::kRangeViolation,
                                total.range, total.worst_range, policy});
    }
  }
  return flagged;
}

Tensor LayerGuard::run(const std::function<Tensor()>& fn,
                       const std::vector<std::int64_t>& fallback_shape,
                       ResilienceReport* report) const {
  int attempt = 0;
  for (;;) {
    try {
      Tensor y = fn();
      apply(y, report);
      return y;
    } catch (const FaultError& err) {
      if (cfg_.policy >= RecoveryPolicy::kRecompute &&
          attempt < cfg_.max_reruns) {
        ++attempt;
        if (report != nullptr) ++report->reruns;
        continue;
      }
      if (cfg_.policy == RecoveryPolicy::kDegradeToZero) {
        Tensor fallback = Tensor::zeros(fallback_shape);
        if (report != nullptr) {
          ++report->tensors_checked;
          report->values_scrubbed += fallback.numel();
          report->events.push_back({layer_, err.kind(), fallback.numel(),
                                    0.0f, RecoveryPolicy::kDegradeToZero});
        }
        return fallback;
      }
      throw;
    }
  }
}

}  // namespace af
