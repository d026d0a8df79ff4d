// Statistics helpers of the benchmark program: order statistics, process
// CPU and host steal readings, the per-slice window estimates and span self
// time. Pure functions over plain values so selftest.cpp can pin each one on
// fixed inputs.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

namespace perfbench {

/// Linear-interpolation percentile (NumPy's default "linear" method):
/// position h = (n-1)*q between the two nearest order statistics. q in
/// [0, 1]. Returns 0 for an empty sample.
double percentile(std::vector<double> values, double q);
double median(std::vector<double> values);
double mean(const std::vector<double>& values);

/// Nonzero buckets of a UsHistogram as (microseconds, count) pairs.
using UsCounts = std::vector<std::pair<std::uint32_t, std::uint32_t>>;

/// Exact histogram of whole-microsecond samples (larger than kMaxUs clamp
/// to it). Percentiles equal percentile() over the samples, while memory
/// stays fixed however many operations a run completes — so the sample
/// store does not leak into the peak_rss_mb metric.
class UsHistogram {
 public:
  static constexpr std::int64_t kMaxUs = 100000;

  void add(std::int64_t us, std::uint32_t n = 1);
  void add(const UsCounts& counts);
  void merge(const UsHistogram& other);
  UsCounts nonzero() const;
  void clear();
  std::int64_t count() const { return n_; }
  double mean() const { return n_ > 0 ? sum_ / static_cast<double>(n_) : 0.0; }
  double percentile(double q) const;

 private:
  std::int64_t value_at_rank(std::int64_t rank) const;

  std::vector<std::uint32_t> counts_ =
      std::vector<std::uint32_t>(static_cast<std::size_t>(kMaxUs) + 1);
  std::int64_t n_ = 0;
  double sum_ = 0.0;
};

/// Process CPU time (user + sys, every thread) so far, in seconds.
double process_cpu_s();

/// Aggregate jiffy counters of the host's first /proc/stat line.
struct HostTicks {
  std::uint64_t steal = 0;
  std::uint64_t total = 0;
};
/// Reads /proc/stat; zeros when it is unavailable.
HostTicks host_ticks();
/// Share of host CPU time stolen by the hypervisor between two readings.
double steal_share(const HostTicks& begin, const HostTicks& end);

/// What one slice of a measured window recorded.
struct SliceRecord {
  double wall_s = 0.0;          ///< slice duration
  double cpu_s = 0.0;           ///< process CPU used during the slice
  std::int64_t ops = 0;         ///< completed requests (mlp) or tokens
  std::int64_t requests = 0;    ///< completed server operations
  std::uint64_t dispatches = 0; ///< kernel-backend dispatches
  HostTicks host;               ///< host tick deltas over the slice
  bool traced = false;          ///< spans were recorded during the slice
  UsCounts latency_us, ttft_us;  ///< the slice's samples
};

/// A slice whose host steal share exceeds this measured the hypervisor,
/// not the program.
inline constexpr double kMaxSliceSteal = 0.03;
bool slice_clean(const SliceRecord& s);

/// The slices the end-to-end estimates use. Of the clean slices with
/// operations (every slice with operations when none is clean), the
/// quarter with the least process CPU per operation, rounded up. Load from
/// other tenants of the host only ever slows a slice, so the undisturbed
/// quarter measures the program and the rest mostly measures the host.
std::vector<bool> undisturbed_slices(const std::vector<SliceRecord>& slices);

/// End-to-end estimates over the slices `keep` selects, pooled: throughput
/// and CPU per operation as sum over sum, percentiles over the kept
/// slices' samples together.
struct WindowEstimate {
  double rate = 0.0;
  double cpu_us_per_op = 0.0;
  double latency_p50_us = 0.0, latency_p90_us = 0.0;
  double ttft_p50_us = 0.0, ttft_p90_us = 0.0;
  std::int64_t slices = 0;  ///< slices kept
  std::int64_t latency_n = 0, ttft_n = 0;
};
WindowEstimate estimate_window(const std::vector<SliceRecord>& slices,
                               const std::vector<bool>& keep);

/// Median CPU per operation over the clean slices with operations whose
/// `traced` flag equals `traced`.
double median_cpu_us_per_op(const std::vector<SliceRecord>& slices,
                            bool traced);

/// Process peak resident set size in MiB.
double peak_rss_mb();

/// One traced interval. `parent` indexes the enclosing span in the same
/// vector (-1 for a root); every span of one operation carries its id.
struct Span {
  int name = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t parent = -1;
  std::int64_t op = -1;
};

/// Self time of every span: its duration minus the part of its interval
/// covered by the union of its children's intervals (children clipped to
/// the parent), so overlapping children are not counted twice.
std::vector<std::int64_t> self_times_ns(const std::vector<Span>& spans);

}  // namespace perfbench
