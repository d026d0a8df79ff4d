#include "stats.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>
#include <utility>

namespace perfbench {

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double h = static_cast<double>(values.size() - 1) *
                   std::clamp(q, 0.0, 1.0);
  const auto lo = static_cast<std::size_t>(std::floor(h));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (h - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double median(std::vector<double> values) {
  return percentile(std::move(values), 0.5);
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

void UsHistogram::add(std::int64_t us, std::uint32_t n) {
  const std::int64_t v = std::clamp<std::int64_t>(us, 0, kMaxUs);
  counts_[static_cast<std::size_t>(v)] += n;
  n_ += n;
  sum_ += static_cast<double>(v) * n;
}

void UsHistogram::add(const UsCounts& counts) {
  for (const auto& [us, n] : counts) add(us, n);
}

UsCounts UsHistogram::nonzero() const {
  UsCounts out;
  for (std::size_t v = 0; v < counts_.size(); ++v) {
    if (counts_[v] > 0) out.emplace_back(static_cast<std::uint32_t>(v), counts_[v]);
  }
  return out;
}

std::int64_t UsHistogram::value_at_rank(std::int64_t rank) const {
  std::int64_t seen = 0;
  for (std::size_t v = 0; v < counts_.size(); ++v) {
    seen += counts_[v];
    if (seen > rank) return static_cast<std::int64_t>(v);
  }
  return kMaxUs;
}

double UsHistogram::percentile(double q) const {
  if (n_ == 0) return 0.0;
  const double h = static_cast<double>(n_ - 1) * std::clamp(q, 0.0, 1.0);
  const auto lo = static_cast<std::int64_t>(std::floor(h));
  const auto v_lo = static_cast<double>(value_at_rank(lo));
  const auto v_hi = static_cast<double>(value_at_rank(std::min(lo + 1, n_ - 1)));
  return v_lo + (h - static_cast<double>(lo)) * (v_hi - v_lo);
}

double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto tv_s = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return tv_s(ru.ru_utime) + tv_s(ru.ru_stime);
}

void UsHistogram::merge(const UsHistogram& other) {
  for (std::size_t v = 0; v < counts_.size(); ++v) counts_[v] += other.counts_[v];
  n_ += other.n_;
  sum_ += other.sum_;
}

void UsHistogram::clear() {
  std::fill(counts_.begin(), counts_.end(), 0u);
  n_ = 0;
  sum_ = 0.0;
}

bool slice_clean(const SliceRecord& s) {
  return steal_share(HostTicks{}, s.host) <= kMaxSliceSteal;
}

namespace {

double cpu_per_op(const SliceRecord& s) {
  return s.cpu_s * 1e6 / static_cast<double>(s.ops);
}

}  // namespace

std::vector<bool> undisturbed_slices(const std::vector<SliceRecord>& slices) {
  bool any_clean = false;
  for (const SliceRecord& s : slices) any_clean |= s.ops > 0 && slice_clean(s);
  std::vector<std::size_t> cand;
  for (std::size_t i = 0; i < slices.size(); ++i) {
    if (slices[i].ops > 0 && (!any_clean || slice_clean(slices[i]))) {
      cand.push_back(i);
    }
  }
  std::stable_sort(cand.begin(), cand.end(), [&](std::size_t a, std::size_t b) {
    return cpu_per_op(slices[a]) < cpu_per_op(slices[b]);
  });
  std::vector<bool> keep(slices.size(), false);
  for (std::size_t k = 0; k < (cand.size() + 3) / 4; ++k) keep[cand[k]] = true;
  return keep;
}

WindowEstimate estimate_window(const std::vector<SliceRecord>& slices,
                               const std::vector<bool>& keep) {
  WindowEstimate e;
  double wall = 0.0, cpu = 0.0;
  std::int64_t ops = 0;
  UsHistogram latency, ttft;
  for (std::size_t i = 0; i < slices.size(); ++i) {
    if (!keep[i]) continue;
    const SliceRecord& s = slices[i];
    ++e.slices;
    wall += s.wall_s;
    cpu += s.cpu_s;
    ops += s.ops;
    latency.add(s.latency_us);
    ttft.add(s.ttft_us);
  }
  if (wall > 0.0) e.rate = static_cast<double>(ops) / wall;
  if (ops > 0) e.cpu_us_per_op = cpu * 1e6 / static_cast<double>(ops);
  e.latency_p50_us = latency.percentile(0.5);
  e.latency_p90_us = latency.percentile(0.9);
  e.ttft_p50_us = ttft.percentile(0.5);
  e.ttft_p90_us = ttft.percentile(0.9);
  e.latency_n = latency.count();
  e.ttft_n = ttft.count();
  return e;
}

double median_cpu_us_per_op(const std::vector<SliceRecord>& slices,
                            bool traced) {
  std::vector<double> v;
  for (const SliceRecord& s : slices) {
    if (s.ops > 0 && s.traced == traced && slice_clean(s)) {
      v.push_back(cpu_per_op(s));
    }
  }
  return median(std::move(v));
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

HostTicks host_ticks() {
  HostTicks t;
  std::ifstream in("/proc/stat");
  std::string line;
  if (!in || !std::getline(in, line) || line.rfind("cpu ", 0) != 0) return t;
  std::istringstream fields(line.substr(4));
  // user nice system idle iowait irq softirq steal [guest guest_nice]; guest
  // time is already included in user/nice, so it is not added again.
  std::uint64_t v = 0;
  for (int i = 0; i < 8 && (fields >> v); ++i) {
    t.total += v;
    if (i == 7) t.steal = v;
  }
  return t;
}

double steal_share(const HostTicks& begin, const HostTicks& end) {
  if (end.total <= begin.total) return 0.0;
  return static_cast<double>(end.steal - begin.steal) /
         static_cast<double>(end.total - begin.total);
}

std::vector<std::int64_t> self_times_ns(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      spans.size());
  for (const Span& s : spans) {
    if (s.parent < 0 || s.parent >= static_cast<std::int64_t>(spans.size())) {
      continue;
    }
    const Span& p = spans[static_cast<std::size_t>(s.parent)];
    const std::int64_t lo = std::max(s.start_ns, p.start_ns);
    const std::int64_t hi = std::min(s.end_ns, p.end_ns);
    if (hi > lo) children[static_cast<std::size_t>(s.parent)].push_back({lo, hi});
  }
  std::vector<std::int64_t> self(spans.size(), 0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& iv = children[i];
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0, cur_lo = 0, cur_hi = 0;
    bool open = false;
    for (const auto& [lo, hi] : iv) {
      if (open && lo <= cur_hi) {
        cur_hi = std::max(cur_hi, hi);
        continue;
      }
      if (open) covered += cur_hi - cur_lo;
      cur_lo = lo;
      cur_hi = hi;
      open = true;
    }
    if (open) covered += cur_hi - cur_lo;
    self[i] = std::max<std::int64_t>(0, spans[i].end_ns - spans[i].start_ns) -
              covered;
  }
  return self;
}

}  // namespace perfbench
