#include "harness.hpp"

#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>

#include "src/kernels/backend.hpp"

namespace perfbench {

namespace {

constexpr double kWarmupSeconds = 2.0;
// Short slices: co-tenant slowdowns come and go within a second, so a
// quarter-second slice is mostly either disturbed or not.
constexpr double kSliceSeconds = 0.25;
constexpr int kSlicesPerPause = 4;
constexpr int kColdStartsPerPause = 3;

/// Process-wide counters read at both ends of a slice.
struct Mark {
  std::int64_t t_ns = 0;
  double cpu_s = 0.0;
  HostTicks host;
  std::uint64_t dispatches = 0;  ///< kernel-backend dispatches, all backends
};

Mark mark() {
  Mark m;
  m.t_ns = now_ns();
  m.cpu_s = process_cpu_s();
  m.host = host_ticks();
  m.dispatches = af::backend_dispatch_count(af::BackendKind::kScalar) +
                 af::backend_dispatch_count(af::BackendKind::kAvx2);
  return m;
}

// The CPU split_cpus() kept for the generator, or -1.
int g_generator_cpu = -1;

}  // namespace

void split_cpus(int server_threads) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0 ||
      CPU_COUNT(&allowed) < 2) {
    return;
  }
  cpu_set_t server;
  CPU_ZERO(&server);
  int taken = 0;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (!CPU_ISSET(c, &allowed)) continue;
    if (g_generator_cpu < 0) {
      g_generator_cpu = c;
    } else if (taken < server_threads) {
      CPU_SET(c, &server);
      ++taken;
    }
  }
  pthread_setaffinity_np(pthread_self(), sizeof(server), &server);
}

const char* span_name(int name) {
  switch (name) {
    case kSpanOp: return "op";
    case kSpanSubmit: return "serve.submit";
    case kSpanQueue: return "serve.queue";
    case kSpanCoalesce: return "serve.coalesce";
    case kSpanExec: return "runtime.exec";
    case kSpanForward: return "models.forward";
    case kSpanDecoderBuild: return "runtime.decoder_build";
    case kSpanPrefill: return "runtime.prefill";
    case kSpanStep: return "runtime.step";
    default: return "unknown";
  }
}

std::vector<Span> build_spans(const std::vector<OpTiming>& ops,
                              std::vector<WorkerSpan> worker,
                              std::int64_t* clipped_ns) {
  std::sort(worker.begin(), worker.end(),
            [](const WorkerSpan& a, const WorkerSpan& b) {
              return a.op != b.op ? a.op < b.op : a.start_ns < b.start_ns;
            });
  std::vector<const OpTiming*> order;
  order.reserve(ops.size());
  for (const OpTiming& t : ops) order.push_back(&t);
  std::sort(order.begin(), order.end(),
            [](const OpTiming* a, const OpTiming* b) { return a->op < b->op; });

  std::vector<Span> spans;
  spans.reserve(ops.size() * 5 + worker.size());
  *clipped_ns = 0;
  std::size_t w = 0;
  for (const OpTiming* t : order) {
    const std::int64_t s0 = t->submit_begin_ns;
    const std::int64_t done = std::max(t->done_ns, s0);
    const std::int64_t server_end = s0 + t->total_us * 1000;
    *clipped_ns += std::max<std::int64_t>(0, server_end - done);
    const std::int64_t end = std::min(server_end, done);
    // Monotone boundaries: submit | queue | coalesce | exec.
    const std::int64_t submit_end = std::clamp(t->submit_end_ns, s0, end);
    const std::int64_t exec_start =
        std::clamp(s0 + t->queue_us * 1000, submit_end, end);
    const std::int64_t coalesce_start =
        std::clamp(exec_start - t->coalesce_us * 1000, submit_end, exec_start);

    const auto root = static_cast<std::int64_t>(spans.size());
    spans.push_back({kSpanOp, s0, done, -1, t->op});
    spans.push_back({kSpanSubmit, s0, submit_end, root, t->op});
    spans.push_back({kSpanQueue, submit_end, coalesce_start, root, t->op});
    if (t->coalesce_us > 0) {
      spans.push_back({kSpanCoalesce, coalesce_start, exec_start, root, t->op});
    }
    const auto exec = static_cast<std::int64_t>(spans.size());
    spans.push_back({kSpanExec, exec_start, end, root, t->op});

    while (w < worker.size() && worker[w].op < t->op) ++w;
    std::int64_t floor_ns = exec_start;
    for (; w < worker.size() && worker[w].op == t->op; ++w) {
      // Clip into exec and after the previous sibling: the benchmark clock
      // and the server's admission clock differ by the few microseconds
      // between the submit call's start and its admission stamp.
      const std::int64_t lo = std::clamp(worker[w].start_ns, floor_ns, end);
      const std::int64_t hi = std::clamp(worker[w].end_ns, lo, end);
      spans.push_back({worker[w].name, lo, hi, exec, t->op});
      floor_ns = hi;
    }
  }
  return spans;
}

SpanSummary summarize_spans(const std::vector<Span>& spans,
                            std::int64_t clipped_ns) {
  SpanSummary sum;
  sum.self_us.assign(kSpanNameCount, 0.0);
  const std::vector<std::int64_t> self = self_times_ns(spans);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const int name = spans[i].name;
    if (name >= 0 && name < kSpanNameCount) {
      sum.self_us[static_cast<std::size_t>(name)] +=
          static_cast<double>(self[i]) / 1000.0;
    }
    if (spans[i].parent < 0) {
      sum.root_us +=
          static_cast<double>(spans[i].end_ns - spans[i].start_ns) / 1000.0;
      ++sum.roots;
    }
  }
  sum.spans = static_cast<std::int64_t>(spans.size());
  sum.clipped_us = static_cast<double>(clipped_ns) / 1000.0;
  return sum;
}

bool write_spans(const std::string& path, const std::vector<Span>& spans) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  const std::int64_t base = spans.empty() ? 0 : spans.front().start_ns;
  out << "name,start_ns,end_ns,parent,op\n";
  for (const Span& s : spans) {
    out << span_name(s.name) << ',' << (s.start_ns - base) << ','
        << (s.end_ns - base) << ',' << s.parent << ',' << s.op << '\n';
  }
  return static_cast<bool>(out);
}

void SliceSamples::clear() {
  latency_us.clear();
  ttft_us.clear();
  queue_us.clear();
  coalesce_us.clear();
  ops = 0;
  requests = 0;
  submit_ns = 0.0;
}

LoopResult run_loop(const Options& opt, ClosedLoop& loop, WorkerTrace& trace) {
  if (g_generator_cpu >= 0) {
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(g_generator_cpu, &one);
    pthread_setaffinity_np(pthread_self(), sizeof(one), &one);
  }
  LoopResult out;
  LoopState st;
  auto run_until = [&](std::int64_t deadline) {
    while (!loop.idle() && now_ns() < deadline) loop.complete_oldest(st);
  };
  auto intermission = [&] {
    st.follow = LoopState::kHold;
    st.slice = nullptr;
    st.traced = false;
    while (!loop.idle()) loop.complete_oldest(st);
    for (int i = 0; i < kColdStartsPerPause; ++i) {
      out.cold_start_s.push_back(loop.cold_start());
    }
    st.follow = LoopState::kSubmit;
    loop.fill(st);
  };

  loop.fill(st);
  run_until(now_ns() + static_cast<std::int64_t>(kWarmupSeconds * 1e9));
  intermission();

  const auto window_ns = static_cast<std::int64_t>(opt.seconds * 1e9);
  const auto slice_ns = static_cast<std::int64_t>(kSliceSeconds * 1e9);
  std::int64_t measured_ns = 0;
  SliceSamples samples;
  for (std::int64_t seq = 0; measured_ns < window_ns && !loop.idle(); ++seq) {
    samples.clear();
    st.slice = &samples;
    st.slice_seq = seq;
    st.traced = opt.trace && seq % 2 == 1;
    trace.set_active(st.traced);
    const Mark m0 = mark();
    run_until(m0.t_ns + std::min(slice_ns, window_ns - measured_ns));
    const Mark m1 = mark();
    trace.set_active(false);

    SliceRecord r;
    r.wall_s = static_cast<double>(m1.t_ns - m0.t_ns) / 1e9;
    r.cpu_s = m1.cpu_s - m0.cpu_s;
    r.ops = samples.ops;
    r.requests = samples.requests;
    r.dispatches = m1.dispatches - m0.dispatches;
    r.host = {m1.host.steal - m0.host.steal, m1.host.total - m0.host.total};
    r.traced = st.traced;
    r.latency_us = samples.latency_us.nonzero();
    r.ttft_us = samples.ttft_us.nonzero();
    out.slices.push_back(r);
    if (st.traced) {
      out.queue_us.merge(samples.queue_us);
      out.coalesce_us.merge(samples.coalesce_us);
      out.submit_ns += samples.submit_ns;
      out.requests += samples.requests;
    }
    measured_ns += m1.t_ns - m0.t_ns;
    if ((seq + 1) % kSlicesPerPause == 0 && measured_ns < window_ns) {
      intermission();
    }
  }

  st = LoopState{};
  st.follow = LoopState::kWindDown;
  while (!loop.idle()) loop.complete_oldest(st);
  return out;
}

void report_common(Result& res, const Options& opt, const Report& rep,
                   const LoopResult& loop) {
  res.attempted = rep.attempted;
  res.failed = rep.failed + rep.wrong;
  res.correct = res.failed == 0 && rep.extra_ok;
  char line[320];
  std::snprintf(line, sizeof(line),
                "checked %lld operations: %lld wrong output, %lld "
                "failed/refused; error_rate %.6f",
                static_cast<long long>(rep.attempted),
                static_cast<long long>(rep.wrong),
                static_cast<long long>(rep.failed),
                rep.attempted > 0 ? static_cast<double>(res.failed) /
                                        static_cast<double>(rep.attempted)
                                  : 0.0);
  res.note(line);

  const std::vector<bool> keep = undisturbed_slices(loop.slices);
  const WindowEstimate e = estimate_window(loop.slices, keep);
  double wall = 0.0;
  std::int64_t ops = 0, clean = 0;
  HostTicks host;
  for (const SliceRecord& s : loop.slices) {
    wall += s.wall_s;
    ops += s.ops;
    clean += slice_clean(s) ? 1 : 0;
    host.steal += s.host.steal;
    host.total += s.host.total;
  }
  std::snprintf(line, sizeof(line),
                "window %.3f s, %lld %ss, host steal share %.4f, %zu slices: "
                "%lld clean, %lld kept; %zu cold starts",
                wall, static_cast<long long>(ops), rep.per.c_str(),
                steal_share(HostTicks{}, host), loop.slices.size(),
                static_cast<long long>(clean),
                static_cast<long long>(e.slices), loop.cold_start_s.size());
  res.note(line);
  if (opt.trace) return;

  std::snprintf(line, sizeof(line),
                "samples in kept slices: %lld latency, %lld ttft",
                static_cast<long long>(e.latency_n),
                static_cast<long long>(e.ttft_n));
  res.note(line);
  res.add("setup_s", median(loop.cold_start_s), "s");
  res.add("throughput_per_s", e.rate, "1/s");
  res.add("cpu_us_per_op", e.cpu_us_per_op, "us");
  res.add("latency_p50_ms", e.latency_p50_us / 1e3, "ms");
  res.add("latency_p90_ms", e.latency_p90_us / 1e3, "ms");
  res.add("ttft_p50_ms", e.ttft_p50_us / 1e3, "ms");
  res.add("ttft_p90_ms", e.ttft_p90_us / 1e3, "ms");
  res.add("peak_rss_mb", peak_rss_mb(), "MB");
}

void report_serving(Result& res, const LoopResult& loop,
                    const af::StatsSnapshot& final_stats) {
  res.add("serve.queue_wait_p50_us", loop.queue_us.percentile(0.5), "us");
  res.add("serve.queue_wait_p90_us", loop.queue_us.percentile(0.9), "us");
  res.add("serve.coalesce_wait_us", loop.coalesce_us.mean(), "us");
  res.add("serve.batch_occupancy",
          final_stats.batches_executed > 0
              ? static_cast<double>(final_stats.batched_requests) /
                    static_cast<double>(final_stats.batches_executed)
              : 0.0,
          "requests");
  res.add("serve.submit_us",
          loop.submit_ns / 1e3 /
              static_cast<double>(std::max<std::int64_t>(loop.requests, 1)),
          "us");
  res.add("serve.failed", static_cast<double>(final_stats.failed), "count");
  res.add("serve.shed",
          static_cast<double>(final_stats.rejected_overload +
                              final_stats.rejected_open +
                              final_stats.shed_deadline),
          "count");
  res.add("serve.retries", static_cast<double>(final_stats.retries), "count");
  res.add("serve.degraded", static_cast<double>(final_stats.degraded), "count");
  std::uint64_t dispatches = 0;
  std::int64_t ops = 0;
  for (const SliceRecord& s : loop.slices) {
    dispatches += s.dispatches;
    ops += s.ops;
  }
  res.add("kernels.dispatches_per_op",
          static_cast<double>(dispatches) /
              static_cast<double>(std::max<std::int64_t>(ops, 1)),
          "count");
}

void report_trace(Result& res, const Options& opt, const LoopResult& loop,
                  int depth, const std::vector<Span>& spans,
                  const SpanSummary& sum) {
  const double n = static_cast<double>(std::max<std::int64_t>(sum.roots, 1));
  char line[320];
  double total = 0.0;
  for (int k = 0; k < kSpanNameCount; ++k) {
    const double us = sum.self_us[static_cast<std::size_t>(k)];
    total += us;
    if (us <= 0.0) continue;
    std::snprintf(line, sizeof(line), "self %-22s %10.3f us/op", span_name(k),
                  us / n);
    res.note(line);
  }

  // Little's law over the traced slices: with `depth` operations always
  // outstanding, the mean time from submit to the generator seeing the
  // answer is depth x wall time / operations completed. It counts every
  // operation of those slices, not only the sampled span trees, and uses
  // no span boundary, so it checks both the sampling and the trees.
  double wall = 0.0;
  std::int64_t requests = 0;
  for (const SliceRecord& s : loop.slices) {
    if (!s.traced) continue;
    wall += s.wall_s;
    requests += s.requests;
  }
  const double little_us =
      requests > 0 ? depth * wall * 1e6 / static_cast<double>(requests) : 0.0;
  std::snprintf(line, sizeof(line),
                "reconcile: sum(self) %.3f us/op = roots %.3f us/op over %lld "
                "ops, %lld spans; Little's law %.3f us/op; server time past "
                "the generator's stamp %.3f us/op",
                total / n, sum.root_us / n, static_cast<long long>(sum.roots),
                static_cast<long long>(sum.spans), little_us,
                sum.clipped_us / n);
  res.note(line);
  const double roots_mean = sum.root_us / n;
  if (sum.roots == 0 || std::fabs(roots_mean - little_us) > 0.1 * little_us ||
      std::fabs(total - sum.root_us) > 1e-6 * std::max(1.0, sum.root_us) ||
      sum.clipped_us > 0.01 * sum.root_us) {
    res.note("reconcile: MISMATCH between the span trees and the measured "
             "per-operation time");
    res.correct = false;
  }
  res.add("unattributed_share",
          sum.root_us > 0.0 ? sum.self_us[kSpanOp] / sum.root_us : 0.0,
          "share");

  // Tracing overhead: traced and untraced slices alternate, so both see the
  // same host; compare their medians and the untraced slices' own spread.
  const double traced = median_cpu_us_per_op(loop.slices, true);
  const double untraced = median_cpu_us_per_op(loop.slices, false);
  std::vector<double> plain;
  for (const SliceRecord& s : loop.slices) {
    if (!s.traced && s.ops > 0 && slice_clean(s)) {
      plain.push_back(s.cpu_s * 1e6 / static_cast<double>(s.ops));
    }
  }
  const double spread =
      untraced > 0.0
          ? (percentile(plain, 0.75) - percentile(plain, 0.25)) / untraced
          : 0.0;
  const double overhead = untraced > 0.0 ? (traced - untraced) / untraced : 0.0;
  res.add("trace.overhead_share", overhead, "share");
  std::snprintf(line, sizeof(line),
                "tracing overhead: cpu %.3f us/op traced vs %.3f untraced "
                "slices (%+.4f); untraced slice spread %.4f, so it is %s; "
                "computed: gemm flops and kv bytes come from shapes",
                traced, untraced, overhead, spread,
                std::fabs(overhead) > spread ? "resolved" : "unresolved");
  res.note(line);
  if (!write_spans(opt.workdir + "/spans_" + opt.workload + ".csv", spans)) {
    res.note("could not write the span file");
  }
}

}  // namespace perfbench
