// Fixed-input checks of the statistics helpers with hand-computed answers.
// Runs before every benchmark run (it takes microseconds) and alone with
// --selftest.
#include <algorithm>
#include <cmath>
#include <cstdio>

#include "harness.hpp"

namespace perfbench {
namespace {

int g_failures = 0;

void expect_near(const char* what, double got, double want) {
  if (std::fabs(got - want) > 1e-9 * std::max(1.0, std::fabs(want))) {
    std::printf("selftest: %s = %.12g, want %.12g\n", what, got, want);
    ++g_failures;
  }
}

}  // namespace

bool selftest() {
  g_failures = 0;

  // Percentiles: linear interpolation between order statistics, input
  // order irrelevant.
  expect_near("p50 {4,1,3,2}", percentile({4, 1, 3, 2}, 0.5), 2.5);
  expect_near("p90 1..10", percentile({10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 0.9),
              9.1);
  expect_near("p0", percentile({5, 3, 9}, 0.0), 3.0);
  expect_near("p100", percentile({5, 3, 9}, 1.0), 9.0);
  expect_near("p90 single", percentile({7}, 0.9), 7.0);
  expect_near("p50 empty", percentile({}, 0.5), 0.0);
  expect_near("mean", mean({1, 2, 3, 6}), 3.0);
  {
    // The histogram reproduces percentile() on whole-microsecond samples;
    // out-of-range samples clamp.
    const std::vector<double> samples = {7, 3, 3, 10, 1, 250, 3, 8, 9, 2};
    UsHistogram h;
    for (double s : samples) h.add(static_cast<std::int64_t>(s));
    for (double q : {0.0, 0.25, 0.5, 0.9, 1.0}) {
      expect_near("histogram percentile", h.percentile(q),
                  percentile(samples, q));
    }
    expect_near("histogram mean", h.mean(), 29.6);
    UsHistogram copy;
    copy.add(h.nonzero());
    expect_near("histogram round trip", copy.percentile(0.9), h.percentile(0.9));
    expect_near("histogram round trip n", static_cast<double>(copy.count()),
                10.0);
    UsHistogram clamp;
    clamp.add(-5);
    clamp.add(UsHistogram::kMaxUs + 9);
    expect_near("histogram clamp lo", clamp.percentile(0.0), 0.0);
    expect_near("histogram clamp hi", clamp.percentile(1.0),
                static_cast<double>(UsHistogram::kMaxUs));
    expect_near("histogram empty", UsHistogram().percentile(0.5), 0.0);
  }

  // Median of cold starts: odd and even repetition counts.
  expect_near("median 5 cold starts", median({0.3, 0.1, 0.5, 0.2, 0.4}), 0.3);
  expect_near("median 4 cold starts", median({4, 1, 3, 2}), 2.5);

  // Slice estimates. CPU per op: A 2000 us, B 1000, C 3000, D idle
  // (skipped), E 3000, F 100 but with 50% host steal (left out). Of the four
  // candidates the cheapest quarter, B alone, is kept.
  {
    auto slice = [](double cpu, std::int64_t ops, std::uint64_t steal) {
      SliceRecord s;
      s.wall_s = 1.0;
      s.cpu_s = cpu;
      s.ops = ops;
      s.requests = ops;
      s.host = {steal, 400};
      return s;
    };
    std::vector<SliceRecord> v = {slice(0.5, 250, 0), slice(0.2, 200, 0),
                                  slice(0.9, 300, 0), slice(0.1, 0, 0),
                                  slice(0.3, 100, 0), slice(0.1, 1000, 200)};
    v[0].latency_us = {{1, 1}, {4, 2}};  // samples 1 4 4
    v[1].latency_us = {{2, 1}, {9, 1}};  // samples 2 9
    v[1].ttft_us = {{7, 5}};
    v[2].latency_us = {{900, 300}};
    const std::vector<bool> keep = undisturbed_slices(v);
    const std::vector<bool> want = {false, true, false, false, false, false};
    expect_near("undisturbed slices", keep == want ? 1.0 : 0.0, 1.0);
    const WindowEstimate e = estimate_window(v, keep);
    expect_near("window slices", static_cast<double>(e.slices), 1.0);
    expect_near("window rate", e.rate, 200.0);
    expect_near("window cpu_us_per_op", e.cpu_us_per_op, 1000.0);
    // B's samples 2 9: p50 5.5, p90 2 + 0.9 * 7.
    expect_near("window latency p50", e.latency_p50_us, 5.5);
    expect_near("window latency p90", e.latency_p90_us, 8.3);
    expect_near("window latency n", static_cast<double>(e.latency_n), 2.0);
    expect_near("window ttft p50", e.ttft_p50_us, 7.0);
    expect_near("window ttft n", static_cast<double>(e.ttft_n), 5.0);
    // Five candidates keep two; with no clean slice every slice counts.
    const std::vector<SliceRecord> five = {v[0], v[1], v[2], v[4], v[0]};
    expect_near("five candidates",
                static_cast<double>(
                    estimate_window(five, undisturbed_slices(five)).slices),
                2.0);
    const std::vector<SliceRecord> stolen = {v[5]};
    expect_near("stolen slice alone",
                estimate_window(stolen, undisturbed_slices(stolen)).rate,
                1000.0);
    v[1].traced = true;
    expect_near("median cpu traced", median_cpu_us_per_op(v, true), 1000.0);
    expect_near("median cpu untraced", median_cpu_us_per_op(v, false), 3000.0);
    HostTicks h0{10, 1000}, h1{30, 1200};
    expect_near("steal_share", steal_share(h0, h1), 0.1);
    expect_near("steal_share stale", steal_share(h1, h1), 0.0);
  }

  // Span self time: overlapping children count once, a child sticking out
  // of its parent is clipped, grandchildren come off their own parent.
  {
    const std::vector<Span> spans = {
        {0, 0, 100, -1, 0},  // root
        {1, 10, 30, 0, 0},   // a
        {1, 20, 50, 0, 0},   // b overlaps a
        {1, 90, 120, 0, 0},  // c clipped to [90, 100] for the root
        {2, 15, 25, 1, 0},   // grandchild under a
    };
    const std::vector<std::int64_t> self = self_times_ns(spans);
    expect_near("self root", static_cast<double>(self[0]), 50.0);
    expect_near("self a", static_cast<double>(self[1]), 10.0);
    expect_near("self b", static_cast<double>(self[2]), 30.0);
    expect_near("self c", static_cast<double>(self[3]), 30.0);
    expect_near("self grandchild", static_cast<double>(self[4]), 10.0);
  }

  // Span trees of two served requests. Op 7: the generator saw the answer
  // 5 us after the server finished, which is the root's own time. Op 9: the
  // server claims 5 us past the generator's stamp, which is clipped.
  {
    OpTiming a;
    a.op = 7;
    a.submit_begin_ns = 0;
    a.submit_end_ns = 2000;
    a.done_ns = 25000;
    a.queue_us = 10;  // includes the 3 us coalesce wait
    a.coalesce_us = 3;
    a.total_us = 20;
    OpTiming b;
    b.op = 9;
    b.submit_begin_ns = 100000;
    b.submit_end_ns = 101000;
    b.done_ns = 115000;
    b.queue_us = 10;
    b.total_us = 20;
    std::int64_t clipped = 0;
    const std::vector<Span> spans =
        build_spans({b, a},
                    {{kSpanForward, 12000, 18000, 7},
                     {kSpanForward, 12000, 18000, 8}},  // no such op
                    &clipped);
    const SpanSummary sum = summarize_spans(spans, clipped);
    expect_near("tree spans", static_cast<double>(sum.spans), 10.0);
    expect_near("tree roots", static_cast<double>(sum.roots), 2.0);
    expect_near("tree root", sum.root_us, 40.0);
    expect_near("tree clipped", sum.clipped_us, 5.0);
    expect_near("tree op self", sum.self_us[kSpanOp], 5.0);
    expect_near("tree submit", sum.self_us[kSpanSubmit], 3.0);
    expect_near("tree queue", sum.self_us[kSpanQueue], 14.0);
    expect_near("tree coalesce", sum.self_us[kSpanCoalesce], 3.0);
    expect_near("tree exec", sum.self_us[kSpanExec], 9.0);
    expect_near("tree forward", sum.self_us[kSpanForward], 6.0);
    double total = 0.0;
    for (double us : sum.self_us) total += us;
    expect_near("tree partition", total, sum.root_us);
  }

  return g_failures == 0;
}

}  // namespace perfbench
