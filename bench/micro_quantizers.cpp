// Google-benchmark microbenchmarks of the computational kernels: the five
// quantizer codecs, Algorithm 1 end-to-end, and the two PE datapaths.
//
// `micro_quantizers --verify` skips the timing runs and prints FNV-1a
// digests of every quantizer's output on the benchmark tensor instead —
// fully deterministic output the CI determinism job diffs across
// AF_THREADS settings.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstring>

#include "src/core/algorithm1.hpp"
#include "src/hw/hfint_pe.hpp"
#include "src/hw/int_pe.hpp"
#include "src/numerics/registry.hpp"
#include "src/util/hash.hpp"
#include "src/util/rng.hpp"

namespace {

using namespace af;

Tensor bench_tensor() {
  Pcg32 rng(1);
  return Tensor::randn({256, 256}, rng, 2.0f);
}

// Every format at 8 bits, plus AdaptivFloat at 4 and 16 and Posit at 16.
void format_args(benchmark::internal::Benchmark* b) {
  b->Args({static_cast<long>(FormatKind::kFloat), 8})
      ->Args({static_cast<long>(FormatKind::kBlockFloat), 8})
      ->Args({static_cast<long>(FormatKind::kUniform), 8})
      ->Args({static_cast<long>(FormatKind::kPosit), 8})
      ->Args({static_cast<long>(FormatKind::kAdaptivFloat), 8})
      ->Args({static_cast<long>(FormatKind::kAdaptivFloat), 4})
      ->Args({static_cast<long>(FormatKind::kAdaptivFloat), 16})
      ->Args({static_cast<long>(FormatKind::kPosit), 16});
}

void BM_QuantizeTensor(benchmark::State& state) {
  const auto kind = static_cast<FormatKind>(state.range(0));
  const int bits = static_cast<int>(state.range(1));
  auto q = make_quantizer(kind, bits);
  Tensor t = bench_tensor();
  q->calibrate(t);
  for (auto _ : state) {
    benchmark::DoNotOptimize(q->quantize(t));
  }
  state.SetItemsProcessed(state.iterations() * t.numel());
  state.SetLabel(format_kind_name(kind) + "<" + std::to_string(bits) + ">");
}
BENCHMARK(BM_QuantizeTensor)->Apply(format_args);

// What ActQuant::process and WeightQuantScope pay per call: a fresh
// calibration, then the bulk quantize.
void BM_CalibrateAndQuantizeTensor(benchmark::State& state) {
  const auto kind = static_cast<FormatKind>(state.range(0));
  const int bits = static_cast<int>(state.range(1));
  auto q = make_quantizer(kind, bits);
  Tensor t = bench_tensor();
  const float max_abs = t.max_abs();
  for (auto _ : state) {
    q->calibrate_max_abs(max_abs);
    benchmark::DoNotOptimize(q->quantize(t));
  }
  state.SetItemsProcessed(state.iterations() * t.numel());
  state.SetLabel(format_kind_name(kind) + "<" + std::to_string(bits) + ">");
}
BENCHMARK(BM_CalibrateAndQuantizeTensor)->Apply(format_args);

void BM_Algorithm1EndToEnd(benchmark::State& state) {
  Tensor t = bench_tensor();
  const int bits = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(adaptivfloat_quantize(t, bits, 3));
  }
  state.SetItemsProcessed(state.iterations() * t.numel());
}
BENCHMARK(BM_Algorithm1EndToEnd)->Arg(4)->Arg(8)->Arg(16);

void BM_AdaptivFloatEncodeDecode(benchmark::State& state) {
  const AdaptivFloatFormat fmt(8, 3, -6);
  Pcg32 rng(2);
  std::vector<float> values(4096);
  for (auto& v : values) v = rng.normal(0.0f, 1.0f);
  for (auto _ : state) {
    float acc = 0.0f;
    for (float v : values) acc += fmt.decode(fmt.encode(v));
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(state.iterations() * values.size());
}
BENCHMARK(BM_AdaptivFloatEncodeDecode);

void BM_IntPeAccumulate(benchmark::State& state) {
  IntPe pe({8, 16, 16, 256});
  Pcg32 rng(3);
  std::vector<std::int32_t> w(256), a(256);
  for (int i = 0; i < 256; ++i) {
    w[i] = static_cast<std::int32_t>(rng.next_below(255)) - 127;
    a[i] = static_cast<std::int32_t>(rng.next_below(255)) - 127;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(pe.accumulate(0, w, a));
  }
  state.SetItemsProcessed(state.iterations() * 256);
}
BENCHMARK(BM_IntPeAccumulate);

void BM_HfintPeAccumulate(benchmark::State& state) {
  HfintPe pe({8, 3, 16, 256});
  const AdaptivFloatFormat fmt(8, 3, -6);
  Pcg32 rng(4);
  std::vector<std::uint16_t> w(256), a(256);
  for (int i = 0; i < 256; ++i) {
    w[i] = fmt.encode(rng.normal(0.0f, 0.3f));
    a[i] = fmt.encode(rng.normal(0.0f, 0.3f));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(pe.accumulate(0, w, a));
  }
  state.SetItemsProcessed(state.iterations() * 256);
}
BENCHMARK(BM_HfintPeAccumulate);

int verify_main() {
  Tensor t = bench_tensor();
  for (FormatKind kind : all_format_kinds()) {
    for (int bits : {4, 8, 16}) {
      auto q = make_quantizer(kind, bits);
      q->calibrate(t);
      const Tensor out = q->quantize(t);
      const std::uint64_t h = af::fnv1a64(
          out.data(), static_cast<std::size_t>(out.numel()) * sizeof(float));
      std::printf("%-14s bits=%-2d %s\n", format_kind_name(kind).c_str(), bits,
                  af::digest_hex(h).c_str());
    }
  }
  const auto res = adaptivfloat_quantize(t, 8, 3);
  const std::uint64_t h = af::fnv1a64(
      res.quantized.data(),
      static_cast<std::size_t>(res.quantized.numel()) * sizeof(float));
  std::printf("%-14s bits=8  %s\n", "Algorithm1", af::digest_hex(h).c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--verify") == 0) return verify_main();
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
