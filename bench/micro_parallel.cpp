// Microbenchmark of the deterministic parallel layer: serial vs AF_THREADS
// timings for the matmul and quantizer hot paths, plus a bit-equality check
// proving the determinism contract (fixed chunk boundaries, chunk-ordered
// reductions) holds on this machine.
//
// Modes:
//   micro_parallel            — timing table (serial vs 4 threads) + verify;
//                               exits nonzero on any bitwise mismatch.
//   micro_parallel --verify   — prints only FNV-1a digests of each kernel's
//                               output under the *current* AF_THREADS
//                               setting. CI runs this under AF_THREADS=1
//                               and AF_THREADS=4 and diffs the output.
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/numerics/registry.hpp"
#include "src/tensor/ops.hpp"
#include "src/util/hash.hpp"
#include "src/util/parallel.hpp"
#include "src/util/rng.hpp"
#include "src/util/table.hpp"

#include "bench_util.hpp"

namespace af {
namespace {

using bench::tensor_digest;
using bench::time_ms;

constexpr int kParallelThreads = 4;

struct Kernel {
  std::string name;
  std::function<Tensor()> run;
  int reps;
};

std::vector<Kernel> make_kernels() {
  std::vector<Kernel> kernels;

  {
    Pcg32 rng(7);
    auto a = std::make_shared<Tensor>(Tensor::randn({512, 512}, rng));
    auto b = std::make_shared<Tensor>(Tensor::randn({512, 512}, rng));
    kernels.push_back({"matmul 512x512x512",
                       [a, b] { return matmul(*a, *b); }, 3});
  }
  {
    Pcg32 rng(8);
    auto t = std::make_shared<Tensor>(Tensor::randn({1024, 1024}, rng, 2.0f));
    auto q = std::shared_ptr<Quantizer>(
        make_quantizer(FormatKind::kAdaptivFloat, 8));
    q->calibrate(*t);
    kernels.push_back({"quantize AdaptivFloat<8> 1024x1024",
                       [t, q] { return q->quantize(*t); }, 3});
  }
  {
    Pcg32 rng(9);
    auto t = std::make_shared<Tensor>(Tensor::randn({1024, 1024}, rng, 2.0f));
    auto q = std::shared_ptr<Quantizer>(make_quantizer(FormatKind::kPosit, 8));
    kernels.push_back({"quantize Posit<8> 1024x1024",
                       [t, q] { return q->quantize(*t); }, 3});
  }
  {
    Pcg32 rng(10);
    auto a = std::make_shared<Tensor>(Tensor::randn({2048, 1024}, rng));
    auto b = std::make_shared<Tensor>(Tensor::randn({2048, 1024}, rng));
    kernels.push_back({"elementwise add 2048x1024",
                       [a, b] { return add(*a, *b); }, 5});
  }
  {
    Pcg32 rng(11);
    auto x = std::make_shared<Tensor>(Tensor::randn({512, 512}, rng));
    kernels.push_back({"softmax_rows 512x512",
                       [x] { return softmax_rows(*x); }, 5});
  }
  return kernels;
}

int run_verify_only() {
  // Respect the ambient AF_THREADS setting: CI diffs this output across
  // thread counts, so nothing here may depend on it.
  for (const Kernel& k : make_kernels()) {
    const Tensor out = k.run();
    std::printf("%-40s %s\n", k.name.c_str(),
                digest_hex(tensor_digest(out)).c_str());
  }
  return 0;
}

int run_bench() {
  TextTable table("micro_parallel: serial vs " +
                  std::to_string(kParallelThreads) +
                  " threads (best-of-N wall time)");
  table.set_header({"Kernel", "Serial (ms)",
                    std::to_string(kParallelThreads) + " thr (ms)", "Speedup",
                    "Bit-equal"});

  bool all_equal = true;
  for (const Kernel& k : make_kernels()) {
    set_num_threads(1);
    const Tensor serial_out = k.run();
    const double serial_ms = time_ms([&] { k.run(); }, k.reps);

    set_num_threads(kParallelThreads);
    const Tensor par_out = k.run();
    const double par_ms = time_ms([&] { k.run(); }, k.reps);

    const bool equal = serial_out.equals(par_out) &&
                       tensor_digest(serial_out) == tensor_digest(par_out);
    all_equal = all_equal && equal;
    table.add_row({k.name, fmt_fixed(serial_ms, 2), fmt_fixed(par_ms, 2),
                   fmt_fixed(serial_ms / par_ms, 2) + "x",
                   equal ? "yes" : "NO"});
  }
  set_num_threads(0);
  table.print();
  std::printf("\n");
  if (!all_equal) {
    std::fprintf(stderr,
                 "micro_parallel: BIT-EQUALITY VIOLATION between serial and "
                 "parallel execution\n");
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace af

int main(int argc, char** argv) {
  return af::bench::bench_main(argc, argv, /*default_json=*/nullptr,
                               af::run_verify_only,
                               [](const char*) { return af::run_bench(); });
}
