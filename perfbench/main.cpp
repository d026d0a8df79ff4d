// Repository benchmark program.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//                    [--workdir DIR]
//   perfbench --selftest
//
// Workloads: mlp_serve, decode_long_af8, decode_short_fp32 (see README.md
// beside this file). With --trace 0 the program prints the end-to-end
// metrics; with --trace 1 every second slice of the window records spans
// and the program prints the per-layer metrics. Human-readable lines come
// first; the last line of stdout is one JSON object {correct, attempted,
// failed, metrics}. Exits nonzero on a wrong output, a failed operation, a
// span-reconciliation failure, or a self-check failure.
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <string>

#include "harness.hpp"
#include "src/kernels/backend.hpp"

namespace {

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos && colon + 2 <= line.size()) {
        return line.substr(colon + 2);
      }
    }
  }
  return "unknown";
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload "
               "mlp_serve|decode_long_af8|decode_short_fp32 --seed N "
               "--seconds S --trace 0|1 [--workdir DIR] | --selftest\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  bool selftest_only = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--selftest") {
      selftest_only = true;
    } else if (a == "--workload" && has_value) {
      opt.workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      opt.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds" && has_value) {
      opt.seconds = std::atof(argv[++i]);
    } else if (a == "--trace" && has_value) {
      opt.trace = std::strcmp(argv[++i], "0") != 0;
    } else if (a == "--workdir" && has_value) {
      opt.workdir = argv[++i];
    } else {
      return usage();
    }
  }

  const bool stats_ok = perfbench::selftest();
  std::printf("selftest %s\n", stats_ok ? "ok" : "FAILED");
  if (selftest_only || !stats_ok) return stats_ok ? 0 : 1;

  const bool known = opt.workload == "mlp_serve" ||
                     opt.workload == "decode_long_af8" ||
                     opt.workload == "decode_short_fp32";
  if (!known || !(opt.seconds > 0.0)) return usage();

  const char* threads = std::getenv("AF_THREADS");
  std::printf(
      "meta {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
      "\"trace\": %d, \"cpu\": \"%s\", \"nproc\": %ld, \"backend\": \"%s\", "
      "\"af_threads\": \"%s\"}\n",
      opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
      opt.seconds, opt.trace ? 1 : 0, json_escape(cpu_model()).c_str(),
      sysconf(_SC_NPROCESSORS_ONLN), af::active_backend().name,
      threads != nullptr ? json_escape(threads).c_str() : "unset");

  perfbench::Result res;
  try {
    res = opt.workload == "mlp_serve" ? perfbench::run_mlp_serve(opt)
                                      : perfbench::run_decode(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }

  for (const std::string& line : res.info) std::printf("%s\n", line.c_str());
  std::string metrics;
  for (const perfbench::Metric& m : res.metrics) {
    char buf[256];
    const double v = std::isfinite(m.value) ? m.value : 0.0;
    std::printf("metric %-38s %16.6f %s\n", m.name.c_str(), v, m.unit.c_str());
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                  metrics.empty() ? "" : ", ", m.name.c_str(), v,
                  m.unit.c_str());
    metrics += buf;
  }
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {%s}}\n",
              res.correct ? "true" : "false",
              static_cast<long long>(res.attempted),
              static_cast<long long>(res.failed), metrics.c_str());
  std::fflush(stdout);
  return res.correct ? 0 : 1;
}
