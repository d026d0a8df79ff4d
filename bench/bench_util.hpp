// Shared mechanics of the timing benches: the best-of-N timer, the tensor
// digest every --verify mode prints, the command line, and the JSON
// artifact writer. Wall-clock floors and trend rules are not here; they
// live in .github/scripts/bench_gate.py, which reads the artifacts.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <string>

#include "src/kernels/backend.hpp"
#include "src/tensor/tensor.hpp"
#include "src/util/hash.hpp"
#include "src/util/parallel.hpp"

namespace af::bench {

/// Best-of-`reps` wall time of `fn` in milliseconds (steady clock).
inline double time_ms(const std::function<void()>& fn, int reps) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const auto t1 = std::chrono::steady_clock::now();
    best = std::min(best,
                    std::chrono::duration<double, std::milli>(t1 - t0).count());
  }
  return best;
}

/// FNV-1a over the tensor's float bytes — the digest every --verify line
/// and golden file pins.
inline std::uint64_t tensor_digest(const Tensor& t) {
  return fnv1a64(t.data(), static_cast<std::size_t>(t.numel()) * sizeof(float));
}

/// The CPU model from /proc/cpuinfo ("unknown" where there is none), so
/// artifacts from different machines are never compared as like for like.
inline std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) != 0) continue;
    const std::size_t start =
        line.find_first_not_of(" \t:", std::strlen("model name"));
    if (start == std::string::npos) break;
    std::string model;
    for (const char c : line.substr(start)) {
      if (c == '"' || c == '\\') model += '\\';
      if (static_cast<unsigned char>(c) >= 0x20) model += c;
    }
    return model;
  }
  return "unknown";
}

/// Writes a JSON artifact. `body` holds the object's members, one per line
/// with a trailing newline and without the braces; the machine tag is
/// prepended: cpu, the active kernel backend, and the pool size at write
/// time (benches that sweep thread counts reset it with set_num_threads(0),
/// i.e. to the hardware concurrency). Prints "wrote PATH" on success;
/// returns false, with a message on stderr, when the file cannot be
/// written.
inline bool write_artifact(const char* path, const std::string& body) {
  std::ofstream out(path);
  out << "{\n  \"cpu\": \"" << cpu_model() << "\",\n  \"backend\": \""
      << active_backend().name << "\",\n  \"threads\": " << num_threads()
      << ",\n"
      << body << "}\n";
  out.close();
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return false;
  }
  std::printf("wrote %s\n", path);
  return true;
}

/// The shared main: `--verify` runs `verify`; otherwise `bench` runs with
/// the artifact path (`default_json`, or the one `--json PATH` names).
/// Benches that write no artifact pass a null `default_json` and do not
/// accept --json. Any other argument, or --json without a path, prints the
/// usage line and exits 2.
inline int bench_main(int argc, char** argv, const char* default_json,
                      int (*verify)(), int (*bench)(const char* json_path)) {
  bool verify_mode = false;
  const char* json_path = default_json;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--verify") == 0) {
      verify_mode = true;
    } else if (default_json != nullptr && std::strcmp(argv[i], "--json") == 0 &&
               i + 1 < argc) {
      json_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--verify]%s\n", argv[0],
                   default_json != nullptr ? " [--json PATH]" : "");
      return 2;
    }
  }
  return verify_mode ? verify() : bench(json_path);
}

}  // namespace af::bench
