// Snapshot container harness: cold-start, determinism, and recovery.
//
// Measures what the mmap container buys at boot and proves what the
// recovery ladder does under injected storage faults:
//   * cold start — construct-and-first-forward two ways: re-quantizing the
//     FP32 source through Algorithm 1 (the build path) vs mmap-loading the
//     packed snapshot (the serving path). Outputs must be bit-identical.
//   * writer determinism — the serialized image digest is a pure function
//     of the weights: no timestamps, no randomness, no thread-count
//     dependence. CI diffs this digest across AF_THREADS settings.
//   * corruption campaign — the seeded on-disk fault campaign at several
//     bit-error rates; every repair is verified bit-exact inside the
//     campaign (repair_mismatches must stay 0) and every trial must end
//     classified, never crashed.
//
// Modes:
//   micro_snapshot           — timing + campaign tables, writes
//                              BENCH_snapshot.json.
//   micro_snapshot --verify  — prints the image digest, load-report
//                              summary, boot digests and campaign counters
//                              under the current AF_THREADS; CI diffs this
//                              across thread counts. Exits nonzero on any
//                              bit-equality or repair-exactness violation.
// Both modes write their image to $TMPDIR/micro_snapshot_<pid>.afsnap
// (TMPDIR defaults to /tmp) and remove it when they return, so concurrent
// runs never share a file.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "src/models/quantized_mlp.hpp"
#include "src/nn/linear.hpp"
#include "src/runtime/execution_context.hpp"
#include "src/snapshot/fault_campaign.hpp"
#include "src/snapshot/snapshot.hpp"
#include "src/snapshot/writer.hpp"
#include "src/util/hash.hpp"
#include "src/util/rng.hpp"
#include "src/util/table.hpp"

#include "bench_util.hpp"

namespace af {
namespace {

using bench::tensor_digest;
using bench::time_ms;

constexpr std::int64_t kIn = 256, kHidden = 512, kOut = 64;
constexpr std::uint64_t kSeed = 61;
constexpr int kReps = 3;

// This process's own scratch image under $TMPDIR (default /tmp): the pid
// keeps concurrent runs from overwriting each other's campaign file.
const char* scratch_path() {
  static const std::string path = [] {
    const char* dir = std::getenv("TMPDIR");
    return std::string(dir != nullptr && *dir != '\0' ? dir : "/tmp") +
           "/micro_snapshot_" + std::to_string(getpid()) + ".afsnap";
  }();
  return path.c_str();
}

// Removes the scratch image when a mode returns or unwinds.
struct ScratchFile {
  ~ScratchFile() { std::remove(scratch_path()); }
};

struct Fp32Source {
  Linear fc1;
  Linear fc2;
  Fp32Source()
      : fc1([] {
          Pcg32 r(kSeed, 1);
          return Linear(kIn, kHidden, r, true, "fc1");
        }()),
        fc2([] {
          Pcg32 r(kSeed, 2);
          return Linear(kHidden, kOut, r, true, "fc2");
        }()) {}
};

Tensor bench_input() {
  Pcg32 rng(kSeed + 1);
  return Tensor::randn({32, kIn}, rng);
}

// Quantize-from-FP32 boot: what a server without a snapshot must do.
std::uint64_t rebuild_and_forward(Fp32Source& src, const Tensor& x) {
  QuantizedMlp model(src.fc1, src.fc2, 8, 3);
  ExecutionContext ctx;
  return tensor_digest(model.forward(x, ctx));
}

// mmap boot: open, wrap, first forward — the packed bytes come straight
// from the page cache.
std::uint64_t load_and_forward(const std::string& path, const Tensor& x) {
  const MappedSnapshot snap = MappedSnapshot::open(path);
  QuantizedMlp model(snap);
  ExecutionContext ctx;
  return tensor_digest(model.forward(x, ctx));
}

struct CampaignRow {
  double ber;
  SnapshotCampaignResult r;
};

std::vector<CampaignRow> run_campaigns(const std::vector<std::uint8_t>& image) {
  std::vector<CampaignRow> rows;
  for (const double ber : {1e-6, 1e-5, 1e-4}) {
    SnapshotCampaignConfig cfg;
    cfg.bit_error_rate = ber;
    cfg.trials = 32;
    cfg.seed = kSeed;
    cfg.policy = RecoveryPolicy::kDegradeToZero;
    rows.push_back({ber, run_snapshot_fault_campaign(image, scratch_path(),
                                                     cfg)});
  }
  return rows;
}

struct Fixture {
  Fp32Source src;
  std::vector<std::uint8_t> image;
  std::uint64_t image_digest;
  std::size_t section_count = 0;
  SnapshotLoadReport load_report;

  Fixture() {
    QuantizedMlp built(src.fc1, src.fc2, 8, 3);
    built.save(scratch_path());
    SnapshotWriter writer;
    writer.add_packed("fc1.weight", built.fc1().packed_weight());
    writer.add_fp32("fc1.bias", built.fc1().bias());
    writer.add_packed("fc2.weight", built.fc2().packed_weight());
    writer.add_fp32("fc2.bias", built.fc2().bias());
    image = writer.serialize();
    image_digest = fnv1a64(image.data(), image.size());
    const MappedSnapshot snap = MappedSnapshot::open(scratch_path());
    section_count = snap.section_count();
    load_report = snap.report();
  }
};

int run_verify_only() {
  ScratchFile scratch;
  Fixture f;
  const Tensor x = bench_input();
  const std::uint64_t rebuilt = rebuild_and_forward(f.src, x);
  const std::uint64_t booted = load_and_forward(scratch_path(), x);

  std::printf("snapshot image   %s (%zu bytes, %zu sections)\n",
              digest_hex(f.image_digest).c_str(), f.image.size(),
              f.section_count);
  std::printf("clean load       clean=%lld repaired=%lld degraded=%lld\n",
              static_cast<long long>(f.load_report.sections_clean),
              static_cast<long long>(f.load_report.sections_repaired),
              static_cast<long long>(f.load_report.sections_degraded));
  std::printf("rebuild forward  %s\n", digest_hex(rebuilt).c_str());
  std::printf("snapshot forward %s\n", digest_hex(booted).c_str());

  bool ok = rebuilt == booted && f.load_report.clean();
  for (const CampaignRow& row : run_campaigns(f.image)) {
    std::printf(
        "campaign ber=%.0e trials=%d clean=%d repaired=%d degraded=%d "
        "refused=%d flips=%lld repaired_words=%lld zeroed_words=%lld "
        "mismatches=%d\n",
        row.ber, row.r.trials, row.r.clean, row.r.repaired, row.r.degraded,
        row.r.failed_closed, static_cast<long long>(row.r.bits_flipped),
        static_cast<long long>(row.r.words_repaired),
        static_cast<long long>(row.r.words_zeroed), row.r.repair_mismatches);
    ok = ok && row.r.repair_mismatches == 0 &&
         row.r.clean + row.r.repaired + row.r.degraded +
                 row.r.failed_closed ==
             row.r.trials;
  }
  if (!ok) {
    std::fprintf(stderr,
                 "micro_snapshot: bit-equality or repair-exactness "
                 "violation\n");
    return 1;
  }
  return 0;
}

int run_bench(const char* json_path) {
  ScratchFile scratch;
  Fixture f;
  const Tensor x = bench_input();

  const std::uint64_t rebuilt = rebuild_and_forward(f.src, x);
  const std::uint64_t booted = load_and_forward(scratch_path(), x);
  const bool boot_equal = rebuilt == booted && f.load_report.clean();

  // Cold-start: full construct-to-first-output both ways, best of kReps.
  const double rebuild_ms =
      time_ms([&] { rebuild_and_forward(f.src, x); }, kReps);
  const double snapshot_ms =
      time_ms([&] { load_and_forward(scratch_path(), x); }, kReps);
  const double save_ms = time_ms(
      [&] {
        QuantizedMlp built(f.src.fc1, f.src.fc2, 8, 3);
        built.save(scratch_path());
      },
      kReps);
  const double open_ms =
      time_ms([&] { MappedSnapshot::open(scratch_path()); }, kReps);

  TextTable boot("micro_snapshot: cold start to first forward (MLP "
                 "256-512-64, 8-bit weights)");
  boot.set_header({"Path", "ms", "Digest"});
  boot.add_row({"rebuild from FP32", fmt_fixed(rebuild_ms, 3),
                digest_hex(rebuilt)});
  boot.add_row({"mmap snapshot", fmt_fixed(snapshot_ms, 3),
                digest_hex(booted)});
  boot.add_row({"  save (atomic write)", fmt_fixed(save_ms, 3), "-"});
  boot.add_row({"  open (verify CRCs)", fmt_fixed(open_ms, 3), "-"});
  boot.print();
  std::printf("bit-identical boot: %s\n\n", boot_equal ? "yes" : "NO");

  const std::vector<CampaignRow> rows = run_campaigns(f.image);
  TextTable camp("on-disk fault campaign (32 trials/rate, policy "
                 "degrade-to-zero, payload-targeted)");
  camp.set_header({"BER", "Clean", "Repaired", "Degraded", "Refused",
                   "Words repaired", "Words zeroed", "Repair exact"});
  bool campaigns_ok = true;
  for (const CampaignRow& row : rows) {
    campaigns_ok = campaigns_ok && row.r.repair_mismatches == 0;
    char ber[32];
    std::snprintf(ber, sizeof(ber), "%.0e", row.ber);
    camp.add_row({ber, std::to_string(row.r.clean),
                  std::to_string(row.r.repaired),
                  std::to_string(row.r.degraded),
                  std::to_string(row.r.failed_closed),
                  std::to_string(row.r.words_repaired),
                  std::to_string(row.r.words_zeroed),
                  row.r.repair_mismatches == 0 ? "yes" : "NO"});
  }
  camp.print();
  std::printf("\n");

  std::string json = "  \"bench\": \"micro_snapshot\",\n";
  json += "  \"image_digest\": \"" + digest_hex(f.image_digest) + "\",\n";
  json += "  \"image_bytes\": " + std::to_string(f.image.size()) + ",\n";
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "  \"cold_start\": {\"rebuild_ms\": %.3f, "
                "\"snapshot_ms\": %.3f, \"save_ms\": %.3f, "
                "\"open_ms\": %.3f, \"bit_identical\": %s},\n",
                rebuild_ms, snapshot_ms, save_ms, open_ms,
                boot_equal ? "true" : "false");
  json += buf;
  json += "  \"campaigns\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const SnapshotCampaignResult& r = rows[i].r;
    std::snprintf(
        buf, sizeof(buf),
        "    {\"ber\": %.0e, \"trials\": %d, \"clean\": %d, "
        "\"repaired\": %d, \"degraded\": %d, \"failed_closed\": %d, "
        "\"words_repaired\": %lld, \"words_zeroed\": %lld, "
        "\"repair_mismatches\": %d}%s\n",
        rows[i].ber, r.trials, r.clean, r.repaired, r.degraded,
        r.failed_closed, static_cast<long long>(r.words_repaired),
        static_cast<long long>(r.words_zeroed), r.repair_mismatches,
        i + 1 < rows.size() ? "," : "");
    json += buf;
  }
  json += "  ]\n";

  const bool wrote = bench::write_artifact(json_path, json);

  if (!boot_equal || !campaigns_ok) {
    std::fprintf(stderr,
                 "micro_snapshot: BIT-EQUALITY OR REPAIR-EXACTNESS "
                 "VIOLATION\n");
    return 1;
  }
  return wrote ? 0 : 1;
}

}  // namespace
}  // namespace af

int main(int argc, char** argv) {
  return af::bench::bench_main(argc, argv, "BENCH_snapshot.json",
                               af::run_verify_only, af::run_bench);
}
