// Crash-safe snapshot writer.
//
// Sections are accumulated in memory and serialized in one pass; the file
// reaches disk through temp-file + fsync + atomic rename, so a reader can
// never observe a torn write as a valid snapshot — either the old file (or
// nothing) is at the path, or the complete new one is. The write is fully
// deterministic: no timestamps, no randomness, section order is call
// order — byte-identical inputs produce byte-identical files, which the
// determinism CI diffs across thread counts.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/core/bitpack.hpp"
#include "src/snapshot/container.hpp"
#include "src/tensor/tensor.hpp"

namespace af {

class SnapshotWriter {
 public:
  /// Default checksum-block width of the parity sidecar, matching
  /// ProtectedCodes.
  static constexpr int kDefaultBlockWords = 64;

  /// Adds a packed AdaptivFloat tensor (the deployment weight form). The
  /// payload bytes are stored verbatim — what mmap later serves to the
  /// fused GEMM — together with the parity/checksum sidecar that makes a
  /// single corrupt word per block reconstructible at load.
  void add_packed(const std::string& name, const PackedAdaptivFloatTensor& t,
                  int block_words = kDefaultBlockWords);

  /// Adds a packed code stream of any of the five evaluation formats.
  /// `exp_bits` / `max_abs` are the codec reconstruction parameters
  /// (QuantizerOptions field and calibration statistic); `exp_bias` is
  /// meaningful for AdaptivFloat only. Codes must fit in `bits` <= 8 —
  /// the v1 sidecar's additive checksum reconstructs at byte width.
  void add_codes(const std::string& name, FormatKind format, int bits,
                 int exp_bits, int exp_bias, float max_abs, const Shape& shape,
                 const std::vector<std::uint16_t>& codes,
                 int block_words = kDefaultBlockWords);

  /// Adds a raw FP32 tensor (biases and other full-precision residue).
  /// CRC-detected but not sidecar-repairable; a corrupt FP32 section
  /// degrades to zeros or fails, per policy.
  void add_fp32(const std::string& name, const Tensor& t);

  std::size_t section_count() const { return sections_.size(); }

  /// Serializes the container image (header + TOC + aligned payloads).
  std::vector<std::uint8_t> serialize() const;

  /// serialize() + atomic durable write to `path`.
  void write(const std::string& path) const;

 private:
  struct PendingSection {
    SectionDescriptor desc;       // offsets/CRCs filled in serialize()
    std::vector<std::uint8_t> payload;
    std::vector<std::uint8_t> sidecar;
  };

  void add_section(PendingSection section);

  std::vector<PendingSection> sections_;
};

/// Durable atomic file replacement: writes `bytes` to a fresh mkstemp file
/// beside `path`, fsyncs, renames over `path`, fsyncs the parent directory.
/// Safe against concurrent writers of the same path: each reader sees one
/// writer's complete image. Throws af::Error (and unlinks the temp file)
/// on any I/O failure.
void atomic_write_file(const std::string& path,
                       const std::vector<std::uint8_t>& bytes);

}  // namespace af
