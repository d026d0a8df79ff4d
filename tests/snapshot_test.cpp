// Snapshot container: save -> mmap-load bit-equality across formats and
// widths, fail-closed validation of header/TOC damage, crash-safe writer
// behavior, and the zero-copy view contract.
#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "src/core/bitpack.hpp"
#include "src/numerics/registry.hpp"
#include "src/snapshot/snapshot.hpp"
#include "src/snapshot/writer.hpp"
#include "src/util/fault.hpp"
#include "src/util/rng.hpp"

namespace af {
namespace {

std::string temp_path(const char* name) {
  return testing::TempDir() + "/" + name;
}

// Leftover temp files of atomic writes to `path` (its "<name>.XXXXXX"
// siblings).
int temp_files_of(const std::string& path) {
  const std::filesystem::path p(path);
  const std::string prefix = p.filename().string() + ".";
  int count = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(p.parent_path())) {
    if (entry.path().filename().string().rfind(prefix, 0) == 0) ++count;
  }
  return count;
}

std::vector<std::uint16_t> random_codes(std::size_t count, int bits,
                                        std::uint64_t seed) {
  Pcg32 rng(seed);
  std::vector<std::uint16_t> codes(count);
  for (std::uint16_t& c : codes) {
    c = static_cast<std::uint16_t>(rng.next_u32() & ((1u << bits) - 1u));
  }
  return codes;
}

Tensor random_tensor(std::initializer_list<std::int64_t> shape,
                     std::uint64_t seed) {
  Pcg32 rng(seed);
  Tensor t(shape);
  for (std::int64_t i = 0; i < t.numel(); ++i) {
    t[i] = rng.uniform(-2.0f, 2.0f);
  }
  return t;
}

// ----- round trips ----------------------------------------------------------

TEST(Snapshot, RoundTripAllFormatsAndWidths) {
  // The container carries the code stream of any of the five formats
  // verbatim; fidelity must be bit-exact at every width.
  const std::string path = temp_path("all_formats.afsnap");
  for (const FormatKind kind : all_format_kinds()) {
    for (const int bits : {8, 6, 4}) {
      SnapshotWriter writer;
      const auto codes = random_codes(150, bits,
                                      static_cast<std::uint64_t>(bits) * 131 +
                                          static_cast<std::uint64_t>(kind));
      writer.add_codes("w", kind, bits, /*exp_bits=*/3, /*exp_bias=*/-7,
                       /*max_abs=*/1.75f, Shape{10, 15}, codes);
      writer.write(path);

      const MappedSnapshot snap = MappedSnapshot::open(path);
      ASSERT_TRUE(snap.report().clean());
      EXPECT_EQ(snap.codes("w"), codes)
          << format_kind_name(kind) << " bits=" << bits;
      const SectionDescriptor& d = snap.descriptor("w");
      EXPECT_EQ(d.format, kind);
      EXPECT_EQ(d.bits, bits);
      EXPECT_EQ(d.exp_bits, 3);
      EXPECT_EQ(d.exp_bias, -7);
      EXPECT_FLOAT_EQ(d.max_abs, 1.75f);
      EXPECT_EQ(d.shape, (Shape{10, 15}));
    }
  }
}

TEST(Snapshot, PackedTensorRoundTripsBitExactWithFormat) {
  const Tensor w = random_tensor({12, 20}, 7);
  const auto packed = PackedAdaptivFloatTensor::quantize_pack(w, 6, 3);
  SnapshotWriter writer;
  writer.add_packed("weight", packed);
  const std::string path = temp_path("packed.afsnap");
  writer.write(path);

  const MappedSnapshot snap = MappedSnapshot::open(path);
  const PackedAdaptivFloatTensor view = snap.packed_view("weight");
  // Same format (exp_bias included), same payload bytes, same decode.
  EXPECT_EQ(view.format().bits(), packed.format().bits());
  EXPECT_EQ(view.format().exp_bits(), packed.format().exp_bits());
  EXPECT_EQ(view.format().exp_bias(), packed.format().exp_bias());
  ASSERT_EQ(view.payload_bytes(), packed.payload_bytes());
  EXPECT_EQ(std::memcmp(view.data(), packed.data(), packed.payload_bytes()), 0);
  const Tensor a = view.unpack(), b = packed.unpack();
  ASSERT_EQ(a.shape(), b.shape());
  EXPECT_EQ(std::memcmp(a.data(), b.data(),
                        static_cast<std::size_t>(a.numel()) * 4),
            0);
}

TEST(Snapshot, Fp32SectionRoundTripsBitExact) {
  const Tensor bias = random_tensor({33}, 11);
  SnapshotWriter writer;
  writer.add_fp32("bias", bias);
  const std::string path = temp_path("fp32.afsnap");
  writer.write(path);

  const MappedSnapshot snap = MappedSnapshot::open(path);
  const Tensor out = snap.fp32("bias");
  ASSERT_EQ(out.shape(), bias.shape());
  EXPECT_EQ(std::memcmp(out.data(), bias.data(),
                        static_cast<std::size_t>(bias.numel()) * 4),
            0);
}

TEST(Snapshot, MultiSectionNamesAndLookup) {
  SnapshotWriter writer;
  writer.add_codes("a", FormatKind::kAdaptivFloat, 8, 3, 0, 1.0f, Shape{16},
                   random_codes(16, 8, 1));
  writer.add_fp32("b", random_tensor({4}, 2));
  const std::string path = temp_path("multi.afsnap");
  writer.write(path);

  const MappedSnapshot snap = MappedSnapshot::open(path);
  EXPECT_EQ(snap.section_count(), 2u);
  EXPECT_EQ(snap.names(), (std::vector<std::string>{"a", "b"}));
  EXPECT_TRUE(snap.has("a"));
  EXPECT_FALSE(snap.has("missing"));
  EXPECT_THROW(snap.descriptor("missing"), Error);
}

TEST(SnapshotWriter, DuplicateSectionNameRejected) {
  SnapshotWriter writer;
  writer.add_fp32("w", random_tensor({4}, 3));
  EXPECT_THROW(writer.add_fp32("w", random_tensor({4}, 4)), Error);
}

// ----- fail-closed validation ----------------------------------------------

// Writes a patched copy of `image` and asserts open() refuses with the
// expected fault kind — under the most permissive policy, because header
// and TOC damage must fail closed regardless.
void expect_refused(const std::vector<std::uint8_t>& image, const char* name,
                    FaultKind kind) {
  const std::string path = temp_path(name);
  atomic_write_file(path, image);
  try {
    MappedSnapshot::open(path, {RecoveryPolicy::kDegradeToZero});
    FAIL() << name << ": open() accepted a damaged container";
  } catch (const FaultError& e) {
    EXPECT_EQ(e.kind(), kind) << e.what();
  }
}

std::vector<std::uint8_t> test_image() {
  SnapshotWriter writer;
  writer.add_codes("w", FormatKind::kAdaptivFloat, 8, 3, -4, 1.0f, Shape{96},
                   random_codes(96, 8, 5));
  return writer.serialize();
}

TEST(Snapshot, BadMagicRejected) {
  auto image = test_image();
  image[0] ^= 0xff;
  expect_refused(image, "bad_magic.afsnap", FaultKind::kMalformedInput);
}

TEST(Snapshot, VersionMismatchRejected) {
  auto image = test_image();
  image[8] = 99;  // version field
  expect_refused(image, "bad_version.afsnap", FaultKind::kMalformedInput);
}

TEST(Snapshot, EndianTagMismatchRejected) {
  auto image = test_image();
  // Byte-swapped tag: what a big-endian writer would have produced.
  image[12] = 0x01; image[13] = 0x02; image[14] = 0x03; image[15] = 0x04;
  expect_refused(image, "bad_endian.afsnap", FaultKind::kMalformedInput);
}

TEST(Snapshot, TruncatedFileRejected) {
  const auto image = test_image();
  const std::string path = temp_path("truncated.afsnap");
  atomic_write_file(path, image);
  ASSERT_EQ(::truncate(path.c_str(),
                       static_cast<off_t>(image.size() - 70)), 0);
  EXPECT_THROW(MappedSnapshot::open(path, {RecoveryPolicy::kDegradeToZero}),
               FaultError);
  // Truncation below the header is rejected too (no out-of-bounds read).
  ASSERT_EQ(::truncate(path.c_str(), 10), 0);
  EXPECT_THROW(MappedSnapshot::open(path, {RecoveryPolicy::kDegradeToZero}),
               FaultError);
}

TEST(Snapshot, CorruptedHeaderFailsClosed) {
  auto image = test_image();
  image[16] ^= 0x04;  // section_count, inside the header CRC window
  expect_refused(image, "bad_header.afsnap", FaultKind::kStorageCorruption);
}

TEST(Snapshot, CorruptedTocFailsClosed) {
  auto image = test_image();
  image[kHeaderBytes + 96] ^= 0x01;  // payload_offset field of entry 0
  expect_refused(image, "bad_toc.afsnap", FaultKind::kStorageCorruption);
}

// ----- crash-safe writer ----------------------------------------------------

TEST(AtomicWrite, ReplacesExistingFileAndLeavesNoTemp) {
  const std::string path = temp_path("atomic.afsnap");
  atomic_write_file(path, {1, 2, 3});
  atomic_write_file(path, {9, 8, 7, 6});

  struct stat st{};
  ASSERT_EQ(::stat(path.c_str(), &st), 0);
  EXPECT_EQ(st.st_size, 4);
  EXPECT_EQ(temp_files_of(path), 0) << "temp file left behind";
}

TEST(AtomicWrite, ConcurrentWritersOfOnePathNeverTearIt) {
  // Every writer publishes its own complete image; each open, whichever
  // writer won the last rename, must see exactly one of them intact.
  constexpr int kWriters = 8;
  constexpr int kRounds = 20;
  const std::string path = temp_path("concurrent.afsnap");
  std::vector<std::vector<std::uint16_t>> codes;
  std::vector<std::vector<std::uint8_t>> images;
  for (int w = 0; w < kWriters; ++w) {
    codes.push_back(random_codes(96, 8, 100 + static_cast<std::uint64_t>(w)));
    SnapshotWriter writer;
    writer.add_codes("w", FormatKind::kAdaptivFloat, 8, 3, -4, 1.0f,
                     Shape{96}, codes.back());
    images.push_back(writer.serialize());
  }
  std::atomic<int> throws{0}, torn{0}, opened{0};
  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      for (int r = 0; r < kRounds; ++r) {
        try {
          atomic_write_file(path, images[static_cast<std::size_t>(w)]);
          const std::vector<std::uint16_t> seen =
              MappedSnapshot::open(path, {RecoveryPolicy::kDetect})
                  .codes("w");
          if (std::find(codes.begin(), codes.end(), seen) == codes.end()) {
            ++torn;
          }
          ++opened;
        } catch (const Error&) {
          ++throws;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(throws.load(), 0);
  EXPECT_EQ(torn.load(), 0);
  EXPECT_EQ(opened.load(), kWriters * kRounds);
  EXPECT_EQ(temp_files_of(path), 0) << "temp file left behind";
}

TEST(AtomicWrite, FailureThrowsAfError) {
  EXPECT_THROW(
      atomic_write_file(testing::TempDir() + "/no_such_dir/x.afsnap", {1}),
      Error);
}

// ----- zero-copy contract ---------------------------------------------------

TEST(Snapshot, ViewPointsIntoTheMapping) {
  SnapshotWriter writer;
  writer.add_packed("w", PackedAdaptivFloatTensor::quantize_pack(
                             random_tensor({8, 16}, 13), 8, 3));
  const std::string path = temp_path("zerocopy.afsnap");
  writer.write(path);

  const MappedSnapshot snap = MappedSnapshot::open(path);
  const PackedAdaptivFloatTensor view = snap.packed_view("w");
  EXPECT_TRUE(view.is_view());
  // The view serves the mapped payload bytes themselves, not a copy.
  EXPECT_EQ(view.data(), snap.payload("w"));
}

TEST(Snapshot, ViewOutlivesTheSnapshotObject) {
  const Tensor w = random_tensor({8, 16}, 17);
  const auto packed = PackedAdaptivFloatTensor::quantize_pack(w, 8, 3);
  SnapshotWriter writer;
  writer.add_packed("w", packed);
  const std::string path = temp_path("keepalive.afsnap");
  writer.write(path);

  PackedAdaptivFloatTensor view = [&path] {
    const MappedSnapshot snap = MappedSnapshot::open(path);
    return snap.packed_view("w");
  }();  // snapshot destroyed; the view shares mapping ownership
  const Tensor a = view.unpack(), b = packed.unpack();
  EXPECT_EQ(std::memcmp(a.data(), b.data(),
                        static_cast<std::size_t>(a.numel()) * 4),
            0);
}

TEST(Snapshot, LoadIsDeterministic) {
  const auto image = test_image();
  const std::string path = temp_path("deterministic.afsnap");
  atomic_write_file(path, image);
  const MappedSnapshot a = MappedSnapshot::open(path);
  const MappedSnapshot b = MappedSnapshot::open(path);
  EXPECT_EQ(a.codes("w"), b.codes("w"));
  // And the serialized image itself is reproducible: no timestamps, no
  // randomness — the determinism CI diffs snapshot digests across runs.
  EXPECT_EQ(test_image(), image);
}

}  // namespace
}  // namespace af
