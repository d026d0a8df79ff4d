#include "src/snapshot/writer.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>

#include "src/resilience/protection.hpp"
#include "src/snapshot/wire.hpp"
#include "src/util/check.hpp"
#include "src/util/hash.hpp"

namespace af {
namespace {

std::size_t align_up(std::size_t v, std::size_t a) {
  return (v + a - 1) / a * a;
}

void put_name(std::vector<std::uint8_t>& out, const std::string& name) {
  AF_CHECK(!name.empty() && name.size() < kMaxNameBytes,
           "section name must be 1.." + std::to_string(kMaxNameBytes - 1) +
               " bytes: '" + name + "'");
  for (char c : name) out.push_back(static_cast<std::uint8_t>(c));
  out.resize(out.size() + (kMaxNameBytes - name.size()), 0);
}

std::string dirname_of(const std::string& path) {
  const auto slash = path.find_last_of('/');
  if (slash == std::string::npos) return ".";
  if (slash == 0) return "/";
  return path.substr(0, slash);
}

}  // namespace

void SnapshotWriter::add_packed(const std::string& name,
                                const PackedAdaptivFloatTensor& t,
                                int block_words) {
  const auto count = static_cast<std::size_t>(t.numel());
  // The sidecar is computed over the code words the payload actually
  // carries, so writer-side quantization and a re-packed stream agree.
  add_codes(name, FormatKind::kAdaptivFloat, t.format().bits(),
            t.format().exp_bits(), t.format().exp_bias(),
            /*max_abs=*/t.format().value_max(), t.shape(),
            unpack_codes(t.data(), t.payload_bytes(), t.format().bits(), count),
            block_words);
}

void SnapshotWriter::add_codes(const std::string& name, FormatKind format,
                               int bits, int exp_bits, int exp_bias,
                               float max_abs, const Shape& shape,
                               const std::vector<std::uint16_t>& codes,
                               int block_words) {
  AF_CHECK(bits >= 1 && bits <= 8,
           "snapshot v1 stores code words of at most 8 bits (the additive "
           "checksum sidecar reconstructs at byte width)");
  AF_CHECK(block_words >= 1, "block size must be positive");
  AF_CHECK(static_cast<std::uint64_t>(numel_of(shape)) == codes.size(),
           "code count does not match the declared shape");
  AF_CHECK(shape.size() <= kMaxRank, "snapshot sections are rank <= 4");

  PendingSection s;
  s.desc.name = name;
  s.desc.kind = SectionKind::kPackedCodes;
  s.desc.format = format;
  s.desc.bits = bits;
  s.desc.exp_bits = exp_bits;
  s.desc.exp_bias = exp_bias;
  s.desc.max_abs = max_abs;
  s.desc.shape = shape;
  s.desc.count = codes.size();
  s.desc.block_words = block_words;
  s.payload = pack_codes(codes, bits);
  // Sidecar: PR-1 parity bits, then the per-block additive checksums.
  s.sidecar = build_parity_sidecar(codes);
  const auto sums = build_checksum_sidecar(codes, block_words);
  s.sidecar.insert(s.sidecar.end(), sums.begin(), sums.end());
  add_section(std::move(s));
}

void SnapshotWriter::add_fp32(const std::string& name, const Tensor& t) {
  AF_CHECK(t.shape().size() <= kMaxRank, "snapshot sections are rank <= 4");
  PendingSection s;
  s.desc.name = name;
  s.desc.kind = SectionKind::kFloat32;
  s.desc.format = FormatKind::kAdaptivFloat;  // unused for fp32
  s.desc.bits = 32;
  s.desc.exp_bits = -1;
  s.desc.exp_bias = 0;
  s.desc.max_abs = t.max_abs();
  s.desc.shape = t.shape();
  s.desc.count = static_cast<std::uint64_t>(t.numel());
  s.desc.block_words = 0;
  s.payload.resize(static_cast<std::size_t>(t.numel()) * sizeof(float));
  std::memcpy(s.payload.data(), t.data(), s.payload.size());
  add_section(std::move(s));
}

void SnapshotWriter::add_section(PendingSection section) {
  for (const PendingSection& existing : sections_) {
    AF_CHECK(existing.desc.name != section.desc.name,
             "duplicate snapshot section name: '" + section.desc.name + "'");
  }
  sections_.push_back(std::move(section));
}

std::vector<std::uint8_t> SnapshotWriter::serialize() const {
  // Pass 1: lay out payloads and sidecars after the TOC, 64-byte aligned.
  const std::size_t toc_bytes = sections_.size() * kTocEntryBytes;
  std::size_t cursor = align_up(kHeaderBytes + toc_bytes, kSectionAlign);
  std::vector<SectionDescriptor> descs;
  descs.reserve(sections_.size());
  for (const PendingSection& s : sections_) {
    SectionDescriptor d = s.desc;
    d.payload_offset = cursor;
    d.payload_bytes = s.payload.size();
    d.payload_crc = crc32(s.payload.data(), s.payload.size());
    cursor = align_up(cursor + s.payload.size(), kSectionAlign);
    if (!s.sidecar.empty()) {
      d.sidecar_offset = cursor;
      d.sidecar_bytes = s.sidecar.size();
      d.sidecar_crc = crc32(s.sidecar.data(), s.sidecar.size());
      cursor = align_up(cursor + s.sidecar.size(), kSectionAlign);
    }
    descs.push_back(std::move(d));
  }
  const std::size_t file_bytes = cursor;

  // Pass 2: emit. TOC first (its CRC lands in the header).
  std::vector<std::uint8_t> toc;
  toc.reserve(toc_bytes);
  for (const SectionDescriptor& d : descs) {
    const std::size_t entry_start = toc.size();
    put_name(toc, d.name);
    toc.push_back(static_cast<std::uint8_t>(d.kind));
    toc.push_back(static_cast<std::uint8_t>(d.format));
    toc.push_back(static_cast<std::uint8_t>(d.bits));
    toc.push_back(static_cast<std::uint8_t>(static_cast<std::int8_t>(
        d.exp_bits)));
    wire::put_i32(toc, d.exp_bias);
    wire::put_f32(toc, d.max_abs);
    wire::put_u32(toc, static_cast<std::uint32_t>(d.shape.size()));
    for (std::size_t r = 0; r < kMaxRank; ++r) {
      wire::put_i64(toc, r < d.shape.size() ? d.shape[r] : 0);
    }
    wire::put_u64(toc, d.count);
    wire::put_u64(toc, d.payload_offset);
    wire::put_u64(toc, d.payload_bytes);
    wire::put_u32(toc, d.payload_crc);
    wire::put_u32(toc, static_cast<std::uint32_t>(d.block_words));
    wire::put_u64(toc, d.sidecar_offset);
    wire::put_u64(toc, d.sidecar_bytes);
    wire::put_u32(toc, d.sidecar_crc);
    wire::put_u32(toc, 0);  // reserved
    AF_CHECK(toc.size() - entry_start == kTocEntryBytes,
             "TOC entry serialization drifted from kTocEntryBytes");
  }

  std::vector<std::uint8_t> out;
  out.reserve(file_bytes);
  for (char c : kSnapshotMagic) out.push_back(static_cast<std::uint8_t>(c));
  wire::put_u32(out, kSnapshotVersion);
  wire::put_u32(out, kEndianTag);
  wire::put_u64(out, sections_.size());
  wire::put_u64(out, file_bytes);
  wire::put_u64(out, kHeaderBytes);
  wire::put_u64(out, toc_bytes);
  wire::put_u32(out, crc32(toc.data(), toc.size()));
  wire::put_u32(out, crc32(out.data(), out.size()));  // header_crc over [0,52)
  wire::put_u64(out, 0);  // reserved
  AF_CHECK(out.size() == kHeaderBytes, "header serialization drifted");

  out.insert(out.end(), toc.begin(), toc.end());
  for (std::size_t i = 0; i < sections_.size(); ++i) {
    out.resize(descs[i].payload_offset, 0);
    out.insert(out.end(), sections_[i].payload.begin(),
               sections_[i].payload.end());
    if (!sections_[i].sidecar.empty()) {
      out.resize(descs[i].sidecar_offset, 0);
      out.insert(out.end(), sections_[i].sidecar.begin(),
                 sections_[i].sidecar.end());
    }
  }
  out.resize(file_bytes, 0);
  return out;
}

void SnapshotWriter::write(const std::string& path) const {
  atomic_write_file(path, serialize());
}

void atomic_write_file(const std::string& path,
                       const std::vector<std::uint8_t>& bytes) {
  // A unique temp name in the target directory: concurrent writers of one
  // path each fill their own file, so whichever rename lands last
  // publishes one whole image, never a mix of two.
  std::string tmp = path + ".XXXXXX";
  const int fd = ::mkstemp(tmp.data());
  AF_CHECK(fd >= 0, "cannot create '" + tmp + "': " + std::strerror(errno));

  bool ok = true;
  std::string err;
  // mkstemp creates the file 0600; published snapshots keep the 0644 an
  // open(O_CREAT, 0644) would give them.
  if (::fchmod(fd, 0644) != 0) {
    ok = false;
    err = std::strerror(errno);
  }
  std::size_t done = 0;
  while (ok && done < bytes.size()) {
    const ssize_t n = ::write(fd, bytes.data() + done, bytes.size() - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      ok = false;
      err = std::strerror(errno);
    } else {
      done += static_cast<std::size_t>(n);
    }
  }
  // The fsync before rename is the crash-safety linchpin: the data must be
  // durable before the name flips, or a power cut could publish a file
  // whose tail pages were never written.
  if (ok && ::fsync(fd) != 0) {
    ok = false;
    err = std::strerror(errno);
  }
  ::close(fd);
  if (ok && ::rename(tmp.c_str(), path.c_str()) != 0) {
    ok = false;
    err = std::strerror(errno);
  }
  if (!ok) {
    ::unlink(tmp.c_str());
    fail("atomic write of '" + path + "' failed: " + err);
  }
  // Persist the rename itself. Failure here is not fatal to correctness of
  // the content (the rename is atomic either way); ignore errors from
  // filesystems that reject directory fsync.
  const int dfd = ::open(dirname_of(path).c_str(), O_RDONLY | O_DIRECTORY);
  if (dfd >= 0) {
    ::fsync(dfd);
    ::close(dfd);
  }
}

}  // namespace af
