// Per-layer key/value cache state for incremental attention decoding.
//
// A KvState holds the projected K/V rows one stream's attention layer has
// already seen, one slot per timestep. One storage layout serves both
// modes: K and V each own a byte-aligned region of ceil(cap*D*bits/8)
// bytes holding their rows as LSB-first codes. The modes differ only in
// the code width and in how a row is written and read back:
//
//  * fp32 — a row is stored as 32-bit codes, i.e. the float row itself
//    (memcpy in, direct pointer out). This mode is bit-identical to the
//    monolithic forward (the rows ARE the projections the monolithic path
//    would have computed), which is what makes the fp32-KV decode path
//    verifiable against full recompute before quantization enters.
//
//  * quantized — each row is encoded through a FormatCodec (per-layer
//    exp_bias recalibrated from calibration-time K/V ranges; see DESIGN.md
//    §15) into the region, every format through the backend's encode
//    entry. At 4-bit this is an 8x cache-footprint cut — the KV cache, not
//    the weights, dominates serving memory at scale.
//
// Nothing is decoded ahead of use: operands() hands the attend kernel
// (KernelBackend::attend_row) the regions themselves plus the codecs'
// decode tables, and the kernel decodes each key's head slice in-register
// as it scores or mixes it (DESIGN.md §12.4). There is no decode scratch,
// so a state holds nothing mutable on read and may be read from any
// number of threads at once. A batched decode step projects S streams'
// rows together and appends row r to stream r's own state, since live
// streams sit at different positions.
//
// All storage is allocated once in init() under the caller's ambient
// ArenaScope (a TransformerDecoder's never-reset KV arena); append and
// operands allocate nothing, which is what keeps steady-state decode at
// zero heap allocations per emitted token.
#pragma once

#include <memory>

#include "src/kernels/backend.hpp"
#include "src/resilience/codec.hpp"
#include "src/tensor/tensor.hpp"

namespace af {

/// Codec pair for quantized KV storage. Empty (default) = fp32 mode.
struct KvQuantConfig {
  std::shared_ptr<const FormatCodec> k_codec;
  std::shared_ptr<const FormatCodec> v_codec;
  bool enabled() const { return k_codec != nullptr && v_codec != nullptr; }
};

class KvState {
 public:
  KvState() = default;

  /// Allocates storage for up to `capacity` timesteps of d-dim K/V rows
  /// (under the ambient ArenaScope, if any). With a codec pair the cache
  /// stores packed codes and reads them through the codecs' decode tables,
  /// so later reads are lock-free and allocation-free.
  void init(std::int64_t capacity, std::int64_t d, KvQuantConfig quant = {});

  /// Rewinds to an empty cache. Storage is retained (stale bits beyond the
  /// new length are overwritten by later appends, never read).
  void reset() { len_ = 0; }

  /// Appends one projected timestep: k_step/v_step are [1, D]. Rows encode
  /// through `be`'s encode entry (the same codes on every backend).
  void append(const Tensor& k_step, const Tensor& v_step,
              const KernelBackend& be);
  /// append() from dim()-float rows — one row of a stacked [S, D]
  /// projection, as a batched decode step appends each stream's own.
  void append_row(const float* k_row, const float* v_row,
                  const KernelBackend& be);

  /// Bulk prefill from [t, D] projections, one row per timestep
  /// (cross-attention fills its whole encoder-side cache once per
  /// sequence). Requires an empty cache. Encodes as append does.
  void append_block(const Tensor& k, const Tensor& v, const KernelBackend& be);

  /// The K and V histories as the attend kernel reads them, at head
  /// column 0: row j of len() rows is codes [j*dim(), (j+1)*dim()) of the
  /// region (fp32 rows at 32 bits, otherwise codes decoded through the
  /// codec's table). Valid until the next init().
  struct Operands {
    AttendOperand k;
    AttendOperand v;
  };
  Operands operands() const;

  /// Decodes cached row `j` into k_out/v_out (dim() floats each): exactly
  /// the values the attend kernel reads.
  void read_row(std::int64_t j, float* k_out, float* v_out) const;

  std::int64_t len() const { return len_; }
  std::int64_t capacity() const { return cap_; }
  std::int64_t dim() const { return d_; }
  bool initialized() const { return cap_ > 0; }
  bool quantized() const { return quant_.enabled(); }

  /// Bytes the currently cached K+V payload occupies: len*D codes each
  /// for K and V, rounded up to whole bytes (4 bytes/element for fp32).
  std::size_t payload_bytes() const;
  /// Payload bytes one appended timestep adds.
  std::size_t bytes_per_step() const;

 private:
  // The only writer: stores K/V row `j` (memcpy in fp32 mode, codec
  // encode otherwise). Overwrites stale codes in place, so appends after a
  // reset() need no zeroing pass.
  void write_row(const float* k_row, const float* v_row, std::int64_t j,
                 const KernelBackend& be);

  std::int64_t cap_ = 0, d_ = 0, len_ = 0;
  KvQuantConfig quant_;
  int bits_ = 0;                      // code width: 32 in fp32 mode
  std::size_t region_bytes_ = 0;      // ceil(cap*D*bits/8) bytes each
  const float* k_table_ = nullptr;    // decode LUTs (owned by the codecs)
  const float* v_table_ = nullptr;

  Tensor k_codes_, v_codes_;  // the K and V code regions (float storage)
};

}  // namespace af
