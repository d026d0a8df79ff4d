// Per-layer key/value cache state for incremental attention decoding.
//
// A KvState holds the projected K/V rows an attention layer has already
// seen, one slot per (batch lane, timestep). One storage layout serves
// both modes: each lane owns a byte-aligned region of ceil(cap*D*bits/8)
// bytes holding its rows as LSB-first codes, so a lane decode never
// straddles another lane's bits. The modes differ only in the code width
// and in how a row is written and read back:
//
//  * fp32 — a row is stored as 32-bit codes, i.e. the float row itself
//    (memcpy in, direct pointer out). This mode is bit-identical to the
//    monolithic forward (the rows ARE the projections the monolithic path
//    would have computed), which is what makes the fp32-KV decode path
//    verifiable against full recompute before quantization enters.
//
//  * quantized — each row is encoded through a FormatCodec (per-layer
//    exp_bias recalibrated from calibration-time K/V ranges; see DESIGN.md
//    §15) into the lane region: AdaptivFloat rows through the backend's
//    encode entry, Float and Posit rows element by element. At 4-bit this
//    is an 8x cache-footprint cut — the KV cache, not the weights,
//    dominates serving memory at scale.
//
// Nothing is decoded ahead of use: lane() hands the attend kernel
// (KernelBackend::attend_row) the lane region itself plus the codecs'
// decode tables, and the kernel decodes each key's head slice in-register
// as it scores or mixes it (DESIGN.md §12.4). There is no decode scratch,
// so lanes and states share nothing mutable and may be read from any
// number of threads at once.
//
// All storage is allocated once in init() under the caller's ambient
// ArenaScope (a DecodeSession's never-reset KV arena); append and lane
// allocate nothing, which is what keeps steady-state decode at zero heap
// allocations per emitted token.
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

  /// Allocates storage for `b` lanes of up to `capacity` timesteps of
  /// d-dim K/V rows (under the ambient ArenaScope, if any). With a codec
  /// pair the cache stores packed codes and reads them through the codecs'
  /// decode tables, so later reads are lock-free and allocation-free.
  void init(std::int64_t b, std::int64_t capacity, std::int64_t d,
            KvQuantConfig quant = {});

  /// Rewinds to an empty cache. Storage is retained (stale bits beyond the
  /// new length are overwritten by later appends, never read).
  void reset() { len_ = 0; }

  /// Appends one projected timestep: k_step/v_step are [B, D]. AdaptivFloat
  /// rows encode through `be`'s adaptivfloat_encode (the same codes on
  /// every backend); other codecs run their scalar encode.
  void append(const Tensor& k_step, const Tensor& v_step,
              const KernelBackend& be);

  /// Bulk prefill of `t` timesteps from flattened [B*t, D] projections
  /// (cross-attention fills its whole encoder-side cache once per
  /// sequence). Requires an empty cache. Encodes as append does.
  void append_block(const Tensor& k, const Tensor& v, std::int64_t t,
                    const KernelBackend& be);

  /// Lane `bi`'s K and V histories as the attend kernel reads them, at
  /// head column 0: row j of len() rows is codes [j*dim(), (j+1)*dim()) of
  /// the lane region (fp32 rows at 32 bits, otherwise codes decoded
  /// through the codec's table). Valid until the next init().
  struct Lane {
    AttendOperand k;
    AttendOperand v;
  };
  Lane lane(std::int64_t bi) const;

  /// Decodes cached row `j` of lane `bi` into k_out/v_out (dim() floats
  /// each): exactly the values the attend kernel reads.
  void read_row(std::int64_t bi, std::int64_t j, float* k_out,
                float* v_out) const;

  std::int64_t len() const { return len_; }
  std::int64_t capacity() const { return cap_; }
  std::int64_t batch() const { return b_; }
  std::int64_t dim() const { return d_; }
  bool initialized() const { return cap_ > 0; }
  bool quantized() const { return quant_.enabled(); }

  /// Bytes the currently cached K+V payload occupies: len*D codes per lane
  /// rounded up to whole bytes (4 bytes/element for fp32).
  std::size_t payload_bytes() const;
  /// Payload bytes one appended timestep adds across all lanes.
  std::size_t bytes_per_step() const;

 private:
  // The only writer: stores K/V row `j` of lane `bi` (memcpy in fp32 mode,
  // codec encode otherwise). Overwrites stale codes in place, so appends
  // after a reset() need no zeroing pass.
  void write_row(const float* k_row, const float* v_row, std::int64_t bi,
                 std::int64_t j, const KernelBackend& be);

  std::int64_t b_ = 0, cap_ = 0, d_ = 0, len_ = 0;
  KvQuantConfig quant_;
  int bits_ = 0;                      // code width: 32 in fp32 mode
  std::size_t region_bytes_ = 0;      // ceil(cap*D*bits/8) bytes per lane
  const float* k_table_ = nullptr;    // decode LUTs (owned by the codecs)
  const float* v_table_ = nullptr;
  // The codecs' encode-entry views; both set or both null.
  const AfEncodeView* k_view_ = nullptr;
  const AfEncodeView* v_view_ = nullptr;

  Tensor k_codes_, v_codes_;  // B lane regions of codes (float storage)
};

}  // namespace af
