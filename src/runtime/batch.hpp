// Row-packing helpers for batched forwards (DESIGN.md §14).
//
// The serving batcher coalesces N same-tenant requests, packs their rank-2
// inputs into one [total_rows, d] activation tensor, runs a single forward,
// and scatters per-request row blocks back out. These helpers are the
// pack/scatter halves; the bit-equality contract they rely on is that every
// kernel on the forward path treats rows independently (the per-element
// accumulation chain is a function of the row's data and the weights only,
// never of m, both in gemm_dot_rows, which runs every fp32 x*W^T, and in
// gemm_panel_accumulate, which runs the packed product), so row i of the
// packed forward is bit-identical to the same request run solo.
#pragma once

#include <cstdint>
#include <vector>

#include "src/tensor/tensor.hpp"

namespace af {

/// Concatenates rank-2 tensors sharing dim(1) into one [sum(dim(0)), d]
/// tensor allocated under the caller's ambient ArenaScope (the batching
/// worker binds its staging arena, so packing allocates nothing on the
/// heap in steady state). `row_offsets`, when non-null, receives each
/// input's starting row in the packed tensor. Throws FaultError
/// (kMalformedInput) on rank or width mismatch — serving-reachable, typed.
Tensor pack_rows(const std::vector<const Tensor*>& inputs,
                 std::vector<std::int64_t>* row_offsets = nullptr);

/// Owned (heap-backed, never arena) copy of rows [row0, row0 + rows) of a
/// rank-2 tensor — the scatter half: each response's output must outlive
/// the worker's arena cycle. Bounds-checked, typed on violation.
Tensor copy_row_block(const Tensor& src, std::int64_t row0, std::int64_t rows);

}  // namespace af
