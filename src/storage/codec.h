// Chunk precision codec: fused convert kernels for the storage plane's hot paths.
//
// The paper's restoration model is bound by bytes moved per token (§3.2), and its §7
// quantization note observes the hidden states tolerate reduced precision. This module
// turns that into the storage plane's element encodings (layout.h's ChunkCodec):
//
//   save path   — EncodeRowsInto converts FP32 activation rows straight into the
//                 saver's staging bytes during the stage-1 snapshot, so a sealed chunk
//                 is already encoded when it reaches the backend (no second pass).
//   restore path — DecodeChunkRange converts stored rows straight into the caller's
//                 destination floats (a Tensor row range, or the K/V halves of an
//                 interleaved KV chunk), so dequantization rides the same pass that
//                 lands data in the projection GEMM's input — no intermediate FP32
//                 chunk tensor is ever materialized.
//
// The element loops dispatch through codec_simd.h's runtime-selected kernel table
// (scalar reference, or hand-written AVX2 paths — HCACHE_SIMD=scalar forces scalar),
// and they thread across rows via ThreadPool::ParallelFor once the chunk is large
// enough to amortize dispatch. All conversions are deterministic AND bit-identical
// across ISA tiers (pinned by tests/storage/codec_matrix_test.cc): the same input
// bytes decode to the same floats on every backend, at every thread count, on every
// CPU — which keeps restored state bit-stable across File/Memory/Tiered stores and
// across heterogeneous replicas.
#ifndef HCACHE_SRC_STORAGE_CODEC_H_
#define HCACHE_SRC_STORAGE_CODEC_H_

#include <cstdint>

#include "src/storage/layout.h"

namespace hcache {

// --- scalar FP16 conversion (IEEE binary16, round-to-nearest-even) ---
//
// Encode saturates to ±65504 (max finite half) instead of producing infinities —
// hidden states are O(1..100) in practice, and a saturating codec keeps a pathological
// activation from poisoning downstream projections with non-finite values. NaN is
// preserved as a half NaN. Decode is exact (every half value is representable in FP32).
uint16_t Fp32ToFp16Bits(float f);
float Fp16BitsToFp32(uint16_t bits);

// The 65536-entry half->float table the scalar decode tier reads (built once,
// thread-safe). Exposed so the matrix test can assert the vector tier's vcvtph2ps
// output is LUT-equivalent for every half pattern. Decode quiets signaling half
// NaNs (payload | 0x200), matching the hardware conversion exactly.
const float* Fp16DecodeTable();

// Largest absolute round-trip error FP16 encoding can introduce for a finite input
// within half range: 0.5 ulp of the half-precision result (2^-11 relative for normals,
// 2^-25 absolute in the subnormal range).
float Fp16UlpOf(float decoded);

// --- INT8 per-row symmetric quantization (shared with core/quantize.cc) ---
//
// scale = max|row|/127 (1.0 for an all-zero row); values are round-half-away-from-zero
// and clamped to [-127, 127]. Round-trip error ≤ scale/2 per element — the same bound
// quantize.h's RowErrorBound reports.
void Int8EncodeRow(const float* src, int64_t cols, float* scale_out, int8_t* values_out);
void Int8DecodeRow(const int8_t* values, float scale, int64_t cols, float* dst);

// --- chunk encode ---

// Fills a ChunkHeader for `rows` x `cols` under `codec` at `dst` (≥ sizeof(ChunkHeader)
// bytes). MUST be called after the rows were encoded: the header checksums the
// rows * CodecRowBytes payload that follows it (encoding never touches the header
// region, so sealing the header last is always safe).
void WriteChunkHeader(ChunkCodec codec, int64_t rows, int64_t cols, void* dst);

// Encodes `rows` rows of `cols` floats (row r at src + r * src_stride) into
// consecutive encoded rows at `payload` (stride CodecRowBytes(codec, cols)); `payload`
// typically points just past the header, at any row boundary of a staging buffer.
// Threads across rows when rows * cols is large enough to pay for dispatch; otherwise
// runs inline (the decode-phase snapshot of a single token row stays allocation-free).
void EncodeRowsInto(ChunkCodec codec, const float* src, int64_t src_stride, int64_t rows,
                    int64_t cols, uint8_t* payload);

// --- chunk decode ---

// What a chunk's header says. The payload (rows * CodecRowBytes bytes) starts
// sizeof(ChunkHeader) bytes in.
struct ChunkInfo {
  ChunkCodec codec = ChunkCodec::kFp32;
  int64_t rows = 0;
  int64_t cols = 0;
  // The stored payload checksum. Verification against the actual payload bytes is
  // the read path's job (integrity.h's VerifyChunkBytes) — the parsers below check
  // the header's own CRC but never walk the payload.
  uint32_t payload_crc32c = 0;
};

// The one header parser: true when `data` starts with a header whose magic, version,
// codec, cols (> 0) and header CRC are all valid. It does NOT check that `bytes`
// holds the payload the header promises, so fsck can tell a torn write (a trusted
// header over a short payload) from a corrupt chunk.
bool ParseChunkHeader(const void* data, int64_t bytes, ChunkInfo* info);

// True when `data` starts with the chunk magic, i.e. the bytes claim the chunk format
// (integrity.h reads a failed claim as corruption, and no magic as opaque bytes).
bool HasChunkMagic(const void* data, int64_t bytes);

// Parses a stored chunk: ParseChunkHeader, plus bytes == EncodedChunkBytes(codec,
// rows, cols) and, when `cols` > 0, a header row width equal to `cols` (0 accepts
// any width). Returns false for anything else — including bytes with no header.
bool InspectChunk(const void* data, int64_t bytes, int64_t cols, ChunkInfo* info);

// Decodes the rectangle rows [row0, row1) x cols [col0, col1) of an inspected chunk
// into dst (row-major, leading dimension dst_stride floats). Column sub-ranges let the
// KV read path split an interleaved [K | V] row directly into the two destination
// tensors. INT8 rows apply their per-row scale regardless of the column range.
// Threads across rows like EncodeRowsInto.
void DecodeChunkRange(const void* data, int64_t bytes, const ChunkInfo& info, int64_t row0,
                      int64_t row1, int64_t col0, int64_t col1, float* dst,
                      int64_t dst_stride);

}  // namespace hcache

#endif  // HCACHE_SRC_STORAGE_CODEC_H_
