// Storage layout of hidden states (paper §4.2.1, challenge C2) and the on-storage
// chunk format shared by every backend.
//
// Hidden states are *generated* layer-before-token (Fig 6a) but *restored*
// token-before-layer (Fig 6b). A layout can be contiguous for at most one of the two
// orders; the other order then issues many small IOs. HCache's layout groups the tokens
// of one layer into fixed 64-token chunks, striped round-robin over the SSDs, so
// restoring a layer reads ceil(n/64) large contiguous chunks. Saving one decode step
// directly would then touch every layer's open chunk with a small write, which is why
// the two-stage saver stages rows and flushes whole chunks. A token-major layout (each
// token's rows of every layer contiguous) would make that save one medium write but
// turn every restored layer into n strided small reads.
//
// Chunks are additionally *encoded*: restoration is bound by bytes moved per token
// (§3.2), so the precision of the stored rows is a first-class lever. A ChunkCodec
// selects the element encoding, and every stored chunk is self-describing via a
// versioned ChunkHeader so backends can hold a mix of codecs.
#ifndef HCACHE_SRC_STORAGE_LAYOUT_H_
#define HCACHE_SRC_STORAGE_LAYOUT_H_

#include <cstdint>

#include "src/model/config.h"

namespace hcache {

// The paper fixes chunks at 64 tokens (§4.2.1); the ablation bench sweeps this.
inline constexpr int64_t kDefaultChunkTokens = 64;

// --- chunk codec: the element encoding of stored rows ---
//
//   kFp32 — raw floats, bit-lossless round trip (the functional plane's default, so
//           lossless-restoration tests stay exact).
//   kFp16 — IEEE half, round-to-nearest-even, saturating at ±65504. Halves the bytes;
//           error ≤ 0.5 ulp of half per element. The serving default: the paper's
//           hidden-state IO model is already sized for FP16 transport.
//   kInt8 — per-row symmetric quantization (CacheGen-style, §7): one FP32 scale
//           max|row|/127 per token row, then rounded int8 values. ~4x vs FP32; error
//           ≤ scale/2 per element (quantize.h's RowErrorBound).
enum class ChunkCodec : uint8_t { kFp32 = 0, kFp16 = 1, kInt8 = 2 };

const char* ChunkCodecName(ChunkCodec codec);

// Payload bytes one row of `cols` elements occupies under `codec` (the per-token
// transmission cost the restoration model charges). kInt8 carries its per-row scale.
int64_t CodecRowBytes(ChunkCodec codec, int64_t cols);

// Self-describing header at the front of every stored chunk. 24 bytes, little-endian.
//
// --- storage-format note (version + durability protocol) ---
//
//   v3 is the one chunk format: {magic, version, codec, rows, cols} followed by two
//   CRC32C checksums (Castagnoli polynomial, ~0 init, final xor, i.e. the SSE4.2
//   `crc32` instruction's convention):
//     payload_crc32c — over the rows * CodecRowBytes payload that follows the
//                      header. Backends verify it on EVERY read of a chunk
//                      (ReadChunk, ReadChunks, tiered promotion) and report a
//                      mismatch as kChunkCorrupt, never as decoded data.
//     header_crc32c  — over the first 20 header bytes, so a bit flip inside the
//                      header itself (rows, cols, codec) is detected before any
//                      field is trusted.
//   Readers accept nothing else (codec.h's ParseChunkHeader is the one parser):
//   bytes without the magic are opaque and never decode, and bytes with the magic
//   but any other version read as corrupt.
//
//   A v3 hidden chunk holds each token's attention input: the layer's input after its
//   pre-norm, the rows the K/V projection reads. v2 had the same layout but stored
//   the layer input before the pre-norm; projecting those rows would restore wrong
//   K/V, so a v2 chunk reads as corrupt, its restore fails, and the caller recomputes
//   from tokens.
//
//   Crash consistency: FileBackend appends a chunk's bytes, unchanged, to its
//   context's log segment behind a private frame {key, length, frame CRC}. The index
//   publishes a record only once it is wholly written, and a crash mid-append leaves
//   a torn segment tail that the next open (or hcache-fsck) truncates, so a reader
//   never observes a half-written chunk. A bad frame followed by more than one
//   record is damage instead: it is left in place and reported, never truncated.
struct ChunkHeader {
  uint32_t magic = 0;    // kChunkMagic
  uint16_t version = 0;  // kChunkFormatVersion
  uint8_t codec = 0;     // ChunkCodec
  uint8_t reserved = 0;
  uint32_t rows = 0;     // tokens stored in this chunk
  uint32_t cols = 0;     // elements per row
  uint32_t payload_crc32c = 0;  // CRC32C over the payload (rows * CodecRowBytes)
  uint32_t header_crc32c = 0;   // CRC32C over the 20 header bytes above
};
static_assert(sizeof(ChunkHeader) == 24, "header layout is part of the storage format");

inline constexpr uint32_t kChunkMagic = 0x4b434348;  // "HCCK" little-endian
inline constexpr uint16_t kChunkFormatVersion = 3;

// Chunk keys: a context's hidden-state chunks sit under the model layer index, its
// KV-offload chunks under kKvLayerBase + layer, so the two kinds never collide.
inline constexpr int64_t kKvLayerBase = 1'000'000;

// The shape of one kind of chunked row state: `num_layers` layers of `cols`-element
// rows, stored under layer keys `layer_key_base + layer`.
struct ChunkGeometry {
  int64_t num_layers = 0;
  int64_t cols = 0;
  int64_t layer_key_base = 0;
};

// Hidden states: one hidden_dim row per token and layer.
inline ChunkGeometry HiddenChunkGeometry(const ModelConfig& cfg) {
  return {cfg.num_layers, cfg.hidden_dim, 0};
}

// Offloaded KV: one interleaved [K | V] row (2 * kv_dim) per token and layer.
inline ChunkGeometry KvChunkGeometry(const ModelConfig& cfg) {
  return {cfg.num_layers, 2 * cfg.kv_dim(), kKvLayerBase};
}

// Total stored size of an encoded chunk: header + rows * CodecRowBytes.
int64_t EncodedChunkBytes(ChunkCodec codec, int64_t rows, int64_t cols);

// True when `stored_bytes` is the exact size of a chunk encoded under `expected` (the
// codec the context's writer is configured with) holding between `min_rows` and
// `max_rows` rows of `cols` elements. The existence check completeness scans
// (HiddenStateReader::LayerComplete) use when only ChunkSize() is known: a partially
// saved chunk fails it, so restoration reports the context incomplete and the caller
// falls back to recompute. The codec must be pinned by the caller —
// accepting ANY codec's row stride would let a half-saved FP32 chunk alias to a full
// FP16 chunk (r rows x 4 bytes == 2r rows x 2 bytes, a deterministic 2:1 aliasing).
bool ChunkSizeCoversRows(int64_t stored_bytes, int64_t min_rows, int64_t max_rows,
                         int64_t cols, ChunkCodec expected);

struct IoPattern {
  int64_t num_ios = 0;
  int64_t io_size = 0;  // bytes per IO

  int64_t total_bytes() const { return num_ios * io_size; }
};

// IO pattern to restore ONE layer's hidden states for n history tokens: ceil(n /
// chunk_tokens) reads of one chunk each. `codec` sets the per-row transmission bytes;
// the default kFp16 matches the paper's FP16 transport (and
// ModelConfig::state_dtype_bytes == 2). The 24-byte chunk header is amortized to noise
// (< 0.1% of a 64-token chunk) and not charged.
IoPattern RestoreLayerPattern(const ModelConfig& cfg, int64_t n,
                              int64_t chunk_tokens = kDefaultChunkTokens,
                              ChunkCodec codec = ChunkCodec::kFp16);

// IO pattern to restore ONE layer's offloaded KV cache for n history tokens. KV chunks
// mirror the hidden chunk geometry but rows are 2 * kv_dim wide at the FP16 state
// dtype (KvBytesPerTokenLayer), independent of the hidden-state codec.
IoPattern KvRestoreLayerPattern(const ModelConfig& cfg, int64_t n,
                                int64_t chunk_tokens = kDefaultChunkTokens);

}  // namespace hcache

#endif  // HCACHE_SRC_STORAGE_LAYOUT_H_
