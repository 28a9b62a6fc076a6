// Chunk integrity verification: the single checkpoint every read path funnels
// stored bytes through before they are allowed to decode into model state.
//
// The paper's premise — context state outlives the GPU in a storage tier — only
// holds if that tier can be *trusted*: at fleet scale bit rot, torn writes, and
// misdirected IO are routine, and a flipped bit in a chunk would otherwise decode
// into silently wrong KV. VerifyChunkBytes classifies a stored chunk:
//
//   kOkVerified   — a sealed chunk whose payload CRC32C matches its header. The
//                   bytes are what the writer sealed.
//   kOkUnverified — opaque bytes with no chunk magic, which never claimed the chunk
//                   format (the serving plane's descriptor chunks). Delivered as
//                   stored, not attestable — and never decodable: the chunk readers
//                   accept only a valid header (codec.h's InspectChunk).
//   kCorrupt      — bytes that CLAIM the chunk format (magic present) but fail it:
//                   payload CRC mismatch, header CRC mismatch, a version or size
//                   that contradicts the format (truncation). Backends surface this
//                   as kChunkCorrupt — never as decoded data.
#ifndef HCACHE_SRC_STORAGE_INTEGRITY_H_
#define HCACHE_SRC_STORAGE_INTEGRITY_H_

#include <cstdint>

namespace hcache {

enum class ChunkVerdict { kOkVerified = 0, kOkUnverified = 1, kCorrupt = 2 };

const char* ChunkVerdictName(ChunkVerdict verdict);

// Classifies `bytes` stored bytes. When `checked_bytes` is non-null it receives the
// number of payload bytes actually CRC-checked (> 0 only for kOkVerified) — the
// figure StorageStats::crc_checked_bytes accumulates.
ChunkVerdict VerifyChunkBytes(const void* data, int64_t bytes,
                              int64_t* checked_bytes = nullptr);

// VerifyChunkBytes fused with the delivery copy: classifies `data` and copies all
// `bytes` to `dst` in the same pass (the crc32c_copy kernel checksums the payload
// while it moves, so verification costs no extra memory sweep). On kCorrupt the
// contents of `dst` are unspecified — the caller must not deliver them. `dst` must
// hold `bytes` and must not overlap `data`.
ChunkVerdict VerifyAndCopyChunk(const void* data, int64_t bytes, void* dst,
                                int64_t* checked_bytes = nullptr);

}  // namespace hcache

#endif  // HCACHE_SRC_STORAGE_INTEGRITY_H_
