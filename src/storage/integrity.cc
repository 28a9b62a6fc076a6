#include "src/storage/integrity.h"

#include <cstring>

#include "src/storage/codec.h"
#include "src/storage/codec_simd.h"
#include "src/storage/layout.h"

namespace hcache {

const char* ChunkVerdictName(ChunkVerdict verdict) {
  switch (verdict) {
    case ChunkVerdict::kOkVerified:
      return "ok-verified";
    case ChunkVerdict::kOkUnverified:
      return "ok-unverified";
    case ChunkVerdict::kCorrupt:
      return "corrupt";
  }
  return "?";
}

ChunkVerdict VerifyChunkBytes(const void* data, int64_t bytes, int64_t* checked_bytes) {
  if (checked_bytes != nullptr) {
    *checked_bytes = 0;
  }
  if (data == nullptr || bytes <= 0) {
    return ChunkVerdict::kOkUnverified;
  }
  ChunkInfo info;
  // cols = 0: the backend does not know the caller's row geometry; the reader checks
  // the width against its own.
  if (InspectChunk(data, bytes, /*cols=*/0, &info)) {
    const uint8_t* payload = static_cast<const uint8_t*>(data) + sizeof(ChunkHeader);
    const int64_t payload_bytes = bytes - static_cast<int64_t>(sizeof(ChunkHeader));
    if (Crc32c(payload, payload_bytes) != info.payload_crc32c) {
      return ChunkVerdict::kCorrupt;
    }
    if (checked_bytes != nullptr) {
      *checked_bytes = payload_bytes;
    }
    return ChunkVerdict::kOkVerified;
  }
  // Unparseable. If the bytes CLAIM the chunk format (the magic is present) the
  // claim failed — header bit flip, bad header CRC, an unread version, or truncation
  // — and that is a detected corruption, not an opaque blob.
  return HasChunkMagic(data, bytes) ? ChunkVerdict::kCorrupt : ChunkVerdict::kOkUnverified;
}

ChunkVerdict VerifyAndCopyChunk(const void* data, int64_t bytes, void* dst,
                                int64_t* checked_bytes) {
  if (checked_bytes != nullptr) {
    *checked_bytes = 0;
  }
  if (data == nullptr || bytes <= 0) {
    return ChunkVerdict::kOkUnverified;  // nothing to copy
  }
  ChunkInfo info;
  if (InspectChunk(data, bytes, /*cols=*/0, &info)) {
    // Sealed chunk: checksum the payload while it moves.
    constexpr int64_t kHeader = static_cast<int64_t>(sizeof(ChunkHeader));
    const auto* src = static_cast<const uint8_t*>(data);
    auto* out = static_cast<uint8_t*>(dst);
    std::memcpy(out, src, sizeof(ChunkHeader));
    const int64_t payload_bytes = bytes - kHeader;
    const uint32_t crc = ActiveCodecKernels().crc32c_copy(0xFFFFFFFFu, src + kHeader,
                                                          out + kHeader, payload_bytes) ^
                         0xFFFFFFFFu;
    if (crc != info.payload_crc32c) {
      return ChunkVerdict::kCorrupt;  // dst contents unspecified
    }
    if (checked_bytes != nullptr) {
      *checked_bytes = payload_bytes;
    }
    return ChunkVerdict::kOkVerified;
  }
  // Opaque bytes or a failed format claim: the two-pass verdict, plain copy unless
  // corrupt.
  const ChunkVerdict verdict = VerifyChunkBytes(data, bytes, nullptr);
  if (verdict != ChunkVerdict::kCorrupt) {
    std::memcpy(dst, data, static_cast<size_t>(bytes));
  }
  return verdict;
}

}  // namespace hcache
