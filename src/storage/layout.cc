#include "src/storage/layout.h"

#include "src/common/logging.h"

namespace hcache {

const char* ChunkCodecName(ChunkCodec codec) {
  switch (codec) {
    case ChunkCodec::kFp32:
      return "fp32";
    case ChunkCodec::kFp16:
      return "fp16";
    case ChunkCodec::kInt8:
      return "int8";
  }
  return "?";
}

int64_t CodecRowBytes(ChunkCodec codec, int64_t cols) {
  CHECK_GT(cols, 0);
  switch (codec) {
    case ChunkCodec::kFp32:
      return cols * 4;
    case ChunkCodec::kFp16:
      return cols * 2;
    case ChunkCodec::kInt8:
      return cols + static_cast<int64_t>(sizeof(float));  // values + per-row scale
  }
  return cols * 4;
}

int64_t EncodedChunkBytes(ChunkCodec codec, int64_t rows, int64_t cols) {
  CHECK_GE(rows, 0);
  return static_cast<int64_t>(sizeof(ChunkHeader)) + rows * CodecRowBytes(codec, cols);
}

bool ChunkSizeCoversRows(int64_t stored_bytes, int64_t min_rows, int64_t max_rows,
                         int64_t cols, ChunkCodec expected) {
  CHECK_GT(cols, 0);
  CHECK_GE(max_rows, min_rows);
  // Header + rows * the EXPECTED codec's row stride must land exactly on a row
  // boundary with a row count in range. Only the configured codec's stride is
  // accepted — a short chunk's payload can alias to an in-range row count under a
  // different codec's stride (FP32 vs FP16 alias deterministically at 2:1), which
  // would report a half-saved context restorable.
  const int64_t row = CodecRowBytes(expected, cols);
  const int64_t payload = stored_bytes - static_cast<int64_t>(sizeof(ChunkHeader));
  if (payload < 0 || payload % row != 0) {
    return false;
  }
  const int64_t rows = payload / row;
  return rows >= min_rows && rows <= max_rows;
}

namespace {

// Shared geometry of the per-layer restore read: one IO per `chunk_tokens`-row chunk.
IoPattern RestorePatternForRowBytes(int64_t n, int64_t chunk_tokens, int64_t row_bytes) {
  CHECK_GT(chunk_tokens, 0);
  IoPattern p;
  if (n <= 0) {
    return p;
  }
  p.num_ios = (n + chunk_tokens - 1) / chunk_tokens;
  p.io_size = chunk_tokens * row_bytes;
  return p;
}

}  // namespace

IoPattern RestoreLayerPattern(const ModelConfig& cfg, int64_t n, int64_t chunk_tokens,
                              ChunkCodec codec) {
  return RestorePatternForRowBytes(n, chunk_tokens, CodecRowBytes(codec, cfg.hidden_dim));
}

IoPattern KvRestoreLayerPattern(const ModelConfig& cfg, int64_t n, int64_t chunk_tokens) {
  return RestorePatternForRowBytes(n, chunk_tokens, cfg.KvBytesPerTokenLayer());
}

}  // namespace hcache
