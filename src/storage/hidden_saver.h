// Two-stage hidden-state saving (paper §4.2.2) and its readback path.
//
// Stage 1 — snapshot: when a layer produces hidden states, its rows are *encoded* into
// a host-side staging buffer (the model for the single cudaMemcpy that "snapshots the
// hidden states to the host, allowing the GPU memory buffer to be properly reused").
// The precision codec runs here, fused into the snapshot copy: a sealed chunk is
// already in its on-storage encoding, so flushing never makes a second pass over the
// data. This runs synchronously on the compute thread and is cheap.
//
// Stage 2 — chunk management: a background pool (the paper uses 8 host threads)
// flushes sealed chunks to the StorageBackend (file, DRAM, or tiered). Generation
// never blocks on storage, and the steady-state path never allocates: sealed chunks
// are handed off by swapping the staging buffer with a pooled payload buffer that
// returns to the pool when the write completes.
//
// `HiddenStateWriter` is the per-sequence sink and `HiddenStateReader` its readback.
// Both carry any kind of chunked row state through a ChunkGeometry: the engine saves
// and restores its KV-offload layers (interleaved [K | V] rows under kKvLayerBase)
// through the same writer and reader as hidden states. The Fig 14 DirectIO ablation
// (row-granular synchronous writes) is modeled by the serving simulator's
// SaveMode::kDirect, not here.
#ifndef HCACHE_SRC_STORAGE_HIDDEN_SAVER_H_
#define HCACHE_SRC_STORAGE_HIDDEN_SAVER_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "src/common/thread_pool.h"
#include "src/model/transformer.h"
#include "src/storage/codec.h"
#include "src/storage/layout.h"
#include "src/storage/storage_backend.h"

namespace hcache {

class HiddenStateWriter : public HiddenStateSink {
 public:
  // `flush_pool` may be null, in which case sealed chunks flush synchronously (still
  // chunk-granular). `geometry` fixes the layers, row width and layer keys; a layer's
  // staging buffer is allocated when its first row arrives, so a writer holds buffers
  // only for the layers it is fed. `codec` selects the stored precision; kFp32
  // round-trips bit-exactly (the functional default), kFp16/kInt8 trade bounded error
  // for bytes.
  HiddenStateWriter(StorageBackend* store, ThreadPool* flush_pool,
                    const ChunkGeometry& geometry, int64_t context_id,
                    int64_t chunk_tokens = kDefaultChunkTokens,
                    ChunkCodec codec = ChunkCodec::kFp32);
  // Hidden states of `cfg`: HiddenChunkGeometry(cfg).
  HiddenStateWriter(StorageBackend* store, ThreadPool* flush_pool, const ModelConfig& cfg,
                    int64_t context_id, int64_t chunk_tokens = kDefaultChunkTokens,
                    ChunkCodec codec = ChunkCodec::kFp32);
  ~HiddenStateWriter() override;

  // Stage 1. Tokens must arrive append-only and contiguously per layer, as rows of
  // geometry.cols elements.
  void OnLayerInput(int64_t layer, const Tensor& hidden, const int32_t* positions,
                    int64_t n) override;

  // Flushes every partially filled chunk (so the full history is durable) and waits
  // for in-flight flushes. Call at the end of a generation round, before the context's
  // state may be restored. Capture may RESUME afterwards — a multi-round conversation
  // seals at each round boundary; when a partial chunk later fills up it is simply
  // rewritten in place, keeping the chunk/token mapping uniform for the reader.
  void Seal();

  // Rows fed so far for `layer` (the next row it accepts).
  int64_t tokens_saved(int64_t layer) const;
  int64_t context_id() const { return context_id_; }
  ChunkCodec codec() const { return codec_; }

  // Encoded bytes handed to the backend and their FP32-equivalent size — the storage
  // plane's compression accounting.
  int64_t encoded_bytes_written() const;
  int64_t logical_bytes_written() const;

  // Number of flush payload buffers ever allocated. Bounded by the flush pipeline's
  // depth, NOT by the chunk count: the steady-state save path recycles buffers and
  // performs no allocation (asserted by tests/storage/codec_storage_test.cc).
  int64_t payload_buffer_allocations() const;

 private:
  struct LayerBuffer {
    std::vector<uint8_t> staging;  // ChunkHeader + chunk_tokens * row stride, encoded;
                                   // empty until the layer's first row
    int64_t fill_tokens = 0;       // rows currently staged
    int64_t open_chunk = 0;        // chunk index the staging buffer maps to
    int64_t tokens_seen = 0;       // append-only position check
    bool dirty = false;            // staged rows not yet flushed (Seal is idempotent)
  };

  // Writes the staging buffer's current rows as chunk `open_chunk`. When the buffer is
  // full the chunk advances and the buffer is swapped with a pooled payload buffer; a
  // partial flush (from Seal) copies instead, keeping the staged rows so the chunk can
  // be rewritten once it fills.
  void FlushChunk(int64_t layer, LayerBuffer& buf);

  std::shared_ptr<std::vector<uint8_t>> AcquirePayload();
  void ReleasePayload(std::shared_ptr<std::vector<uint8_t>> buf);

  StorageBackend* store_;
  ThreadPool* flush_pool_;
  ChunkGeometry geometry_;
  int64_t context_id_;
  int64_t chunk_tokens_;
  ChunkCodec codec_;
  int64_t row_stride_;    // encoded bytes per staged row
  int64_t staging_bytes_;  // header + chunk_tokens * row_stride
  std::vector<LayerBuffer> layers_;

  // Recycled flush payloads (all sized staging_bytes_). Background flush tasks return
  // their buffer here; Seal() drains the pool's tasks before the writer dies, so the
  // tasks' reference to the writer never dangles.
  mutable std::mutex payload_mu_;
  std::vector<std::shared_ptr<std::vector<uint8_t>>> payload_pool_;
  int64_t payload_allocations_ = 0;

  mutable std::mutex stats_mu_;
  int64_t encoded_bytes_written_ = 0;
  int64_t logical_bytes_written_ = 0;
};

// Reassembles a layer's rows from chunks, in token order — the token-before-layer
// read path of Fig 6b. Chunks are self-describing, so one reader handles any mix of
// codecs within a context; bytes without a valid header of the geometry's row width
// never decode. The geometry selects the kind of state read (hidden states by
// default, or offloaded KV).
class HiddenStateReader {
 public:
  // `verify` selects the batched read flavor ReadLayerInto submits: true (the
  // production default) funnels every chunk through CRC verification; false reads
  // raw bytes (ReadChunksUnverified) — for trusted-memory deployments that opt out
  // and for the bench row that measures exactly what verification costs, since the
  // two flavors share every other instruction of the restore path.
  HiddenStateReader(const StorageBackend* store, const ChunkGeometry& geometry,
                    int64_t chunk_tokens = kDefaultChunkTokens, bool verify = true);
  // Hidden states of `cfg`: HiddenChunkGeometry(cfg).
  HiddenStateReader(const StorageBackend* store, const ModelConfig& cfg,
                    int64_t chunk_tokens = kDefaultChunkTokens, bool verify = true);

  // Reads tokens [0, n) of `layer`. CHECK-fails if chunks are missing, short, or
  // corrupt — use only where absence is a programming error (tests, benches).
  Tensor ReadLayer(int64_t context_id, int64_t layer, int64_t n) const;

  // Same, but decodes straight into `dst` ([n, geometry.cols] row-major floats) — the
  // fused path: dequantization writes the projection GEMM's input buffer directly,
  // with no intermediate FP32 chunk staging. Returns false (logging the failing
  // chunk) when any covering chunk is missing, short, detected corrupt, or not a
  // chunk of geometry.cols-wide rows; `dst` contents are then unspecified and the
  // caller falls back to recomputation.
  bool ReadLayerInto(int64_t context_id, int64_t layer, int64_t n, float* dst) const;

  // Same, for a KV geometry: decodes each chunk's [K | V] rows straight into `seq`'s
  // pool pages at `layer`, one pool block's run of rows at a time (MutableKvRows), with
  // no staging tensor and no second copy. `seq` must already hold capacity for n
  // tokens. On failure the pages of the chunks decoded before it hold their rows.
  bool ReadLayerInto(int64_t context_id, int64_t layer, int64_t n, PagedKvSequence* seq) const;

  // True when every chunk covering tokens [0, n) of every geometry layer exists. `expected` is
  // the codec this context's writer is configured with; pinning it keeps a partially
  // saved chunk from size-aliasing to a complete chunk of a different codec.
  bool ContextComplete(int64_t context_id, int64_t n,
                       ChunkCodec expected = ChunkCodec::kFp32) const;

  // True when every chunk covering tokens [0, n) of ONE layer exists (mixed partition
  // schemes only need a subset of layers).
  bool LayerComplete(int64_t context_id, int64_t layer, int64_t n,
                     ChunkCodec expected = ChunkCodec::kFp32) const;

 private:
  // The batched read behind both ReadLayerInto forms: fetches and checks every chunk
  // covering tokens [0, n) of `layer`, then calls decode(chunk, bytes, info, first,
  // rows) to land chunk rows [0, rows) as tokens [first, first + rows).
  template <typename Decode>
  bool ReadChunksThen(int64_t context_id, int64_t layer, int64_t n,
                      const Decode& decode) const;

  const StorageBackend* store_;
  ChunkGeometry geometry_;
  int64_t chunk_tokens_;
  bool verify_;
};

}  // namespace hcache

#endif  // HCACHE_SRC_STORAGE_HIDDEN_SAVER_H_
