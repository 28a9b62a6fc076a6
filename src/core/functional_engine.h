// Functional HCache engine: the end-to-end save → evict → restore path executed with
// real computation and real storage (any StorageBackend: file, DRAM, or tiered).
//
// This is where the paper's pieces compose: the transformer forward pass captures
// hidden states through the two-stage saver into the chunk store; eviction releases the
// paged KV blocks; restoration rebuilds the KV cache according to a partition scheme —
// hidden-state layers via the K/V projection (plus RoPE at original positions), KV
// -offloaded layers from stored KV chunks, recomputed layers by re-running the early
// transformer layers from the raw tokens. Every path lands bit-identical KV, which the
// integration tests assert.
#ifndef HCACHE_SRC_CORE_FUNCTIONAL_ENGINE_H_
#define HCACHE_SRC_CORE_FUNCTIONAL_ENGINE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "src/common/thread_pool.h"
#include "src/core/partition.h"
#include "src/model/kv_cache.h"
#include "src/model/transformer.h"
#include "src/storage/hidden_saver.h"
#include "src/storage/storage_backend.h"

namespace hcache {

class FunctionalHCache {
 public:
  // `model`, `store`, and `flush_pool` must outlive the engine. `flush_pool` runs the
  // chunk flushes and each restore's transmission stream; it may be null (synchronous
  // flushes, and restores that load each layer on the caller). A single store holds
  // both hidden-state and KV chunks; KV chunks live in a disjoint layer-key namespace
  // (kKvLayerBase) and go through the same HiddenStateWriter / HiddenStateReader.
  // `codec` selects the stored precision of both chunk kinds: kFp32 (default)
  // restores bit-exactly; kFp16/kInt8 halve/quarter stored bytes with a bounded,
  // deterministic error (identical restored floats on every backend).
  FunctionalHCache(Transformer* model, StorageBackend* store, ThreadPool* flush_pool,
                   int64_t chunk_tokens = kDefaultChunkTokens,
                   ChunkCodec codec = ChunkCodec::kFp32);

  // Starts (or resumes) capturing hidden states for a context. The returned sink is
  // owned by the engine and stays valid until DropContext.
  HiddenStateSink* BeginCapture(int64_t context_id);

  // Flushes partial chunks for the context (call when its generation round ends).
  void SealContext(int64_t context_id);

  // Persists the KV cache of `layers` (paper: the last L_O layers under a KV-offload
  // complement) from the sequence to the store. Call before Evict; returns once the
  // chunks are stored. Append-only like hidden-state capture: each call writes only
  // the rows this context has not saved yet, rewriting from its partial tail chunk
  // onward. After DropContext the next call starts again at row 0.
  void SaveKvLayers(int64_t context_id, const PagedKvSequence& seq,
                    const std::vector<int64_t>& layers);

  // Rebuilds `seq`'s KV cache for its recorded history by running PlanRestore's steps
  // for `scheme`; a scheme that leaves a layer without a source is a CHECK failure.
  // `history_tokens` must be the context's original token ids when the scheme contains
  // recomputed layers (complement == kRecompute); it may be empty otherwise.
  // Returns false — leaving the sequence evicted and its history length intact — when
  // the KV pool cannot hold the restored state or when stored state is missing/corrupt
  // (e.g. a device was lost); the caller falls back to full recomputation.
  bool RestoreContext(int64_t context_id, const PartitionScheme& scheme,
                      const std::vector<int32_t>& history_tokens, PagedKvSequence* seq);

  // True when everything `scheme` needs to restore `n` tokens of this context is
  // durably stored (hidden chunks for hidden layers, KV chunks for offloaded layers):
  // HiddenStateReader::LayerComplete over each kind's geometry, for the same steps
  // RestoreContext runs. A size-only probe; RestoreContext does not call it, because
  // its batched reads detect missing, short and corrupt chunks themselves.
  bool CanRestore(int64_t context_id, const PartitionScheme& scheme, int64_t n) const;

  // Deletes all stored state for the context and forgets its writers.
  void DropContext(int64_t context_id);

  // Reads one layer's hidden states back (test/inspection hook).
  Tensor ReadHidden(int64_t context_id, int64_t layer, int64_t n) const;

  // Decodes tokens [0, n) of one layer's hidden states into `dst` ([n, hidden_dim]).
  // False when a covering chunk is missing, short or corrupt.
  bool ReadHiddenInto(int64_t context_id, int64_t layer, int64_t n, float* dst) const;

  int64_t chunk_tokens() const { return chunk_tokens_; }
  ChunkCodec codec() const { return codec_; }

 private:
  Transformer* model_;
  StorageBackend* store_;
  ThreadPool* flush_pool_;
  int64_t chunk_tokens_;
  ChunkCodec codec_;
  HiddenStateReader hidden_reader_;
  HiddenStateReader kv_reader_;
  std::map<int64_t, std::unique_ptr<HiddenStateWriter>> writers_;
  std::map<int64_t, std::unique_ptr<HiddenStateWriter>> kv_writers_;
  // RestoreContext's hidden-row slots, reused across restores.
  std::unique_ptr<float[]> staging_;
  size_t staging_floats_ = 0;
};

}  // namespace hcache

#endif  // HCACHE_SRC_CORE_FUNCTIONAL_ENGINE_H_
