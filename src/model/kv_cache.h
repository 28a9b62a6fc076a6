// PagedAttention-style KV cache (Kwon et al., SOSP'23) — the GPU-memory substrate the
// paper's motivation (§2.4) is built on: a fixed pool of fixed-size token blocks, block
// tables per sequence, eviction by releasing blocks, and restoration by refilling them.
//
// One block holds `block_tokens` tokens' K and V for *all* layers, so a sequence has a
// single block table shared across layers (the vLLM layout). Capacity pressure is what
// forces state restoration in the first place: the pool makes "an A100-40G keeps only
// 7–20 conversations" (§2.4) a testable, concrete mechanism rather than a narrative.
#ifndef HCACHE_SRC_MODEL_KV_CACHE_H_
#define HCACHE_SRC_MODEL_KV_CACHE_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "src/model/config.h"
#include "src/tensor/tensor.h"

namespace hcache {

struct KvPoolConfig {
  int64_t num_blocks = 0;
  int64_t block_tokens = 16;
  int64_t num_layers = 0;
  int64_t kv_dim = 0;  // per-token K (or V) width = num_kv_heads * head_dim

  static KvPoolConfig ForModel(const ModelConfig& m, int64_t num_blocks,
                               int64_t block_tokens = 16);
};

class KvBlockPool {
 public:
  explicit KvBlockPool(const KvPoolConfig& config);

  KvBlockPool(const KvBlockPool&) = delete;
  KvBlockPool& operator=(const KvBlockPool&) = delete;

  // Returns a block id, or -1 when the pool is exhausted. New blocks have refcount 1.
  int64_t Alloc();
  // Increments the refcount (prefix sharing uses this).
  void AddRef(int64_t block_id);
  // Decrements the refcount; the block returns to the free list at zero.
  void Release(int64_t block_id);

  // K rows of `block` at `layer`: a [block_tokens, kv_dim] row-major slab.
  float* Key(int64_t block_id, int64_t layer);
  const float* Key(int64_t block_id, int64_t layer) const;
  float* Value(int64_t block_id, int64_t layer);
  const float* Value(int64_t block_id, int64_t layer) const;

  int64_t num_free() const { return static_cast<int64_t>(free_list_.size()); }
  int64_t num_blocks() const { return config_.num_blocks; }
  int64_t block_tokens() const { return config_.block_tokens; }
  int64_t ref_count(int64_t block_id) const;
  const KvPoolConfig& config() const { return config_; }

  // Tokens representable by the whole pool; the §2.4 capacity argument in one number.
  int64_t capacity_tokens() const { return config_.num_blocks * config_.block_tokens; }

 private:
  int64_t BlockFloats() const;
  int64_t LayerFloats() const;

  KvPoolConfig config_;
  std::vector<float> storage_;
  std::vector<int32_t> refcounts_;
  std::vector<int64_t> free_list_;
};

// One pool block's rows of one layer, as PagedKvSequence::BlockRows returns them:
// tokens [first, first + rows) of the sequence, token first + r's K row at
// k + r * kv_dim and its V row at v + r * kv_dim.
struct KvBlockRows {
  int64_t first = 0;
  int64_t rows = 0;
  const float* k = nullptr;
  const float* v = nullptr;
};

// One sequence's view of the pool: a block table plus the token count. The sequence
// remembers its history length across eviction so restoration knows what to rebuild.
class PagedKvSequence {
 public:
  explicit PagedKvSequence(KvBlockPool* pool);
  ~PagedKvSequence();

  PagedKvSequence(const PagedKvSequence&) = delete;
  PagedKvSequence& operator=(const PagedKvSequence&) = delete;
  PagedKvSequence(PagedKvSequence&& other) noexcept;

  // Grows the block table to cover `num_tokens` tokens. Returns false (and leaves the
  // table unchanged) when the pool cannot supply enough blocks.
  bool EnsureCapacity(int64_t num_tokens);

  // Writes K/V rows for tokens [first_pos, first_pos + k.dim(0)) at `layer`.
  // k and v are [n, kv_dim]. Capacity must already cover the range.
  void WriteKv(int64_t layer, int64_t first_pos, const Tensor& k, const Tensor& v);

  // The writable {K row, V row} of `layer` at token `pos`, for writers that produce rows
  // in place (the transformer's fused K/V projection). Capacity must cover `pos`.
  std::pair<float*, float*> MutableKvRows(int64_t layer, int64_t pos);

  // Marks `n` more tokens as present (call after all layers wrote their K/V).
  void CommitTokens(int64_t n);

  // Releases every block. num_tokens() is preserved as the history length; has_kv()
  // turns false until the state is restored.
  void Evict();

  // Prepares an evicted sequence for a restoration that re-runs the forward pass from
  // token 0 (the recompute complement): clears the token count so tokens recommit as
  // their KV is rebuilt. Only valid on an evicted sequence.
  void ResetForRestore();

  bool has_kv() const { return has_kv_; }
  int64_t num_tokens() const { return num_tokens_; }
  int64_t num_blocks_held() const { return static_cast<int64_t>(block_table_.size()); }

  const float* KeyRow(int64_t layer, int64_t pos) const;
  const float* ValueRow(int64_t layer, int64_t pos) const;

  // The rows of `layer` in the block holding committed token `pos`: every committed
  // token of that block, so the last block's view is partial. For walkers that read a
  // block's rows in one go (attention); CHECKs the KV is present and pos is committed.
  KvBlockRows BlockRows(int64_t layer, int64_t pos) const;

  // Copies tokens [first, first+count) of `layer` into [count, kv_dim] tensors.
  void ReadKv(int64_t layer, int64_t first, int64_t count, Tensor* k_out, Tensor* v_out) const;

  KvBlockPool* pool() const { return pool_; }

 private:
  KvBlockPool* pool_;
  std::vector<int64_t> block_table_;
  int64_t num_tokens_ = 0;
  bool has_kv_ = true;
};

}  // namespace hcache

#endif  // HCACHE_SRC_MODEL_KV_CACHE_H_
