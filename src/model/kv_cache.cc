#include "src/model/kv_cache.h"

#include <algorithm>
#include <cstring>

#include "src/common/logging.h"

namespace hcache {

KvPoolConfig KvPoolConfig::ForModel(const ModelConfig& m, int64_t num_blocks,
                                    int64_t block_tokens) {
  KvPoolConfig c;
  c.num_blocks = num_blocks;
  c.block_tokens = block_tokens;
  c.num_layers = m.num_layers;
  c.kv_dim = m.kv_dim();
  return c;
}

KvBlockPool::KvBlockPool(const KvPoolConfig& config) : config_(config) {
  CHECK_GT(config_.num_blocks, 0);
  CHECK_GT(config_.block_tokens, 0);
  CHECK_GT(config_.num_layers, 0);
  CHECK_GT(config_.kv_dim, 0);
  storage_.assign(static_cast<size_t>(config_.num_blocks * BlockFloats()), 0.0f);
  refcounts_.assign(static_cast<size_t>(config_.num_blocks), 0);
  free_list_.reserve(static_cast<size_t>(config_.num_blocks));
  // Pop order is LIFO from the back; push ids descending so block 0 allocates first,
  // which makes tests readable.
  for (int64_t i = config_.num_blocks - 1; i >= 0; --i) {
    free_list_.push_back(i);
  }
}

int64_t KvBlockPool::BlockFloats() const {
  return config_.num_layers * 2 * config_.block_tokens * config_.kv_dim;
}

int64_t KvBlockPool::LayerFloats() const { return 2 * config_.block_tokens * config_.kv_dim; }

int64_t KvBlockPool::Alloc() {
  if (free_list_.empty()) {
    return -1;
  }
  const int64_t id = free_list_.back();
  free_list_.pop_back();
  refcounts_[static_cast<size_t>(id)] = 1;
  return id;
}

void KvBlockPool::AddRef(int64_t block_id) {
  CHECK_GE(block_id, 0);
  CHECK_LT(block_id, config_.num_blocks);
  CHECK_GT(refcounts_[static_cast<size_t>(block_id)], 0);
  ++refcounts_[static_cast<size_t>(block_id)];
}

void KvBlockPool::Release(int64_t block_id) {
  CHECK_GE(block_id, 0);
  CHECK_LT(block_id, config_.num_blocks);
  int32_t& rc = refcounts_[static_cast<size_t>(block_id)];
  CHECK_GT(rc, 0);
  if (--rc == 0) {
    free_list_.push_back(block_id);
  }
}

float* KvBlockPool::Key(int64_t block_id, int64_t layer) {
  DCHECK(block_id >= 0 && block_id < config_.num_blocks);
  DCHECK(layer >= 0 && layer < config_.num_layers);
  return storage_.data() + block_id * BlockFloats() + layer * LayerFloats();
}

const float* KvBlockPool::Key(int64_t block_id, int64_t layer) const {
  return const_cast<KvBlockPool*>(this)->Key(block_id, layer);
}

float* KvBlockPool::Value(int64_t block_id, int64_t layer) {
  return Key(block_id, layer) + config_.block_tokens * config_.kv_dim;
}

const float* KvBlockPool::Value(int64_t block_id, int64_t layer) const {
  return const_cast<KvBlockPool*>(this)->Value(block_id, layer);
}

int64_t KvBlockPool::ref_count(int64_t block_id) const {
  CHECK_GE(block_id, 0);
  CHECK_LT(block_id, config_.num_blocks);
  return refcounts_[static_cast<size_t>(block_id)];
}

PagedKvSequence::PagedKvSequence(KvBlockPool* pool) : pool_(pool) { CHECK(pool != nullptr); }

PagedKvSequence::~PagedKvSequence() {
  for (int64_t b : block_table_) {
    pool_->Release(b);
  }
}

PagedKvSequence::PagedKvSequence(PagedKvSequence&& other) noexcept
    : pool_(other.pool_),
      block_table_(std::move(other.block_table_)),
      num_tokens_(other.num_tokens_),
      has_kv_(other.has_kv_) {
  other.block_table_.clear();
  other.num_tokens_ = 0;
}

bool PagedKvSequence::EnsureCapacity(int64_t num_tokens) {
  const int64_t bt = pool_->block_tokens();
  const int64_t needed = (num_tokens + bt - 1) / bt;
  const int64_t have = num_blocks_held();
  if (needed <= have) {
    has_kv_ = true;
    return true;
  }
  if (needed - have > pool_->num_free()) {
    return false;
  }
  for (int64_t i = have; i < needed; ++i) {
    const int64_t b = pool_->Alloc();
    CHECK_GE(b, 0);
    block_table_.push_back(b);
  }
  has_kv_ = true;
  return true;
}

void PagedKvSequence::WriteKv(int64_t layer, int64_t first_pos, const Tensor& k,
                              const Tensor& v) {
  CHECK(has_kv_);
  CHECK_EQ(k.rank(), 2);
  CHECK(k.shape() == v.shape());
  const int64_t n = k.dim(0);
  const int64_t kv_dim = pool_->config().kv_dim;
  CHECK_EQ(k.dim(1), kv_dim);
  for (int64_t i = 0; i < n; ++i) {
    const auto [k_row, v_row] = MutableKvRows(layer, first_pos + i);
    std::memcpy(k_row, k.row(i), static_cast<size_t>(kv_dim) * sizeof(float));
    std::memcpy(v_row, v.row(i), static_cast<size_t>(kv_dim) * sizeof(float));
  }
}

std::pair<float*, float*> PagedKvSequence::MutableKvRows(int64_t layer, int64_t pos) {
  CHECK(has_kv_);
  const int64_t bt = pool_->block_tokens();
  CHECK(pos >= 0 && pos / bt < num_blocks_held()) << "no capacity for token " << pos;
  const int64_t block = block_table_[static_cast<size_t>(pos / bt)];
  const int64_t offset = (pos % bt) * pool_->config().kv_dim;
  return {pool_->Key(block, layer) + offset, pool_->Value(block, layer) + offset};
}

void PagedKvSequence::CommitTokens(int64_t n) {
  CHECK_GE(n, 0);
  num_tokens_ += n;
  const int64_t bt = pool_->block_tokens();
  CHECK_LE((num_tokens_ + bt - 1) / bt, num_blocks_held());
}

void PagedKvSequence::ResetForRestore() {
  CHECK(!has_kv_) << "ResetForRestore is only for evicted sequences";
  CHECK(block_table_.empty());
  num_tokens_ = 0;
  has_kv_ = true;
}

void PagedKvSequence::Evict() {
  for (int64_t b : block_table_) {
    pool_->Release(b);
  }
  block_table_.clear();
  has_kv_ = false;
}

const float* PagedKvSequence::KeyRow(int64_t layer, int64_t pos) const {
  DCHECK(has_kv_);
  DCHECK(pos >= 0 && pos < num_tokens_);
  const int64_t bt = pool_->block_tokens();
  const int64_t block = block_table_[static_cast<size_t>(pos / bt)];
  return pool_->Key(block, layer) + (pos % bt) * pool_->config().kv_dim;
}

const float* PagedKvSequence::ValueRow(int64_t layer, int64_t pos) const {
  DCHECK(has_kv_);
  DCHECK(pos >= 0 && pos < num_tokens_);
  const int64_t bt = pool_->block_tokens();
  const int64_t block = block_table_[static_cast<size_t>(pos / bt)];
  return pool_->Value(block, layer) + (pos % bt) * pool_->config().kv_dim;
}

KvBlockRows PagedKvSequence::BlockRows(int64_t layer, int64_t pos) const {
  CHECK(has_kv_);
  CHECK(layer >= 0 && layer < pool_->config().num_layers) << "no layer " << layer;
  CHECK(pos >= 0 && pos < num_tokens_) << "token " << pos << " is not committed";
  const int64_t bt = pool_->block_tokens();
  const int64_t block = block_table_[static_cast<size_t>(pos / bt)];
  KvBlockRows rows;
  rows.first = pos - pos % bt;
  rows.rows = std::min(bt, num_tokens_ - rows.first);
  rows.k = pool_->Key(block, layer);
  rows.v = pool_->Value(block, layer);
  return rows;
}

void PagedKvSequence::ReadKv(int64_t layer, int64_t first, int64_t count, Tensor* k_out,
                             Tensor* v_out) const {
  CHECK(has_kv_);
  CHECK_GE(first, 0);
  CHECK_LE(first + count, num_tokens_);
  const int64_t kv_dim = pool_->config().kv_dim;
  *k_out = Tensor({count, kv_dim});
  *v_out = Tensor({count, kv_dim});
  for (int64_t i = 0; i < count; ++i) {
    std::memcpy(k_out->row(i), KeyRow(layer, first + i),
                static_cast<size_t>(kv_dim) * sizeof(float));
    std::memcpy(v_out->row(i), ValueRow(layer, first + i),
                static_cast<size_t>(kv_dim) * sizeof(float));
  }
}

}  // namespace hcache
