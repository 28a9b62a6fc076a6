#include "src/storage/hidden_saver.h"

#include <algorithm>
#include <cstring>
#include <memory>
#include <utility>

namespace hcache {

HiddenStateWriter::HiddenStateWriter(StorageBackend* store, ThreadPool* flush_pool,
                                     const ChunkGeometry& geometry, int64_t context_id,
                                     int64_t chunk_tokens, ChunkCodec codec)
    : store_(store),
      flush_pool_(flush_pool),
      geometry_(geometry),
      context_id_(context_id),
      chunk_tokens_(chunk_tokens),
      codec_(codec),
      row_stride_(CodecRowBytes(codec, geometry.cols)),
      staging_bytes_(EncodedChunkBytes(codec, chunk_tokens, geometry.cols)),
      layers_(static_cast<size_t>(geometry.num_layers)) {
  CHECK(store != nullptr);
  CHECK_GT(chunk_tokens_, 0);
  CHECK_LE(staging_bytes_, store_->chunk_bytes())
      << "chunk store sized too small for " << geometry_.cols << "-element rows under codec "
      << ChunkCodecName(codec_);
  payload_pool_.reserve(16);
}

HiddenStateWriter::HiddenStateWriter(StorageBackend* store, ThreadPool* flush_pool,
                                     const ModelConfig& cfg, int64_t context_id,
                                     int64_t chunk_tokens, ChunkCodec codec)
    : HiddenStateWriter(store, flush_pool, HiddenChunkGeometry(cfg), context_id, chunk_tokens,
                        codec) {}

HiddenStateWriter::~HiddenStateWriter() { Seal(); }

std::shared_ptr<std::vector<uint8_t>> HiddenStateWriter::AcquirePayload() {
  {
    std::lock_guard<std::mutex> lock(payload_mu_);
    if (!payload_pool_.empty()) {
      auto buf = std::move(payload_pool_.back());
      payload_pool_.pop_back();
      return buf;
    }
    ++payload_allocations_;
  }
  return std::make_shared<std::vector<uint8_t>>(static_cast<size_t>(staging_bytes_));
}

void HiddenStateWriter::ReleasePayload(std::shared_ptr<std::vector<uint8_t>> buf) {
  std::lock_guard<std::mutex> lock(payload_mu_);
  payload_pool_.push_back(std::move(buf));
}

int64_t HiddenStateWriter::payload_buffer_allocations() const {
  std::lock_guard<std::mutex> lock(payload_mu_);
  return payload_allocations_;
}

int64_t HiddenStateWriter::encoded_bytes_written() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  return encoded_bytes_written_;
}

int64_t HiddenStateWriter::logical_bytes_written() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  return logical_bytes_written_;
}

void HiddenStateWriter::OnLayerInput(int64_t layer, const Tensor& hidden,
                                     const int32_t* positions, int64_t n) {
  CHECK_GE(layer, 0);
  CHECK_LT(layer, geometry_.num_layers);
  CHECK_EQ(hidden.dim(1), geometry_.cols);
  LayerBuffer& lb = layers_[static_cast<size_t>(layer)];
  if (lb.staging.empty()) {
    lb.staging.resize(static_cast<size_t>(staging_bytes_));
  }
  const int64_t cols = geometry_.cols;
  int64_t i = 0;
  while (i < n) {
    const int64_t take = std::min(chunk_tokens_ - lb.fill_tokens, n - i);
    for (int64_t j = 0; j < take; ++j) {
      CHECK_EQ(static_cast<int64_t>(positions[i + j]), lb.tokens_seen + j)
          << "hidden states must arrive append-only";
    }
    // Stage 1: snapshot the rows into host staging, encoding in the same pass — the
    // chunk leaves the compute thread already in its on-storage format.
    EncodeRowsInto(codec_, hidden.row(i), cols, take, cols,
                   lb.staging.data() + sizeof(ChunkHeader) + lb.fill_tokens * row_stride_);
    lb.fill_tokens += take;
    lb.tokens_seen += take;
    lb.dirty = true;
    i += take;
    if (lb.fill_tokens == chunk_tokens_) {
      FlushChunk(layer, lb);
    }
  }
}

void HiddenStateWriter::FlushChunk(int64_t layer, LayerBuffer& lb) {
  // Stage 2: hand the encoded chunk to the flush pool (or write inline without one).
  const int64_t rows = lb.fill_tokens;
  const int64_t bytes = static_cast<int64_t>(sizeof(ChunkHeader)) + rows * row_stride_;
  WriteChunkHeader(codec_, rows, geometry_.cols, lb.staging.data());
  auto payload = AcquirePayload();
  const ChunkKey key{context_id_, geometry_.layer_key_base + layer, lb.open_chunk};
  if (rows == chunk_tokens_) {
    // Full chunk: swap the sealed bytes out and continue staging into the recycled
    // buffer. A partial flush (Seal) copies instead and keeps the buffer + chunk index
    // so later appends rewrite the same chunk when it fills.
    lb.staging.swap(*payload);
    ++lb.open_chunk;
    lb.fill_tokens = 0;
  } else {
    std::memcpy(payload->data(), lb.staging.data(), static_cast<size_t>(bytes));
  }
  lb.dirty = false;
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    encoded_bytes_written_ += bytes;
    logical_bytes_written_ += rows * geometry_.cols * static_cast<int64_t>(sizeof(float));
  }
  StorageBackend* store = store_;
  auto task = [this, store, key, bytes, payload]() mutable {
    // A failed flush must not take down the process (it may run on a background
    // thread); the chunk simply stays absent and the restore's read of it fails
    // (FunctionalHCache::RestoreContext then leaves the sequence evicted).
    if (!store->WriteChunk(key, payload->data(), bytes)) {
      HCACHE_LOG_ERROR << "chunk flush failed: ctx=" << key.context_id
                       << " layer=" << key.layer << " chunk=" << key.chunk_index;
    }
    // Recycle regardless of outcome; Seal() drains the pool before `this` dies.
    ReleasePayload(std::move(payload));
  };
  if (flush_pool_ != nullptr) {
    flush_pool_->Submit(std::move(task));
  } else {
    task();
  }
}

void HiddenStateWriter::Seal() {
  for (int64_t layer = 0; layer < geometry_.num_layers; ++layer) {
    LayerBuffer& lb = layers_[static_cast<size_t>(layer)];
    if (lb.dirty && lb.fill_tokens > 0) {
      FlushChunk(layer, lb);
    }
  }
  if (flush_pool_ != nullptr) {
    flush_pool_->Drain();
  }
}

int64_t HiddenStateWriter::tokens_saved(int64_t layer) const {
  return layers_.at(static_cast<size_t>(layer)).tokens_seen;
}

HiddenStateReader::HiddenStateReader(const StorageBackend* store, const ChunkGeometry& geometry,
                                     int64_t chunk_tokens, bool verify)
    : store_(store), geometry_(geometry), chunk_tokens_(chunk_tokens), verify_(verify) {
  CHECK(store != nullptr);
}

HiddenStateReader::HiddenStateReader(const StorageBackend* store, const ModelConfig& cfg,
                                     int64_t chunk_tokens, bool verify)
    : HiddenStateReader(store, HiddenChunkGeometry(cfg), chunk_tokens, verify) {}

template <typename Decode>
bool HiddenStateReader::ReadChunksThen(int64_t context_id, int64_t layer, int64_t n,
                                       const Decode& decode) const {
  CHECK_GT(n, 0);
  const int64_t cols = geometry_.cols;
  const int64_t key_layer = geometry_.layer_key_base + layer;
  const int64_t num_chunks = (n + chunk_tokens_ - 1) / chunk_tokens_;
  // FP32 is the widest encoding, so its chunk size bounds every stored form.
  const int64_t chunk_cap = EncodedChunkBytes(ChunkCodec::kFp32, chunk_tokens_, cols);
  // The reader's scratch, reused across calls whichever thread makes them. A fresh
  // multi-MB allocation here would dominate the layer read: large mallocs are
  // mmap-backed, so every call would repay soft page faults across the whole staging
  // buffer. It grows once per high-water mark and is never zero-filled, so the tail of
  // each chunk's slot that a narrower codec leaves unread never becomes resident.
  std::lock_guard<std::mutex> lock(scratch_mu_);
  if (scratch_bytes_ < num_chunks * chunk_cap) {
    scratch_bytes_ = num_chunks * chunk_cap;
    scratch_.reset(new uint8_t[static_cast<size_t>(scratch_bytes_)]);
  }
  uint8_t* const buf = scratch_.get();
  // One batched submission for the whole layer: the backend overlaps the chunk
  // fetches (per-device pread fan-out, or one cold round trip on a tiered store)
  // instead of paying num_chunks serial round trips.
  std::vector<ChunkReadRequest> reqs(static_cast<size_t>(num_chunks));
  for (int64_t c = 0; c < num_chunks; ++c) {
    reqs[static_cast<size_t>(c)] =
        ChunkReadRequest{ChunkKey{context_id, key_layer, c}, buf + c * chunk_cap,
                         chunk_cap, /*result=*/-1};
  }
  if (verify_) {
    store_->ReadChunks(reqs);
  } else {
    store_->ReadChunksUnverified(reqs);
  }
  for (int64_t c = 0; c < num_chunks; ++c) {
    const uint8_t* chunk = buf + c * chunk_cap;
    const int64_t got = reqs[static_cast<size_t>(c)].result;
    // Any failure (absent, detected-corrupt, bad geometry) fails the whole layer —
    // a state tensor with a hole in it is worthless — but must not take the
    // process down: the caller recomputes from tokens instead.
    if (got <= 0) {
      HCACHE_LOG_ERROR << "chunk " << (got == kChunkCorrupt ? "corrupt" : "missing")
                       << ": ctx=" << context_id << " L=" << key_layer << " C=" << c;
      return false;
    }
    ChunkInfo info;
    const int64_t first_tok = c * chunk_tokens_;
    const int64_t want_tokens = std::min(chunk_tokens_, n - first_tok);
    if (!InspectChunk(chunk, got, cols, &info) || info.rows < want_tokens) {
      HCACHE_LOG_ERROR << "chunk unparsable or short: ctx=" << context_id
                       << " L=" << key_layer << " C=" << c << " bytes=" << got;
      return false;
    }
    decode(chunk, got, info, first_tok, want_tokens);
  }
  return true;
}

bool HiddenStateReader::ReadLayerInto(int64_t context_id, int64_t layer, int64_t n,
                                      float* dst) const {
  // Fused decode: dequantize straight into the destination rows.
  const int64_t cols = geometry_.cols;
  return ReadChunksThen(context_id, layer, n,
                        [&](const uint8_t* chunk, int64_t bytes, const ChunkInfo& info,
                            int64_t first, int64_t rows) {
                          DecodeChunkRange(chunk, bytes, info, 0, rows, 0, cols,
                                           dst + first * cols, cols);
                        });
}

bool HiddenStateReader::ReadLayerInto(int64_t context_id, int64_t layer, int64_t n,
                                      PagedKvSequence* seq) const {
  const int64_t kv_dim = seq->pool()->config().kv_dim;
  CHECK_EQ(geometry_.cols, 2 * kv_dim) << "not a KV geometry";
  const int64_t bt = seq->pool()->block_tokens();
  return ReadChunksThen(
      context_id, layer, n,
      [&](const uint8_t* chunk, int64_t bytes, const ChunkInfo& info, int64_t first,
          int64_t rows) {
        // A chunk's rows split at pool-block boundaries: each run's K and V halves
        // land in one block's K and V slabs.
        for (int64_t r = 0; r < rows;) {
          const int64_t run = std::min(rows - r, bt - (first + r) % bt);
          const auto [k, v] = seq->MutableKvRows(layer, first + r);
          DecodeChunkRange(chunk, bytes, info, r, r + run, 0, kv_dim, k, kv_dim);
          DecodeChunkRange(chunk, bytes, info, r, r + run, kv_dim, 2 * kv_dim, v, kv_dim);
          r += run;
        }
      });
}

Tensor HiddenStateReader::ReadLayer(int64_t context_id, int64_t layer, int64_t n) const {
  Tensor out({n, geometry_.cols});
  CHECK(ReadLayerInto(context_id, layer, n, out.data()))
      << "chunked read failed: ctx=" << context_id << " L=" << layer;
  return out;
}

bool HiddenStateReader::LayerComplete(int64_t context_id, int64_t layer, int64_t n,
                                      ChunkCodec expected) const {
  const int64_t num_chunks = (n + chunk_tokens_ - 1) / chunk_tokens_;
  for (int64_t c = 0; c < num_chunks; ++c) {
    const int64_t first_tok = c * chunk_tokens_;
    const int64_t want_tokens = std::min(chunk_tokens_, n - first_tok);
    const int64_t size =
        store_->ChunkSize(ChunkKey{context_id, geometry_.layer_key_base + layer, c});
    if (!ChunkSizeCoversRows(size, want_tokens, chunk_tokens_, geometry_.cols, expected)) {
      return false;
    }
  }
  return true;
}

bool HiddenStateReader::ContextComplete(int64_t context_id, int64_t n,
                                        ChunkCodec expected) const {
  for (int64_t layer = 0; layer < geometry_.num_layers; ++layer) {
    if (!LayerComplete(context_id, layer, n, expected)) {
      return false;
    }
  }
  return true;
}

}  // namespace hcache
