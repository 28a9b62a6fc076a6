#include "src/core/functional_engine.h"

#include <atomic>
#include <cstring>
#include <future>
#include <numeric>
#include <utility>

#include "src/common/logging.h"
#include "src/storage/codec.h"

namespace hcache {

FunctionalHCache::FunctionalHCache(Transformer* model, StorageBackend* store,
                                   ThreadPool* flush_pool, int64_t chunk_tokens,
                                   ChunkCodec codec)
    : model_(model),
      store_(store),
      flush_pool_(flush_pool),
      chunk_tokens_(chunk_tokens),
      codec_(codec) {
  CHECK(model != nullptr);
  CHECK(store != nullptr);
  // KV chunks carry K and V interleaved per token: rows are 2 * kv_dim wide.
  const int64_t kv_chunk_bytes =
      EncodedChunkBytes(codec_, chunk_tokens_, 2 * model_->config().kv_dim());
  CHECK_LE(kv_chunk_bytes, store_->chunk_bytes()) << "chunk store too small for KV chunks";
}

HiddenStateSink* FunctionalHCache::BeginCapture(int64_t context_id) {
  auto& writer = writers_[context_id];
  if (writer == nullptr) {
    writer = std::make_unique<HiddenStateWriter>(store_, flush_pool_, model_->config(),
                                                 context_id, chunk_tokens_, codec_);
  }
  return writer.get();
}

void FunctionalHCache::SealContext(int64_t context_id) {
  const auto it = writers_.find(context_id);
  CHECK(it != writers_.end()) << "unknown context " << context_id;
  it->second->Seal();
}

void FunctionalHCache::SaveKvLayer(int64_t context_id, const PagedKvSequence& seq,
                                   int64_t layer) {
  const ModelConfig& cfg = model_->config();
  const int64_t n = seq.num_tokens();
  const int64_t kv_dim = cfg.kv_dim();
  const int64_t row_floats = 2 * kv_dim;
  const int64_t row_stride = CodecRowBytes(codec_, row_floats);
  const int64_t num_chunks = (n + chunk_tokens_ - 1) / chunk_tokens_;
  std::vector<uint8_t> payload(
      static_cast<size_t>(EncodedChunkBytes(codec_, chunk_tokens_, row_floats)));
  std::vector<float> row_buf(static_cast<size_t>(row_floats));
  for (int64_t c = 0; c < num_chunks; ++c) {
    const int64_t first = c * chunk_tokens_;
    const int64_t count = std::min(chunk_tokens_, n - first);
    for (int64_t i = 0; i < count; ++i) {
      // Gather the token's K and V halves once, then encode straight into the chunk —
      // the interleaved [K | V] row is never staged as a second FP32 buffer.
      std::memcpy(row_buf.data(), seq.KeyRow(layer, first + i),
                  static_cast<size_t>(kv_dim) * sizeof(float));
      std::memcpy(row_buf.data() + kv_dim, seq.ValueRow(layer, first + i),
                  static_cast<size_t>(kv_dim) * sizeof(float));
      EncodeRowsInto(codec_, row_buf.data(), row_floats, 1, row_floats,
                     payload.data() + sizeof(ChunkHeader) + i * row_stride);
    }
    WriteChunkHeader(codec_, count, row_floats, payload.data());
    const ChunkKey key{context_id, kKvLayerBase + layer, c};
    CHECK(store_->WriteChunk(key, payload.data(),
                             static_cast<int64_t>(sizeof(ChunkHeader)) + count * row_stride));
  }
}

void FunctionalHCache::SaveKvLayers(int64_t context_id, const PagedKvSequence& seq,
                                    const std::vector<int64_t>& layers) {
  CHECK(seq.has_kv());
  for (int64_t layer : layers) {
    SaveKvLayer(context_id, seq, layer);
  }
}

bool FunctionalHCache::LoadKvLayer(int64_t context_id, int64_t layer, int64_t n, Tensor* k,
                                   Tensor* v) const {
  const ModelConfig& cfg = model_->config();
  const int64_t kv_dim = cfg.kv_dim();
  const int64_t row_floats = 2 * kv_dim;
  *k = Tensor({n, kv_dim});
  *v = Tensor({n, kv_dim});
  const int64_t num_chunks = (n + chunk_tokens_ - 1) / chunk_tokens_;
  const int64_t chunk_cap =
      EncodedChunkBytes(ChunkCodec::kFp32, chunk_tokens_, row_floats);
  std::vector<uint8_t> buf(static_cast<size_t>(num_chunks * chunk_cap));
  // One batched submission for the layer's chunks (see HiddenStateReader: the
  // backend overlaps the fetches instead of paying per-chunk round trips).
  std::vector<ChunkReadRequest> reqs(static_cast<size_t>(num_chunks));
  for (int64_t c = 0; c < num_chunks; ++c) {
    reqs[static_cast<size_t>(c)] =
        ChunkReadRequest{ChunkKey{context_id, kKvLayerBase + layer, c},
                         buf.data() + c * chunk_cap, chunk_cap, /*result=*/-1};
  }
  store_->ReadChunks(reqs);
  for (int64_t c = 0; c < num_chunks; ++c) {
    const uint8_t* chunk = buf.data() + c * chunk_cap;
    const int64_t got = reqs[static_cast<size_t>(c)].result;
    const int64_t first = c * chunk_tokens_;
    const int64_t count = std::min(chunk_tokens_, n - first);
    ChunkInfo info;
    if (got <= 0 || !InspectChunk(chunk, got, row_floats, &info) ||
        info.cols != row_floats || info.rows < count) {
      HCACHE_LOG_ERROR << "KV chunk "
                       << (got == kChunkCorrupt ? "corrupt" : "missing/short")
                       << ": ctx=" << context_id << " L=" << layer << " C=" << c;
      return false;
    }
    // Fused decode + de-interleave: each stored [K | V] row dequantizes directly into
    // the two destination tensors via column sub-ranges — no FP32 staging pass.
    DecodeChunkRange(chunk, got, info, 0, count, 0, kv_dim, k->row(first), kv_dim);
    DecodeChunkRange(chunk, got, info, 0, count, kv_dim, row_floats, v->row(first),
                     kv_dim);
  }
  return true;
}

bool FunctionalHCache::CanRestore(int64_t context_id, const PartitionScheme& scheme,
                                  int64_t n) const {
  const ModelConfig& cfg = model_->config();
  const HiddenStateReader reader(store_, cfg, chunk_tokens_);
  const int64_t first_hidden =
      scheme.complement == ComplementMethod::kRecompute ? scheme.layers_other : 0;
  for (int64_t layer = first_hidden; layer < first_hidden + scheme.layers_hidden; ++layer) {
    if (!reader.LayerComplete(context_id, layer, n, codec_)) {
      return false;
    }
  }
  if (scheme.complement == ComplementMethod::kKvOffload) {
    const int64_t kv_row_floats = 2 * cfg.kv_dim();
    const int64_t num_chunks = (n + chunk_tokens_ - 1) / chunk_tokens_;
    for (int64_t layer = scheme.layers_hidden; layer < cfg.num_layers; ++layer) {
      for (int64_t c = 0; c < num_chunks; ++c) {
        const int64_t first = c * chunk_tokens_;
        const int64_t want = std::min(chunk_tokens_, n - first);
        if (!ChunkSizeCoversRows(
                store_->ChunkSize(ChunkKey{context_id, kKvLayerBase + layer, c}), want,
                chunk_tokens_, kv_row_floats, codec_)) {
          return false;
        }
      }
    }
  }
  return true;
}

bool FunctionalHCache::RestoreContext(int64_t context_id, const PartitionScheme& scheme,
                                      const std::vector<int32_t>& history_tokens,
                                      PagedKvSequence* seq) {
  const ModelConfig& cfg = model_->config();
  const int64_t nl = cfg.num_layers;
  CHECK_EQ(scheme.layers_hidden + scheme.layers_other, nl);
  CHECK(!seq->has_kv()) << "restore target must be evicted";
  const int64_t n = seq->num_tokens();
  CHECK_GT(n, 0);

  // Fail before mutating the sequence if the pool cannot hold the restored state.
  const int64_t bt = seq->pool()->block_tokens();
  if ((n + bt - 1) / bt > seq->pool()->num_free()) {
    return false;
  }

  int64_t first_hidden = 0;  // hidden-layer range [first_hidden, first_hidden + L_H)
  seq->ResetForRestore();
  CHECK(seq->EnsureCapacity(n));
  if (scheme.complement == ComplementMethod::kRecompute && scheme.layers_other > 0) {
    CHECK_EQ(static_cast<int64_t>(history_tokens.size()), n)
        << "recompute complement needs the original tokens";
    // Rebuild the first L_O layers (and their KV) from raw tokens.
    model_->ForwardPartial(history_tokens, seq, scheme.layers_other);
    first_hidden = scheme.layers_other;
  } else {
    seq->CommitTokens(n);
  }

  std::vector<int32_t> positions(static_cast<size_t>(n));
  std::iota(positions.begin(), positions.end(), 0);

  // Restoration is a two-stream pipeline, mirroring the paper's dedicated transmission
  // and computation streams: while the caller projects layer i's hidden states into
  // K/V (compute stream), the flush pool is already reading layer i+1's chunks from
  // the backend (transmission stream). Each step consumes data loaded one step ahead,
  // so file/tiered I/O overlaps the projection GEMMs instead of serializing with them.
  // KV-offloaded layers join the same pipeline: their chunk reads prefetch behind the
  // last projections. Without a flush pool the plan degrades to the serial loads the
  // engine always performed — the bytes and math are identical either way.
  struct LayerState {
    int64_t layer = 0;
    bool from_hidden = false;
    Tensor hidden;  // from_hidden: the layer's saved input activations
    Tensor k, v;    // !from_hidden: the layer's offloaded KV rows
  };
  std::vector<LayerState> plan;
  for (int64_t layer = first_hidden; layer < first_hidden + scheme.layers_hidden; ++layer) {
    plan.push_back({layer, /*from_hidden=*/true, {}, {}, {}});
  }
  if (scheme.complement == ComplementMethod::kKvOffload) {
    for (int64_t layer = scheme.layers_hidden; layer < nl; ++layer) {
      plan.push_back({layer, /*from_hidden=*/false, {}, {}, {}});
    }
  }

  // The batched reads are the only check: a missing, short or corrupt chunk (device
  // loss, partial save, CRC mismatch) is found when its layer loads. Loads report
  // failure through `load_failed` (they may run on a pool thread, where throwing or
  // CHECKing would take the process down) and the pipeline unwinds to "still
  // evicted" below.
  std::atomic<bool> load_failed{false};
  auto load = [&](LayerState& entry) {
    if (entry.from_hidden) {
      Tensor hidden({n, cfg.hidden_dim});
      if (!ReadHiddenInto(context_id, entry.layer, n, hidden.data())) {
        load_failed.store(true, std::memory_order_release);
        return;
      }
      entry.hidden = std::move(hidden);
    } else {
      if (!LoadKvLayer(context_id, entry.layer, n, &entry.k, &entry.v)) {
        load_failed.store(true, std::memory_order_release);
      }
    }
  };
  auto submit_load = [&](LayerState& entry) {
    auto done = std::make_shared<std::promise<void>>();
    std::future<void> fut = done->get_future();
    flush_pool_->Submit([&entry, &load, done] {
      load(entry);
      done->set_value();
    });
    return fut;
  };

  std::future<void> next_loaded;
  if (flush_pool_ != nullptr && !plan.empty()) {
    next_loaded = submit_load(plan.front());
  }
  for (size_t idx = 0; idx < plan.size(); ++idx) {
    LayerState& entry = plan[idx];
    if (next_loaded.valid()) {
      next_loaded.get();  // wait for this layer's read...
      if (idx + 1 < plan.size() && !load_failed.load(std::memory_order_acquire)) {
        next_loaded = submit_load(plan[idx + 1]);  // ...and start the next one now
      } else {
        next_loaded = std::future<void>();
      }
    } else {
      load(entry);
    }
    if (load_failed.load(std::memory_order_acquire)) {
      break;
    }
    if (entry.from_hidden) {
      Tensor k, v;
      model_->RestoreLayerKv(entry.layer, entry.hidden, positions.data(), &k, &v);
      seq->WriteKv(entry.layer, 0, k, v);
      entry.hidden = Tensor();  // release the staged activations early
    } else {
      seq->WriteKv(entry.layer, 0, entry.k, entry.v);
    }
  }
  if (load_failed.load(std::memory_order_acquire)) {
    // The failure may have been set by the layer we just consumed while its
    // *successor's* prefetch was already submitted — wait that one out before
    // unwinding so no pool task still references this frame.
    if (next_loaded.valid()) {
      next_loaded.get();
    }
    // Leave the sequence exactly as a failed-precondition return does: evicted
    // (partially written KV released) with its history length intact, so the caller
    // can recompute from tokens.
    seq->Evict();
    HCACHE_LOG_ERROR << "restore aborted, sequence left evicted: ctx=" << context_id;
    return false;
  }
  return true;
}

void FunctionalHCache::DropContext(int64_t context_id) {
  writers_.erase(context_id);
  store_->DeleteContext(context_id);
}

bool FunctionalHCache::ReadHiddenInto(int64_t context_id, int64_t layer, int64_t n,
                                      float* dst) const {
  return HiddenStateReader(store_, model_->config(), chunk_tokens_)
      .ReadLayerInto(context_id, layer, n, dst);
}

Tensor FunctionalHCache::ReadHidden(int64_t context_id, int64_t layer, int64_t n) const {
  return HiddenStateReader(store_, model_->config(), chunk_tokens_)
      .ReadLayer(context_id, layer, n);
}

}  // namespace hcache
