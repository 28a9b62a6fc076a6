#include "src/core/functional_engine.h"

#include <atomic>
#include <cstring>
#include <future>
#include <numeric>
#include <utility>

#include "src/common/logging.h"

namespace hcache {
namespace {

const ModelConfig& ConfigOf(const Transformer* model) {
  CHECK(model != nullptr);
  return model->config();
}

}  // namespace

FunctionalHCache::FunctionalHCache(Transformer* model, StorageBackend* store,
                                   ThreadPool* flush_pool, int64_t chunk_tokens,
                                   ChunkCodec codec)
    : model_(model),
      store_(store),
      flush_pool_(flush_pool),
      chunk_tokens_(chunk_tokens),
      codec_(codec),
      hidden_reader_(store, HiddenChunkGeometry(ConfigOf(model)), chunk_tokens),
      kv_reader_(store, KvChunkGeometry(ConfigOf(model)), chunk_tokens) {}

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

void FunctionalHCache::SaveKvLayers(int64_t context_id, const PagedKvSequence& seq,
                                    const std::vector<int64_t>& layers) {
  CHECK(seq.has_kv());
  // No flush pool: the chunks must be stored before this returns anyway, and a pooled
  // flush would only keep more payload buffers in flight.
  auto& writer = kv_writers_[context_id];
  if (writer == nullptr) {
    writer = std::make_unique<HiddenStateWriter>(store_, /*flush_pool=*/nullptr,
                                                 KvChunkGeometry(model_->config()),
                                                 context_id, chunk_tokens_, codec_);
  }
  const int64_t kv_dim = model_->config().kv_dim();
  const size_t half_bytes = static_cast<size_t>(kv_dim) * sizeof(float);
  Tensor row({1, 2 * kv_dim});  // one token's [K | V]
  for (const int64_t layer : layers) {
    for (auto t = static_cast<int32_t>(writer->tokens_saved(layer)); t < seq.num_tokens();
         ++t) {
      std::memcpy(row.row(0), seq.KeyRow(layer, t), half_bytes);
      std::memcpy(row.row(0) + kv_dim, seq.ValueRow(layer, t), half_bytes);
      writer->OnLayerInput(layer, row, &t, 1);
    }
  }
  writer->Seal();
}

bool FunctionalHCache::CanRestore(int64_t context_id, const PartitionScheme& scheme,
                                  int64_t n) const {
  for (const RestoreStep& step : PlanRestore(scheme.Sources(), model_->config().num_layers)) {
    const HiddenStateReader* reader = step.source == LayerSource::kHidden ? &hidden_reader_
                                      : step.source == LayerSource::kKv   ? &kv_reader_
                                                                          : nullptr;
    if (reader != nullptr && !reader->LayerComplete(context_id, step.layer, n, codec_)) {
      return false;
    }
  }
  return true;
}

bool FunctionalHCache::RestoreContext(int64_t context_id, const PartitionScheme& scheme,
                                      const std::vector<int32_t>& history_tokens,
                                      PagedKvSequence* seq) {
  const ModelConfig& cfg = model_->config();
  CHECK(!seq->has_kv()) << "restore target must be evicted";
  const int64_t n = seq->num_tokens();
  CHECK_GT(n, 0);

  // Restoration runs the plan's steps as a two-stream pipeline, mirroring the paper's
  // dedicated transmission and computation streams. The recompute layers [0, L_O)
  // rebuild from raw tokens in one ForwardPartial; every later step loads stored
  // chunks — hidden layers are projected into K/V, KV-offloaded layers are copied in.
  // While the caller computes one step, the flush pool is already reading the next
  // step's chunks (transmission stream). The first read is submitted before
  // ForwardPartial, as the DES starts the recompute and the first transfer together.
  // Without a flush pool the steps load serially — the bytes and math are identical
  // either way.
  struct LayerState {
    RestoreStep step;
    Tensor hidden;  // kHidden: the layer's saved input activations
    Tensor k, v;    // kKv: the layer's offloaded KV rows
  };
  const LayerSources sources = scheme.Sources();
  std::vector<LayerState> plan;
  for (const RestoreStep& step : PlanRestore(sources, cfg.num_layers)) {
    if (step.source != LayerSource::kRecompute) {
      plan.push_back({step, {}, {}, {}});
    }
  }
  if (sources.recompute > 0) {
    CHECK_EQ(static_cast<int64_t>(history_tokens.size()), n)
        << "recompute complement needs the original tokens";
  }

  // Fail before mutating the sequence if the pool cannot hold the restored state.
  const int64_t bt = seq->pool()->block_tokens();
  if ((n + bt - 1) / bt > seq->pool()->num_free()) {
    return false;
  }

  std::vector<int32_t> positions(static_cast<size_t>(n));
  std::iota(positions.begin(), positions.end(), 0);

  // The batched reads are the only check: a missing, short or corrupt chunk (device
  // loss, partial save, CRC mismatch) is found when its layer loads. Loads report
  // failure through `load_failed` (they may run on a pool thread, where throwing or
  // CHECKing would take the process down) and the pipeline unwinds to "still
  // evicted" below.
  std::atomic<bool> load_failed{false};
  auto load = [&](LayerState& entry) {
    const int64_t layer = entry.step.layer;
    bool ok = false;
    if (entry.step.source == LayerSource::kHidden) {
      entry.hidden = Tensor({n, cfg.hidden_dim});
      ok = hidden_reader_.ReadLayerInto(context_id, layer, n, entry.hidden.data());
    } else {
      entry.k = Tensor({n, cfg.kv_dim()});
      entry.v = Tensor({n, cfg.kv_dim()});
      ok = kv_reader_.ReadLayerInto(context_id, layer, n, {entry.k.data(), entry.v.data()});
    }
    if (!ok) {
      load_failed.store(true, std::memory_order_release);
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

  seq->ResetForRestore();
  CHECK(seq->EnsureCapacity(n));
  std::future<void> next_loaded;
  if (flush_pool_ != nullptr && !plan.empty()) {
    next_loaded = submit_load(plan.front());
  }
  if (sources.recompute > 0) {
    model_->ForwardPartial(history_tokens, seq, sources.recompute);
  } else {
    seq->CommitTokens(n);
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
    const int64_t layer = entry.step.layer;
    if (entry.step.source == LayerSource::kHidden) {
      model_->RestoreLayerKv(layer, entry.hidden, positions.data(), seq);
      entry.hidden = Tensor();  // release the staged activations early
    } else {
      seq->WriteKv(layer, 0, entry.k, entry.v);
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
  kv_writers_.erase(context_id);
  store_->DeleteContext(context_id);
}

bool FunctionalHCache::ReadHiddenInto(int64_t context_id, int64_t layer, int64_t n,
                                      float* dst) const {
  return hidden_reader_.ReadLayerInto(context_id, layer, n, dst);
}

Tensor FunctionalHCache::ReadHidden(int64_t context_id, int64_t layer, int64_t n) const {
  return hidden_reader_.ReadLayer(context_id, layer, n);
}

}  // namespace hcache
