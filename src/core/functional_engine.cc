#include "src/core/functional_engine.h"

#include <algorithm>
#include <condition_variable>
#include <cstring>
#include <mutex>
#include <numeric>
#include <utility>

#include "src/common/logging.h"

namespace hcache {
namespace {

// FP32 hidden rows the transmission stream may stage ahead of the projections (at least
// one layer). Tuned on hcache-serve: all of chat's hidden layers, rag's peak RSS kept.
constexpr int64_t kRunAheadBytes = int64_t{1536} << 10;

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

  // The plan runs on two streams, like the paper's transmission and computation
  // streams. The caller (compute) rebuilds the recompute layers [0, L_O) from tokens in
  // one ForwardPartial, then projects each hidden layer's staged rows into its pages.
  // One flush-pool task (transmission) loads every stored step in plan order, starting
  // before ForwardPartial: hidden layers decode into staging slots, whose count bounds
  // how far reads run ahead of the projections; KV-offloaded layers decode straight
  // into their pool pages. Without a flush pool the caller loads each step just before
  // using it; the bytes and math are identical either way.
  const LayerSources sources = scheme.Sources();
  std::vector<RestoreStep> steps = PlanRestore(sources, cfg.num_layers);
  steps.erase(steps.begin(), steps.begin() + sources.recompute);  // stored steps only
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

  // Hidden step i (they come first) stages its rows, read and decoded to FP32, in slot
  // i % slots of staging_, which is reused across restores and never zero-filled.
  const auto hidden = static_cast<size_t>(sources.hidden);
  const int64_t layer_bytes =
      RestoreStepReadBytes(cfg, {0, LayerSource::kHidden}, n, ChunkCodec::kFp32);
  const auto slots = static_cast<size_t>(std::max<int64_t>(1, kRunAheadBytes / layer_bytes));
  const size_t slot_floats = static_cast<size_t>(n * cfg.hidden_dim);
  if (hidden > 0 && staging_floats_ < slots * slot_floats) {
    staging_floats_ = slots * slot_floats;
    staging_.reset(new float[staging_floats_]);
  }
  auto slot = [&](size_t i) { return staging_.get() + (i % slots) * slot_floats; };

  // The batched reads are the only check: a missing, short or corrupt chunk is found
  // when its layer loads; the stream then stops and the restore unwinds below.
  std::mutex mu;
  std::condition_variable cv;
  size_t loaded = 0;     // steps whose rows have landed
  size_t projected = 0;  // hidden steps the caller has projected (their slots are free)
  bool failed = false;
  bool stream_done = flush_pool_ == nullptr;
  auto load = [&](size_t i) {
    const RestoreStep& step = steps[i];
    const bool ok = step.source == LayerSource::kHidden
                        ? hidden_reader_.ReadLayerInto(context_id, step.layer, n, slot(i))
                        : kv_reader_.ReadLayerInto(context_id, step.layer, n, seq);
    std::lock_guard<std::mutex> lock(mu);
    loaded += ok;
    failed |= !ok;
    cv.notify_all();
  };
  auto stream = [&] {
    for (size_t i = 0; i < steps.size(); ++i) {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return failed || i >= hidden || i < projected + slots; });
      if (failed) {
        break;
      }
      lock.unlock();
      load(i);
    }
    std::lock_guard<std::mutex> lock(mu);
    stream_done = true;
    cv.notify_all();
  };

  seq->ResetForRestore();
  CHECK(seq->EnsureCapacity(n));
  if (flush_pool_ != nullptr) {
    flush_pool_->Submit([&stream] { stream(); });
  }
  if (sources.recompute > 0) {
    model_->ForwardPartial(history_tokens, seq, sources.recompute);
  } else {
    seq->CommitTokens(n);
  }
  for (size_t i = 0; i < steps.size(); ++i) {
    if (flush_pool_ == nullptr) {
      load(i);
    }
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return failed || loaded > i; });
    if (failed) {
      break;
    }
    lock.unlock();
    if (i < hidden) {
      model_->RestoreLayerKv(steps[i].layer, slot(i), n, positions.data(), seq);
      lock.lock();
      ++projected;
      cv.notify_all();
    }
  }
  // Every read in flight may still be writing pool pages or a slot: wait the stream out
  // before the pages can be released or the frame unwinds.
  std::unique_lock<std::mutex> lock(mu);
  cv.wait(lock, [&] { return stream_done; });
  if (failed) {
    // Leave the sequence as a failed-precondition return does: evicted, its history
    // length intact, so the caller can recompute from tokens.
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
