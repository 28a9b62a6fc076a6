#include "src/core/shared_prefix.h"

#include <numeric>

#include "src/common/logging.h"

namespace hcache {

SharedPrefixManager::SharedPrefixManager(Transformer* model, FunctionalHCache* engine)
    : model_(model), engine_(engine) {
  CHECK(model != nullptr);
  CHECK(engine != nullptr);
}

HiddenStateSink* SharedPrefixManager::BeginContext(int64_t ctx,
                                                   const std::vector<int32_t>& prefix,
                                                   PagedKvSequence* seq) {
  CHECK(!prefix.empty());
  CHECK_EQ(seq->num_tokens(), 0) << "BeginContext needs a fresh sequence";
  CHECK(!contexts_.contains(ctx)) << "context " << ctx << " already begun";
  HiddenStateSink* sink = engine_->BeginCapture(ctx);
  const Index::iterator entry = sharers_.try_emplace(prefix).first;
  std::vector<int64_t>& sharers = entry->second;
  const int64_t plen = static_cast<int64_t>(prefix.size());
  if (!sharers.empty() && AdoptPrefix(sharers.front(), plen, sink, seq)) {
    ++prefix_reuses_;
  } else {
    if (!sharers.empty()) {
      // The donor's prefix is unreadable (missing, short or corrupt chunk): stop
      // offering it. It stays a live engine context; DropContext still drops it.
      HCACHE_LOG_ERROR << "prefix donor unreadable, forwarding instead: ctx=" << ctx
                       << " donor=" << sharers.front();
      contexts_.erase(sharers.front());
      sharers.erase(sharers.begin());
    }
    model_->Forward(prefix, seq, sink);
  }
  sharers.push_back(ctx);
  contexts_.emplace(ctx, entry);
  return sink;
}

bool SharedPrefixManager::AdoptPrefix(int64_t donor, int64_t plen, HiddenStateSink* sink,
                                      PagedKvSequence* seq) {
  const ModelConfig& cfg = model_->config();
  std::vector<Tensor> hidden;
  hidden.reserve(static_cast<size_t>(cfg.num_layers));
  for (int64_t layer = 0; layer < cfg.num_layers; ++layer) {
    hidden.emplace_back(Tensor({plen, cfg.hidden_dim}));
    if (!engine_->ReadHiddenInto(donor, layer, plen, hidden.back().data())) {
      return false;
    }
  }
  std::vector<int32_t> positions(static_cast<size_t>(plen));
  std::iota(positions.begin(), positions.end(), 0);
  CHECK(seq->EnsureCapacity(plen)) << "KV pool exhausted";
  for (int64_t layer = 0; layer < cfg.num_layers; ++layer) {
    const Tensor& rows = hidden[static_cast<size_t>(layer)];
    sink->OnLayerInput(layer, rows, positions.data(), plen);
    model_->RestoreLayerKv(layer, rows, positions.data(), seq);
  }
  seq->CommitTokens(plen);
  return true;
}

void SharedPrefixManager::DropContext(int64_t ctx) {
  const auto it = contexts_.find(ctx);
  if (it != contexts_.end()) {
    std::vector<int64_t>& sharers = it->second->second;
    std::erase(sharers, ctx);
    if (sharers.empty()) {
      sharers_.erase(it->second);
    }
    contexts_.erase(it);
  }
  engine_->DropContext(ctx);
}

}  // namespace hcache
