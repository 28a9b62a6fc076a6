// RestoreContext reuses its staging across restores: in steady state at a fixed
// history length it allocates no buffer the size of a layer's hidden rows (the
// staging slots and the read scratch persist; KV-offloaded layers decode straight
// into pool pages), with the transmission stream on a flush pool or without one.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "src/common/rng.h"
#include "src/core/functional_engine.h"
#include "src/storage/memory_backend.h"

// --- global allocation counter ---
//
// Replacing the global allocation functions observes every allocation on every
// thread, the flush pool's included. Only blocks of at least g_large_bytes count.
namespace {
std::atomic<std::size_t> g_large_bytes{0};
std::atomic<long long> g_large_allocs{0};

void* CountedAlloc(std::size_t size) {
  const std::size_t large = g_large_bytes.load(std::memory_order_relaxed);
  if (large > 0 && size >= large) {
    g_large_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}
}  // namespace

void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace hcache {
namespace {

TEST(RestoreAllocTest, SteadyStateRestoreAllocatesNoLayerSizedBlock) {
  const ModelConfig cfg = ModelConfig::TinyLlama(6, 64, 4);
  const ModelWeights weights = ModelWeights::Random(cfg, 11);
  Transformer model(&weights);
  KvBlockPool pool(KvPoolConfig::ForModel(cfg, 64, 16));
  const int64_t n = 203;  // several chunks and blocks, the last of each partial
  Rng rng(12);
  std::vector<int32_t> prompt(static_cast<size_t>(n));
  for (auto& t : prompt) {
    t = static_cast<int32_t>(rng.NextBounded(static_cast<uint64_t>(cfg.vocab_size)));
  }
  // 3 H + 3 KV: hidden layers stage their rows, KV layers decode into pages.
  PartitionScheme scheme;
  scheme.layers_hidden = 3;
  scheme.layers_other = 3;
  scheme.complement = ComplementMethod::kKvOffload;

  ThreadPool flush_pool(2);
  for (ThreadPool* stream : {&flush_pool, static_cast<ThreadPool*>(nullptr)}) {
    SCOPED_TRACE(stream != nullptr ? "flush pool" : "serial");
    MemoryBackend store(/*chunk_bytes=*/1 << 20);
    FunctionalHCache engine(&model, &store, stream, /*chunk_tokens=*/32, ChunkCodec::kFp16);
    PagedKvSequence seq(&pool);
    model.Forward(prompt, &seq, engine.BeginCapture(1));
    engine.SealContext(1);
    engine.SaveKvLayers(1, seq, {3, 4, 5});
    seq.Evict();
    // Warm-up: grows the staging slots, the read scratch and the pool's dispatch state.
    for (int rep = 0; rep < 2; ++rep) {
      ASSERT_TRUE(engine.RestoreContext(1, scheme, {}, &seq));
      seq.Evict();
    }
    g_large_allocs.store(0);
    g_large_bytes.store(static_cast<std::size_t>(n * cfg.hidden_dim) * sizeof(float));
    for (int rep = 0; rep < 5; ++rep) {
      ASSERT_TRUE(engine.RestoreContext(1, scheme, {}, &seq));
      seq.Evict();
    }
    g_large_bytes.store(0);
    EXPECT_EQ(g_large_allocs.load(), 0);
  }
}

}  // namespace
}  // namespace hcache
