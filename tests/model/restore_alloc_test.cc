// The per-layer restore projection step — pre-norm, packed [W_k; W_v] GEMM, bias and
// RoPE epilogue, rows written into the pool's pages — makes no heap allocation in
// steady state: its scratch is per thread and reused, and its rows land in pages the
// sequence already holds.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <numeric>
#include <vector>

#include "src/common/rng.h"
#include "src/common/thread_pool.h"
#include "src/model/transformer.h"

// --- global allocation counter ---
//
// Replacing the global allocation functions is the only way to observe *every*
// allocation on the step, the kernels' scratch and the tensors alike.
namespace {
std::atomic<long long> g_alloc_count{0};
std::atomic<bool> g_count_allocs{false};

void* CountedAlloc(std::size_t size) {
  if (g_count_allocs.load(std::memory_order_relaxed)) {
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
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

Tensor RandomHidden(int64_t n, int64_t dim, uint64_t seed) {
  Rng rng(seed);
  Tensor t({n, dim});
  for (int64_t i = 0; i < t.numel(); ++i) {
    t.at(i) = static_cast<float>(rng.NextNormal(0, 1));
  }
  return t;
}

TEST(RestoreAllocTest, SteadyStateRestoreProjectionDoesNotAllocate) {
  // One shared-pool thread: with more, ThreadPool::ParallelFor's own dispatch
  // bookkeeping allocates, which is not part of the step.
  ThreadPool::ResizeShared(1);
  for (const ModelConfig& cfg :
       {ModelConfig::TinyLlama(2, 64, 4), ModelConfig::TinyOpt(2, 64, 4),
        ModelConfig::TinyGqa(2, 48, 4, 2)}) {
    SCOPED_TRACE(cfg.name);
    const ModelWeights weights = ModelWeights::Random(cfg, 3);
    const Transformer model(&weights);
    KvBlockPool pool(KvPoolConfig::ForModel(cfg, 16, 16));
    PagedKvSequence seq(&pool);
    // 45 tokens: several 16-row tiles; 1 and 7 tokens: a lone tile (decode, prefill).
    const int64_t n = 45;
    ASSERT_TRUE(seq.EnsureCapacity(n));
    seq.CommitTokens(n);
    std::vector<int32_t> positions(static_cast<size_t>(n));
    std::iota(positions.begin(), positions.end(), 0);
    const Tensor hidden = RandomHidden(n, cfg.hidden_dim, 4);
    const Tensor one = RandomHidden(1, cfg.hidden_dim, 5);
    const Tensor seven = RandomHidden(7, cfg.hidden_dim, 6);
    const int32_t* late = positions.data() + 30;  // starts mid-block
    auto restore_all = [&] {
      for (int64_t layer = 0; layer < cfg.num_layers; ++layer) {
        model.RestoreLayerKv(layer, hidden, positions.data(), &seq);
        model.RestoreLayerKv(layer, one, late, &seq);
        model.RestoreLayerKv(layer, seven, late, &seq);
      }
    };
    restore_all();  // warm-up: grows the per-thread scratch once
    g_alloc_count.store(0);
    g_count_allocs.store(true);
    for (int rep = 0; rep < 5; ++rep) {
      restore_all();
    }
    g_count_allocs.store(false);
    EXPECT_EQ(g_alloc_count.load(), 0);
  }
}

}  // namespace
}  // namespace hcache
