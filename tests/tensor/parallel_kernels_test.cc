// Property tests for the threaded functional-plane kernels: every parallel kernel must
// produce BIT-IDENTICAL output to its serial (1-thread) execution, across shapes that
// straddle the GEMM block sizes (64/256), the register tile (4x16 or 8x32), and degenerate
// 1xN / Nx1 cases. The lossless-restoration guarantee depends on this: a KV projection
// computed during prefill on T threads must equal the same projection recomputed at
// restore time on any other thread count.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <numeric>
#include <vector>

#include "src/common/rng.h"
#include "src/common/thread_pool.h"
#include "src/model/transformer.h"
#include "src/tensor/gemm.h"
#include "src/tensor/ops.h"
#include "src/tensor/rope.h"

namespace hcache {
namespace {

constexpr size_t kParallelThreads = 4;

Tensor RandomMatrix(int64_t r, int64_t c, uint64_t seed) {
  Rng rng(seed);
  Tensor t({r, c});
  for (int64_t i = 0; i < t.numel(); ++i) {
    t.at(i) = static_cast<float>(rng.NextNormal(0, 1));
  }
  return t;
}

// Runs `fn` with a 1-thread shared pool and again with kParallelThreads, returning the
// two results for bitwise comparison. Restores a parallel pool afterwards.
template <typename Fn>
std::pair<Tensor, Tensor> SerialVsParallel(Fn&& fn) {
  ThreadPool::ResizeShared(1);
  Tensor serial = fn();
  ThreadPool::ResizeShared(kParallelThreads);
  Tensor parallel = fn();
  return {std::move(serial), std::move(parallel)};
}

// Shapes chosen to be hostile to the blocking: not multiples of Mc=64/Kc=256/Nc=256 or
// of the register tile, plus row and column vectors.
const int64_t kShapes[][3] = {
    {1, 1, 1},     {1, 257, 1},   {3, 5, 513},   {65, 129, 31}, {1, 1024, 9},
    {127, 300, 63}, {64, 256, 256}, {5, 31, 1},    {2, 4096, 17}, {130, 70, 258},
};

TEST(ParallelKernelsTest, GemmNNBitExactAcrossThreadCounts) {
  uint64_t seed = 1;
  for (const auto& s : kShapes) {
    SCOPED_TRACE(testing::Message() << s[0] << "x" << s[1] << "x" << s[2]);
    const Tensor a = RandomMatrix(s[0], s[1], seed++);
    const Tensor b = RandomMatrix(s[1], s[2], seed++);
    auto [serial, parallel] = SerialVsParallel([&] {
      Tensor c({s[0], s[2]});
      GemmNN(a.data(), b.data(), c.data(), s[0], s[1], s[2]);
      return c;
    });
    EXPECT_TRUE(Tensor::BitwiseEqual(serial, parallel));
  }
}

TEST(ParallelKernelsTest, GemmNTBitExactAcrossThreadCounts) {
  uint64_t seed = 100;
  for (const auto& s : kShapes) {
    SCOPED_TRACE(testing::Message() << s[0] << "x" << s[1] << "x" << s[2]);
    const Tensor x = RandomMatrix(s[0], s[1], seed++);
    const Tensor w = RandomMatrix(s[2], s[1], seed++);  // [n, k]
    auto [serial, parallel] = SerialVsParallel([&] { return MatMulTransposedB(x, w); });
    EXPECT_TRUE(Tensor::BitwiseEqual(serial, parallel));
  }
}

TEST(ParallelKernelsTest, GemmAccumulateBitExactAcrossThreadCounts) {
  const Tensor a = RandomMatrix(66, 258, 200);
  const Tensor b = RandomMatrix(258, 33, 201);
  const Tensor base = RandomMatrix(66, 33, 202);
  auto [serial, parallel] = SerialVsParallel([&] {
    Tensor c = base.Clone();
    GemmNN(a.data(), b.data(), c.data(), 66, 258, 33, /*accumulate=*/true);
    return c;
  });
  EXPECT_TRUE(Tensor::BitwiseEqual(serial, parallel));
}

TEST(ParallelKernelsTest, GemmNTLargeKMatchesNaiveReference) {
  // The satellite fix: GemmNT now gets the same cache blocking as GemmNN. Check a
  // deep-k point against the double-accumulating naive loop for numeric sanity.
  const int64_t m = 9, k = 4096, n = 7;
  const Tensor x = RandomMatrix(m, k, 300);
  const Tensor w = RandomMatrix(n, k, 301);
  const Tensor got = MatMulTransposedB(x, w);
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (int64_t p = 0; p < k; ++p) {
        acc += static_cast<double>(x.at(i, p)) * w.at(j, p);
      }
      // ~1e-3 relative: fp32 kernel vs fp64 reference over k=4096 terms.
      EXPECT_NEAR(got.at(i, j), static_cast<float>(acc), 2e-2) << i << "," << j;
    }
  }
}

TEST(ParallelKernelsTest, GemmNTRowResultIndependentOfBatchAtAnyThreadCount) {
  // Stronger form of the determinism contract: row results must not depend on the
  // batch size OR the thread count (prefill computes K/V for the whole prompt;
  // restore recomputes them — both must land identical bits).
  const Tensor w = RandomMatrix(13, 4096, 400);
  const Tensor big = RandomMatrix(70, 4096, 401);
  Tensor one({1, 4096});
  for (int64_t i = 0; i < 4096; ++i) {
    one.at(0, i) = big.at(37, i);
  }
  ThreadPool::ResizeShared(kParallelThreads);
  const Tensor full = MatMulTransposedB(big, w);
  ThreadPool::ResizeShared(1);
  const Tensor single = MatMulTransposedB(one, w);
  ThreadPool::ResizeShared(kParallelThreads);
  for (int64_t j = 0; j < 13; ++j) {
    EXPECT_EQ(full.at(37, j), single.at(0, j)) << "col " << j;
  }
}

TEST(ParallelKernelsTest, PackedGemmBitExactAcrossThreadCountsAndRowSplits) {
  // Every projection of the transformer runs on pre-packed weights: the output must be
  // the same bits at 1-4 threads, and a row computed alone (decode) must equal the same
  // row computed inside the batch (prefill, restore).
  uint64_t seed = 700;
  for (const auto& s : kShapes) {
    SCOPED_TRACE(testing::Message() << s[0] << "x" << s[1] << "x" << s[2]);
    const Tensor x = RandomMatrix(s[0], s[1], seed++);
    const PackedWeight w(RandomMatrix(s[2], s[1], seed++));
    ThreadPool::ResizeShared(1);
    const Tensor serial = MatMulTransposedB(x, w);
    for (size_t threads = 2; threads <= kParallelThreads; ++threads) {
      ThreadPool::ResizeShared(threads);
      EXPECT_TRUE(Tensor::BitwiseEqual(serial, MatMulTransposedB(x, w))) << threads;
    }
    const int64_t row = s[0] / 2;
    Tensor one({1, s[1]});
    std::copy(x.row(row), x.row(row) + s[1], one.row(0));
    const Tensor single = MatMulTransposedB(one, w);
    for (int64_t j = 0; j < s[2]; ++j) {
      ASSERT_EQ(single.at(0, j), serial.at(row, j)) << "col " << j;
    }
  }
  ThreadPool::ResizeShared(kParallelThreads);
}

TEST(ParallelKernelsTest, PackedGemmAtServingShapesBitExactAcrossPoolSizes) {
  // The serving model's projections (hidden 256, kv 256 stacked to 512, ffn 512, vocab
  // 1024) at decode, chat-prefill, rag-prefill and two-block row counts: the slab split
  // follows the pool's participant count, the bits must not.
  const int64_t kn[][2] = {{256, 256}, {256, 512}, {512, 256}, {256, 1024}};
  uint64_t seed = 800;
  for (const int64_t m : {1, 7, 20, 33}) {
    for (const auto& [k, n] : kn) {
      SCOPED_TRACE(testing::Message() << m << "x" << k << "x" << n);
      const Tensor x = RandomMatrix(m, k, seed++);
      const PackedWeight w(RandomMatrix(n, k, seed++));
      ThreadPool::ResizeShared(1);
      const Tensor serial = MatMulTransposedB(x, w);
      for (size_t threads = 2; threads <= kParallelThreads; ++threads) {
        ThreadPool::ResizeShared(threads);
        EXPECT_TRUE(Tensor::BitwiseEqual(serial, MatMulTransposedB(x, w))) << threads;
      }
    }
  }
  ThreadPool::ResizeShared(kParallelThreads);
}

// Captures each layer's attention-input rows at their positions.
class LayerInputs : public HiddenStateSink {
 public:
  LayerInputs(int64_t layers, int64_t tokens, int64_t dim) {
    for (int64_t l = 0; l < layers; ++l) {
      rows.emplace_back(Tensor({tokens, dim}));
    }
  }
  void OnLayerInput(int64_t layer, const Tensor& hidden, const int32_t* positions,
                    int64_t n) override {
    Tensor& dst = rows[static_cast<size_t>(layer)];
    for (int64_t i = 0; i < n; ++i) {
      std::copy(hidden.row(i), hidden.row(i) + hidden.dim(1), dst.row(positions[i]));
    }
  }
  std::vector<Tensor> rows;
};

TEST(ParallelKernelsTest, RagPrefillBitExactAcrossPoolSizesAndEqualsRestore) {
  // A rag-shaped prefill: 20 tokens appended at position 350 with 16-token blocks, so
  // its K/V rows span a 2-row tail, a whole block and a 2-row head (a 14-row lead).
  // Its output and K/V must be the same bits at every pool size, and equal what a
  // full 370-row restore of the same attention inputs writes, which runs block tiles.
  ModelConfig cfg = ModelConfig::TinyLlama(2, 256, 4);
  cfg.vocab_size = 1024;
  const ModelWeights weights = ModelWeights::Random(cfg, 901);
  Transformer model(&weights);
  constexpr int64_t kContext = 350, kPrefill = 20, kTotal = kContext + kPrefill;
  KvBlockPool pool(KvPoolConfig::ForModel(cfg, 64, 16));
  LayerInputs inputs(cfg.num_layers, kTotal, cfg.hidden_dim);
  std::vector<int32_t> tokens(kTotal);
  for (int64_t i = 0; i < kTotal; ++i) {
    tokens[static_cast<size_t>(i)] = static_cast<int32_t>((i * 37 + 5) % cfg.vocab_size);
  }
  const std::vector<int32_t> context(tokens.begin(), tokens.begin() + kContext);
  const std::vector<int32_t> prompt(tokens.begin() + kContext, tokens.end());
  ThreadPool::ResizeShared(kParallelThreads);
  PagedKvSequence cached(&pool);
  model.Forward(context, &cached, &inputs);
  std::vector<Tensor> cached_k(static_cast<size_t>(cfg.num_layers)), cached_v(cached_k.size());
  for (int64_t l = 0; l < cfg.num_layers; ++l) {
    cached.ReadKv(l, 0, kContext, &cached_k[static_cast<size_t>(l)],
                  &cached_v[static_cast<size_t>(l)]);
  }

  // The prefill's output followed by every layer's K and V rows for its tokens.
  const auto prefill = [&](HiddenStateSink* sink) {
    PagedKvSequence seq(&pool);
    EXPECT_TRUE(seq.EnsureCapacity(kContext));
    for (int64_t l = 0; l < cfg.num_layers; ++l) {
      seq.WriteKv(l, 0, cached_k[static_cast<size_t>(l)], cached_v[static_cast<size_t>(l)]);
    }
    seq.CommitTokens(kContext);
    std::vector<float> all;
    const Tensor out = model.Forward(prompt, &seq, sink);
    all.insert(all.end(), out.data(), out.data() + out.numel());
    for (int64_t l = 0; l < cfg.num_layers; ++l) {
      Tensor k, v;
      seq.ReadKv(l, kContext, kPrefill, &k, &v);
      all.insert(all.end(), k.data(), k.data() + k.numel());
      all.insert(all.end(), v.data(), v.data() + v.numel());
    }
    return all;
  };
  ThreadPool::ResizeShared(1);
  const std::vector<float> serial = prefill(&inputs);
  for (size_t threads = 2; threads <= kParallelThreads; ++threads) {
    ThreadPool::ResizeShared(threads);
    const std::vector<float> pooled = prefill(nullptr);
    ASSERT_EQ(pooled.size(), serial.size());
    EXPECT_EQ(std::memcmp(pooled.data(), serial.data(), serial.size() * sizeof(float)), 0)
        << threads << " threads";
  }

  std::vector<int32_t> positions(kTotal);
  std::iota(positions.begin(), positions.end(), 0);
  const int64_t out_floats = kPrefill * cfg.hidden_dim;
  const int64_t kv_floats = kPrefill * cfg.kv_dim();
  for (const size_t threads : {size_t{1}, kParallelThreads}) {
    ThreadPool::ResizeShared(threads);
    PagedKvSequence restored(&pool);
    ASSERT_TRUE(restored.EnsureCapacity(kTotal));
    for (int64_t l = 0; l < cfg.num_layers; ++l) {
      model.RestoreLayerKv(l, inputs.rows[static_cast<size_t>(l)], positions.data(),
                           &restored);
    }
    restored.CommitTokens(kTotal);
    for (int64_t l = 0; l < cfg.num_layers; ++l) {
      Tensor k, v;
      restored.ReadKv(l, kContext, kPrefill, &k, &v);
      const float* want = serial.data() + out_floats + 2 * l * kv_floats;
      EXPECT_EQ(std::memcmp(k.data(), want, kv_floats * sizeof(float)), 0) << "K, layer " << l;
      EXPECT_EQ(std::memcmp(v.data(), want + kv_floats, kv_floats * sizeof(float)), 0)
          << "V, layer " << l;
    }
  }
}

TEST(ParallelKernelsTest, RopeBitExactAcrossThreadCounts) {
  const Tensor base = RandomMatrix(129, 256, 500);
  std::vector<int32_t> positions(129);
  for (size_t i = 0; i < positions.size(); ++i) {
    positions[i] = static_cast<int32_t>(3 * i + 1);  // non-contiguous positions
  }
  auto [serial, parallel] = SerialVsParallel([&] {
    Tensor x = base.Clone();
    ApplyRope(x, positions.data(), /*num_heads=*/4, /*head_dim=*/64);
    return x;
  });
  EXPECT_TRUE(Tensor::BitwiseEqual(serial, parallel));
}

TEST(ParallelKernelsTest, RowWiseOpsBitExactAcrossThreadCounts) {
  const Tensor base = RandomMatrix(201, 67, 600);
  const Tensor weight = RandomMatrix(1, 67, 601);
  const Tensor bias = RandomMatrix(1, 67, 602);

  auto [soft_s, soft_p] = SerialVsParallel([&] {
    Tensor t = base.Clone();
    SoftmaxLastDim(t);
    return t;
  });
  EXPECT_TRUE(Tensor::BitwiseEqual(soft_s, soft_p));

  auto [rms_s, rms_p] = SerialVsParallel([&] {
    Tensor out({201, 67});
    RmsNorm(base, weight.data(), 1e-5f, out);
    return out;
  });
  EXPECT_TRUE(Tensor::BitwiseEqual(rms_s, rms_p));

  auto [ln_s, ln_p] = SerialVsParallel([&] {
    Tensor out({201, 67});
    LayerNorm(base, weight.data(), bias.data(), 1e-5f, out);
    return out;
  });
  EXPECT_TRUE(Tensor::BitwiseEqual(ln_s, ln_p));

  // Enough rows of 67 gated columns to split into several subranges.
  const Tensor gate_up = RandomMatrix(601, 2 * 67, 603);
  auto [swiglu_s, swiglu_p] = SerialVsParallel([&] {
    Tensor t = gate_up.Clone();
    SwiGluInPlace(t);
    return t;
  });
  EXPECT_TRUE(Tensor::BitwiseEqual(swiglu_s, swiglu_p));
}

TEST(ParallelKernelsTest, TransformerForwardBitExactAcrossThreadCounts) {
  // End-to-end: embedding -> norms -> projections -> RoPE -> attention -> FFN across
  // every parallel kernel at once, for both a multi-token prefill and a subsequent
  // single-token decode step. The 83-token prompt runs attention over more than four
  // 16-key tiles and splits into several row chunks.
  const ModelConfig cfg = ModelConfig::TinyLlama(4, 64, 4);
  const ModelWeights weights = ModelWeights::Random(cfg, 777);
  Transformer model(&weights);
  Rng rng(9);
  std::vector<int32_t> prompt(83);
  for (auto& t : prompt) {
    t = static_cast<int32_t>(rng.NextBounded(static_cast<uint64_t>(cfg.vocab_size)));
  }

  auto run = [&] {
    KvBlockPool pool(KvPoolConfig::ForModel(cfg, 64, 8));
    PagedKvSequence seq(&pool);
    Tensor out = model.Forward(prompt, &seq);
    Tensor decode_out = model.Forward({prompt.back()}, &seq);
    // Concatenate the prefill output, one decode step, and the full KV state into one
    // tensor so a single bitwise comparison covers everything.
    Tensor k, v;
    seq.ReadKv(cfg.num_layers - 1, 0, seq.num_tokens(), &k, &v);
    Tensor all({out.numel() + decode_out.numel() + k.numel() + v.numel()});
    int64_t off = 0;
    for (const Tensor* t : {&out, &decode_out, &k, &v}) {
      for (int64_t i = 0; i < t->numel(); ++i) {
        all.at(off++) = t->at(i);
      }
    }
    return all;
  };
  ThreadPool::ResizeShared(1);
  const Tensor serial = run();
  for (size_t threads = 2; threads <= kParallelThreads; ++threads) {
    ThreadPool::ResizeShared(threads);
    EXPECT_TRUE(Tensor::BitwiseEqual(serial, run())) << threads << " threads";
  }
}

}  // namespace
}  // namespace hcache
