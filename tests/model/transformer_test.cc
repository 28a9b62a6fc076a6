#include "src/model/transformer.h"

#include <gtest/gtest.h>

#include <map>
#include <numeric>
#include <vector>

#include "src/common/rng.h"
#include "src/model/kv_cache.h"

namespace hcache {
namespace {

// Test sink: retains every layer's attention-input rows keyed by absolute token
// position.
class CaptureSink : public HiddenStateSink {
 public:
  explicit CaptureSink(const ModelConfig& cfg)
      : hidden_dim_(cfg.hidden_dim), layers_(static_cast<size_t>(cfg.num_layers)) {}

  void OnLayerInput(int64_t layer, const Tensor& hidden, const int32_t* positions,
                    int64_t n) override {
    auto& store = layers_[static_cast<size_t>(layer)];
    for (int64_t i = 0; i < n; ++i) {
      std::vector<float> row(hidden.row(i), hidden.row(i) + hidden_dim_);
      store[positions[i]] = std::move(row);
    }
  }

  // Assembles [num_tokens, hidden] for one layer in position order 0..num_tokens-1.
  Tensor LayerHidden(int64_t layer, int64_t num_tokens) const {
    const auto& store = layers_[static_cast<size_t>(layer)];
    Tensor t({num_tokens, hidden_dim_});
    for (int64_t p = 0; p < num_tokens; ++p) {
      const auto it = store.find(static_cast<int32_t>(p));
      CHECK(it != store.end()) << "missing hidden for pos " << p;
      std::copy(it->second.begin(), it->second.end(), t.row(p));
    }
    return t;
  }

 private:
  int64_t hidden_dim_;
  std::vector<std::map<int32_t, std::vector<float>>> layers_;
};

std::vector<int32_t> RandomTokens(int64_t n, int64_t vocab, uint64_t seed) {
  Rng rng(seed);
  std::vector<int32_t> toks(static_cast<size_t>(n));
  for (auto& t : toks) {
    t = static_cast<int32_t>(rng.NextBounded(static_cast<uint64_t>(vocab)));
  }
  return toks;
}

struct Harness {
  explicit Harness(const ModelConfig& cfg, uint64_t seed = 42)
      : weights(ModelWeights::Random(cfg, seed)),
        model(&weights),
        pool(KvPoolConfig::ForModel(cfg, /*num_blocks=*/64, /*block_tokens=*/8)) {}

  ModelWeights weights;
  Transformer model;
  KvBlockPool pool;
};

TEST(TransformerTest, ForwardOutputShape) {
  Harness h(ModelConfig::TinyLlama());
  PagedKvSequence seq(&h.pool);
  Tensor out = h.model.Forward(RandomTokens(5, 256, 1), &seq);
  EXPECT_EQ(out.dim(0), 5);
  EXPECT_EQ(out.dim(1), 64);
  EXPECT_EQ(seq.num_tokens(), 5);
}

TEST(TransformerTest, ForwardIsDeterministic) {
  Harness h1(ModelConfig::TinyLlama());
  Harness h2(ModelConfig::TinyLlama());
  const auto toks = RandomTokens(6, 256, 2);
  PagedKvSequence s1(&h1.pool), s2(&h2.pool);
  Tensor a = h1.model.Forward(toks, &s1);
  Tensor b = h2.model.Forward(toks, &s2);
  EXPECT_TRUE(Tensor::BitwiseEqual(a, b));
}

TEST(TransformerTest, CausalityPrefixInvariance) {
  // Output for token i must not depend on tokens after i: run the full batch and a
  // truncated batch, compare the shared prefix bitwise.
  Harness h(ModelConfig::TinyLlama());
  const auto toks = RandomTokens(7, 256, 3);
  PagedKvSequence full_seq(&h.pool);
  Tensor full = h.model.Forward(toks, &full_seq);
  PagedKvSequence pre_seq(&h.pool);
  std::vector<int32_t> prefix(toks.begin(), toks.begin() + 4);
  Tensor pre = h.model.Forward(prefix, &pre_seq);
  for (int64_t i = 0; i < 4; ++i) {
    for (int64_t d = 0; d < full.dim(1); ++d) {
      EXPECT_EQ(full.at(i, d), pre.at(i, d)) << "token " << i << " dim " << d;
    }
  }
}

TEST(TransformerTest, ChunkedPrefillMatchesSingleShot) {
  // SplitFuse-style chunking must be a no-op semantically.
  Harness h(ModelConfig::TinyLlama());
  const auto toks = RandomTokens(9, 256, 4);
  PagedKvSequence one(&h.pool);
  Tensor all = h.model.Forward(toks, &one);
  PagedKvSequence two(&h.pool);
  h.model.Forward({toks.begin(), toks.begin() + 5}, &two);
  Tensor tail = h.model.Forward({toks.begin() + 5, toks.end()}, &two);
  for (int64_t i = 0; i < 4; ++i) {
    for (int64_t d = 0; d < all.dim(1); ++d) {
      EXPECT_EQ(all.at(5 + i, d), tail.at(i, d));
    }
  }
}

TEST(TransformerTest, KvCachePopulatedForAllLayers) {
  const ModelConfig cfg = ModelConfig::TinyLlama();
  Harness h(cfg);
  PagedKvSequence seq(&h.pool);
  h.model.Forward(RandomTokens(5, 256, 5), &seq);
  for (int64_t layer = 0; layer < cfg.num_layers; ++layer) {
    Tensor k, v;
    seq.ReadKv(layer, 0, 5, &k, &v);
    // Not all-zero: at least one element differs from 0.
    EXPECT_GT(Tensor::MaxAbsDiff(k, Tensor({5, cfg.kv_dim()})), 0.0f) << "layer " << layer;
  }
}

// ===== The paper's core claim: KV restored from hidden states is lossless =====

class RestorationFidelityTest : public ::testing::TestWithParam<const char*> {
 protected:
  static ModelConfig MakeConfig(const std::string& kind) {
    if (kind == "llama") {
      return ModelConfig::TinyLlama(3, 64, 4);
    }
    if (kind == "opt") {
      return ModelConfig::TinyOpt(3, 64, 4);
    }
    if (kind == "alibi") {
      return ModelConfig::TinyAlibi(3, 64, 4);
    }
    return ModelConfig::TinyGqa(3, 64, 4, 2);
  }
};

TEST_P(RestorationFidelityTest, RestoredKvIsBitExact) {
  const ModelConfig cfg = MakeConfig(GetParam());
  Harness h(cfg);
  CaptureSink sink(cfg);
  PagedKvSequence seq(&h.pool);
  const int64_t n = 20;
  h.model.Forward(RandomTokens(n, cfg.vocab_size, 6), &seq, &sink);

  std::vector<int32_t> positions(static_cast<size_t>(n));
  std::iota(positions.begin(), positions.end(), 0);
  for (int64_t layer = 0; layer < cfg.num_layers; ++layer) {
    Tensor k_orig, v_orig;
    seq.ReadKv(layer, 0, n, &k_orig, &v_orig);
    Tensor k_rest, v_rest;
    h.model.RestoreLayerKv(layer, sink.LayerHidden(layer, n), positions.data(), &k_rest,
                           &v_rest);
    EXPECT_TRUE(Tensor::BitwiseEqual(k_orig, k_rest)) << "K layer " << layer;
    EXPECT_TRUE(Tensor::BitwiseEqual(v_orig, v_rest)) << "V layer " << layer;
  }
}

TEST_P(RestorationFidelityTest, DecodeAfterRestorationMatchesNeverEvicted) {
  const ModelConfig cfg = MakeConfig(GetParam());
  Harness h(cfg);
  const auto prompt = RandomTokens(12, cfg.vocab_size, 7);

  // Reference: never evicted.
  PagedKvSequence ref_seq(&h.pool);
  h.model.Forward(prompt, &ref_seq);
  const auto ref_out = h.model.GreedyDecode(prompt.back(), 8, &ref_seq);

  // Candidate: prefill with capture, evict, restore from hidden states, decode.
  CaptureSink sink(cfg);
  PagedKvSequence seq(&h.pool);
  h.model.Forward(prompt, &seq, &sink);
  seq.Evict();
  ASSERT_TRUE(seq.EnsureCapacity(seq.num_tokens()));
  std::vector<int32_t> positions(static_cast<size_t>(seq.num_tokens()));
  std::iota(positions.begin(), positions.end(), 0);
  for (int64_t layer = 0; layer < cfg.num_layers; ++layer) {
    Tensor k, v;
    h.model.RestoreLayerKv(layer, sink.LayerHidden(layer, seq.num_tokens()),
                           positions.data(), &k, &v);
    seq.WriteKv(layer, 0, k, v);
  }
  const auto got_out = h.model.GreedyDecode(prompt.back(), 8, &seq);

  EXPECT_EQ(ref_out, got_out);
}

TEST_P(RestorationFidelityTest, RestorationBatchSizeIrrelevant) {
  // Restoring token-by-token must equal restoring the whole history at once (the
  // restorer is free to chunk transmissions without affecting results).
  const ModelConfig cfg = MakeConfig(GetParam());
  Harness h(cfg);
  CaptureSink sink(cfg);
  PagedKvSequence seq(&h.pool);
  const int64_t n = 10;
  h.model.Forward(RandomTokens(n, cfg.vocab_size, 8), &seq, &sink);

  const int64_t layer = cfg.num_layers - 1;
  Tensor hidden = sink.LayerHidden(layer, n);
  std::vector<int32_t> positions(static_cast<size_t>(n));
  std::iota(positions.begin(), positions.end(), 0);
  Tensor k_all, v_all;
  h.model.RestoreLayerKv(layer, hidden, positions.data(), &k_all, &v_all);

  for (int64_t t = 0; t < n; ++t) {
    Tensor one({1, cfg.hidden_dim});
    std::copy(hidden.row(t), hidden.row(t) + cfg.hidden_dim, one.row(0));
    const int32_t pos = static_cast<int32_t>(t);
    Tensor k1, v1;
    h.model.RestoreLayerKv(layer, one, &pos, &k1, &v1);
    for (int64_t d = 0; d < cfg.kv_dim(); ++d) {
      EXPECT_EQ(k1.at(0, d), k_all.at(t, d));
      EXPECT_EQ(v1.at(0, d), v_all.at(t, d));
    }
  }
}

TEST_P(RestorationFidelityTest, RestoreIntoPoolMatchesTensorsAndForward) {
  // The pool form of RestoreLayerKv writes through the fused projection epilogue; it
  // must land the bits of the tensor form + WriteKv and of the KV Forward wrote. The
  // prefill is chunked so its second chunk starts mid-block (block_tokens = 8), and n
  // is not a multiple of block_tokens.
  const ModelConfig cfg = MakeConfig(GetParam());
  Harness h(cfg);
  CaptureSink sink(cfg);
  PagedKvSequence fwd(&h.pool);
  const int64_t n = 21;
  const auto toks = RandomTokens(n, cfg.vocab_size, 12);
  h.model.Forward({toks.begin(), toks.begin() + 5}, &fwd, &sink);
  h.model.Forward({toks.begin() + 5, toks.end()}, &fwd, &sink);

  std::vector<int32_t> positions(static_cast<size_t>(n));
  std::iota(positions.begin(), positions.end(), 0);
  PagedKvSequence via_tensors(&h.pool), via_pool(&h.pool), tail_only(&h.pool);
  for (PagedKvSequence* s : {&via_tensors, &via_pool, &tail_only}) {
    ASSERT_TRUE(s->EnsureCapacity(n));
    s->CommitTokens(n);
  }
  // Tokens [first, n) alone: the tiles start mid-block.
  const int64_t first = 11;
  for (int64_t layer = 0; layer < cfg.num_layers; ++layer) {
    const Tensor hidden = sink.LayerHidden(layer, n);
    Tensor k, v;
    h.model.RestoreLayerKv(layer, hidden, positions.data(), &k, &v);
    via_tensors.WriteKv(layer, 0, k, v);
    h.model.RestoreLayerKv(layer, hidden, positions.data(), &via_pool);
    Tensor tail({n - first, cfg.hidden_dim});
    std::copy(hidden.row(first), hidden.row(first) + tail.numel(), tail.row(0));
    h.model.RestoreLayerKv(layer, tail, positions.data() + first, &tail_only);
  }
  for (int64_t layer = 0; layer < cfg.num_layers; ++layer) {
    Tensor k_fwd, v_fwd, k_t, v_t, k_p, v_p, k_tail, v_tail, k_ref, v_ref;
    fwd.ReadKv(layer, 0, n, &k_fwd, &v_fwd);
    via_tensors.ReadKv(layer, 0, n, &k_t, &v_t);
    via_pool.ReadKv(layer, 0, n, &k_p, &v_p);
    EXPECT_TRUE(Tensor::BitwiseEqual(k_fwd, k_t)) << "K layer " << layer;
    EXPECT_TRUE(Tensor::BitwiseEqual(v_fwd, v_t)) << "V layer " << layer;
    EXPECT_TRUE(Tensor::BitwiseEqual(k_fwd, k_p)) << "K layer " << layer;
    EXPECT_TRUE(Tensor::BitwiseEqual(v_fwd, v_p)) << "V layer " << layer;
    tail_only.ReadKv(layer, first, n - first, &k_tail, &v_tail);
    fwd.ReadKv(layer, first, n - first, &k_ref, &v_ref);
    EXPECT_TRUE(Tensor::BitwiseEqual(k_ref, k_tail)) << "K tail layer " << layer;
    EXPECT_TRUE(Tensor::BitwiseEqual(v_ref, v_tail)) << "V tail layer " << layer;
  }
}

INSTANTIATE_TEST_SUITE_P(Architectures, RestorationFidelityTest,
                         ::testing::Values("llama", "opt", "gqa", "alibi"));

TEST(TransformerTest, AlibiPenalizesDistance) {
  // With ALiBi, attention to distant tokens is suppressed by a per-head linear bias;
  // sanity-check the bias plumbing by confirming position changes outputs even though
  // neither embeddings nor K/Q carry positions.
  const ModelConfig cfg = ModelConfig::TinyAlibi(2, 32, 2);
  Harness h(cfg);
  const auto toks = RandomTokens(6, cfg.vocab_size, 31);
  PagedKvSequence seq(&h.pool);
  Tensor out = h.model.Forward(toks, &seq);
  // Re-run the same *token* later in the sequence: outputs must differ (position
  // matters) even though K is position-free.
  PagedKvSequence seq2(&h.pool);
  std::vector<int32_t> twice = toks;
  twice.push_back(toks[2]);
  Tensor out2 = h.model.Forward(twice, &seq2);
  bool differs = false;
  for (int64_t d = 0; d < cfg.hidden_dim; ++d) {
    differs |= out.at(2, d) != out2.at(6, d);
  }
  EXPECT_TRUE(differs);
}

TEST(TransformerTest, SampleDecodeDeterministicForSeed) {
  const ModelConfig cfg = ModelConfig::TinyLlama(2, 32, 2);
  Harness h(cfg);
  const auto prompt = RandomTokens(5, cfg.vocab_size, 33);
  PagedKvSequence s1(&h.pool), s2(&h.pool);
  h.model.Forward(prompt, &s1);
  h.model.Forward(prompt, &s2);
  Rng r1(99), r2(99);
  const auto a = h.model.SampleDecode(prompt.back(), 12, 0.8, 16, r1, &s1);
  const auto b = h.model.SampleDecode(prompt.back(), 12, 0.8, 16, r2, &s2);
  EXPECT_EQ(a, b);
}

TEST(TransformerTest, SampleDecodeSeedChangesOutput) {
  const ModelConfig cfg = ModelConfig::TinyLlama(2, 32, 2);
  Harness h(cfg);
  const auto prompt = RandomTokens(5, cfg.vocab_size, 34);
  PagedKvSequence s1(&h.pool), s2(&h.pool);
  h.model.Forward(prompt, &s1);
  h.model.Forward(prompt, &s2);
  Rng r1(1), r2(2);
  const auto a = h.model.SampleDecode(prompt.back(), 16, 1.2, 0, r1, &s1);
  const auto b = h.model.SampleDecode(prompt.back(), 16, 1.2, 0, r2, &s2);
  EXPECT_NE(a, b);
}

TEST(TransformerTest, SampleDecodeTopKRestrictsSupport) {
  // top_k == 1 must reduce to greedy decoding regardless of temperature or seed.
  const ModelConfig cfg = ModelConfig::TinyLlama(2, 32, 2);
  Harness h(cfg);
  const auto prompt = RandomTokens(4, cfg.vocab_size, 35);
  PagedKvSequence s1(&h.pool), s2(&h.pool);
  h.model.Forward(prompt, &s1);
  h.model.Forward(prompt, &s2);
  Rng rng(7);
  const auto sampled = h.model.SampleDecode(prompt.back(), 8, 5.0, 1, rng, &s1);
  const auto greedy = h.model.GreedyDecode(prompt.back(), 8, &s2);
  EXPECT_EQ(sampled, greedy);
}

TEST(TransformerTest, HiddenCaptureCoversDecodePhase) {
  // Hidden states are also produced (and must be captured) for tokens generated in the
  // decode phase — the paper's two-stage saver handles exactly this stream.
  const ModelConfig cfg = ModelConfig::TinyLlama(2, 32, 2);
  Harness h(cfg);
  CaptureSink sink(cfg);
  PagedKvSequence seq(&h.pool);
  h.model.Forward(RandomTokens(4, cfg.vocab_size, 9), &seq, &sink);
  h.model.GreedyDecode(1, 3, &seq, &sink);
  EXPECT_EQ(seq.num_tokens(), 7);
  Tensor hidden = sink.LayerHidden(0, 7);  // would CHECK-fail if any position missing
  EXPECT_EQ(hidden.dim(0), 7);
}

TEST(TransformerTest, GreedyDecodeAdvancesSequence) {
  Harness h(ModelConfig::TinyLlama(2, 32, 2));
  PagedKvSequence seq(&h.pool);
  h.model.Forward(RandomTokens(3, 256, 10), &seq);
  const auto out = h.model.GreedyDecode(5, 4, &seq);
  EXPECT_EQ(out.size(), 4u);
  EXPECT_EQ(seq.num_tokens(), 7);
  for (int32_t t : out) {
    EXPECT_GE(t, 0);
    EXPECT_LT(t, 256);
  }
}

TEST(TransformerTest, LogitsShape) {
  Harness h(ModelConfig::TinyLlama(2, 32, 2));
  PagedKvSequence seq(&h.pool);
  Tensor out = h.model.Forward(RandomTokens(3, 256, 11), &seq);
  Tensor logits = h.model.Logits(out);
  EXPECT_EQ(logits.dim(0), 3);
  EXPECT_EQ(logits.dim(1), 256);
}

}  // namespace
}  // namespace hcache
