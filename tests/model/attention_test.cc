// The tiled attention kernel against a serial reference, and the bit-exactness it
// promises: a prefill equals the same tokens decoded one by one, a chunked prefill equals
// a single-shot one, and neither the pool's block size nor the thread count moves a bit.
// Contexts run past three 16-key tiles, so every check crosses tile and block edges.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/common/thread_pool.h"
#include "src/model/kv_cache.h"
#include "src/model/transformer.h"
#include "src/tensor/ops.h"

namespace hcache {
namespace {

constexpr int64_t kContext = 70;  // > 3 x 16 keys

std::vector<int32_t> RandomTokens(int64_t n, int64_t vocab, uint64_t seed) {
  Rng rng(seed);
  std::vector<int32_t> toks(static_cast<size_t>(n));
  for (auto& t : toks) {
    t = static_cast<int32_t>(rng.NextBounded(static_cast<uint64_t>(vocab)));
  }
  return toks;
}

Tensor RandomMatrix(int64_t r, int64_t c, uint64_t seed) {
  Rng rng(seed);
  Tensor t({r, c});
  for (int64_t i = 0; i < t.numel(); ++i) {
    t.at(i) = static_cast<float>(rng.NextNormal(0, 1));
  }
  return t;
}

// The serial loop the tiled kernel replaced: per (token, head), one dot chain per key,
// SoftmaxRow, then out[d] += a_j * v_j[d] key by key.
Tensor ReferenceAttention(const ModelConfig& cfg, int64_t layer, const Tensor& q,
                          const PagedKvSequence& seq, const int32_t* positions, int64_t n) {
  const int64_t head_dim = cfg.head_dim();
  const int64_t group = cfg.num_heads / cfg.num_kv_heads;
  const float scale = 1.0f / std::sqrt(static_cast<float>(head_dim));
  const bool alibi = cfg.position == PositionKind::kAlibi;
  Tensor out({n, cfg.hidden_dim});
  std::vector<float> scores;
  for (int64_t i = 0; i < n; ++i) {
    const int64_t causal_len = positions[i] + 1;
    scores.resize(static_cast<size_t>(causal_len));
    for (int64_t h = 0; h < cfg.num_heads; ++h) {
      const float* q_head = q.row(i) + h * head_dim;
      const int64_t kv_head_off = (h / group) * head_dim;
      const float slope = static_cast<float>(std::pow(
          2.0, -8.0 * static_cast<double>(h + 1) / static_cast<double>(cfg.num_heads)));
      for (int64_t j = 0; j < causal_len; ++j) {
        const float* k_row = seq.KeyRow(layer, j) + kv_head_off;
        float dot = 0.0f;
        for (int64_t d = 0; d < head_dim; ++d) {
          dot += q_head[d] * k_row[d];
        }
        float s = dot * scale;
        if (alibi) {
          s -= slope * static_cast<float>(positions[i] - static_cast<int32_t>(j));
        }
        scores[static_cast<size_t>(j)] = s;
      }
      SoftmaxRow(scores.data(), causal_len);
      float* out_head = out.row(i) + h * head_dim;
      for (int64_t j = 0; j < causal_len; ++j) {
        const float a = scores[static_cast<size_t>(j)];
        const float* v_row = seq.ValueRow(layer, j) + kv_head_off;
        for (int64_t d = 0; d < head_dim; ++d) {
          out_head[d] += a * v_row[d];
        }
      }
    }
  }
  return out;
}

// Prefill outputs, then every layer's K and V, flattened for one bitwise comparison.
Tensor Flatten(const Tensor& out, const PagedKvSequence& seq, const ModelConfig& cfg) {
  std::vector<float> all(out.data(), out.data() + out.numel());
  for (int64_t layer = 0; layer < cfg.num_layers; ++layer) {
    Tensor k, v;
    seq.ReadKv(layer, 0, seq.num_tokens(), &k, &v);
    all.insert(all.end(), k.data(), k.data() + k.numel());
    all.insert(all.end(), v.data(), v.data() + v.numel());
  }
  Tensor t({static_cast<int64_t>(all.size())});
  std::copy(all.begin(), all.end(), t.data());
  return t;
}

// Stacks rows of several [m_i, hidden] outputs into one [sum m_i, hidden] tensor.
Tensor StackRows(const std::vector<Tensor>& parts) {
  int64_t rows = 0;
  for (const Tensor& p : parts) {
    rows += p.dim(0);
  }
  Tensor t({rows, parts.front().dim(1)});
  int64_t r = 0;
  for (const Tensor& p : parts) {
    std::copy(p.data(), p.data() + p.numel(), t.row(r));
    r += p.dim(0);
  }
  return t;
}

struct Model {
  explicit Model(const ModelConfig& c)
      : cfg(c), weights(ModelWeights::Random(c, 31)), model(&weights) {}

  // Runs `tokens` through Forward in pieces of the given sizes on a fresh sequence in
  // a pool of `block_tokens`-token blocks; returns all outputs stacked, then the KV.
  Tensor Run(const std::vector<int32_t>& tokens, const std::vector<int64_t>& pieces,
             int64_t block_tokens) {
    KvBlockPool pool(KvPoolConfig::ForModel(
        cfg, (kContext + block_tokens) / block_tokens + 1, block_tokens));
    PagedKvSequence seq(&pool);
    std::vector<Tensor> outs;
    int64_t at = 0;
    for (const int64_t m : pieces) {
      outs.push_back(model.Forward({tokens.begin() + at, tokens.begin() + at + m}, &seq));
      at += m;
    }
    EXPECT_EQ(at, static_cast<int64_t>(tokens.size()));
    return Flatten(StackRows(outs), seq, cfg);
  }

  ModelConfig cfg;
  ModelWeights weights;
  Transformer model;
};

class AttentionTest : public ::testing::TestWithParam<std::string> {
 protected:
  // head_dim 16 (llama, opt, alibi, gqa), 64 (the serving model's), and 10 and 44,
  // which leave a tail that is not a whole 16-lane vector (44 = two vectors + 12).
  static ModelConfig Config(const std::string& kind) {
    if (kind == "llama") return ModelConfig::TinyLlama(3, 64, 4);
    if (kind == "opt") return ModelConfig::TinyOpt(3, 64, 4);
    if (kind == "alibi") return ModelConfig::TinyAlibi(3, 64, 4);
    if (kind == "gqa") return ModelConfig::TinyGqa(3, 64, 4, 2);
    if (kind == "head_dim64") return ModelConfig::TinyLlama(2, 128, 2);
    if (kind == "head_dim10") return ModelConfig::TinyLlama(2, 40, 4);
    return ModelConfig::TinyLlama(2, 88, 2);  // head_dim44
  }
};

TEST_P(AttentionTest, MatchesSerialReference) {
  Model m(Config(GetParam()));
  const ModelConfig& cfg = m.cfg;
  KvBlockPool pool(KvPoolConfig::ForModel(cfg, 16, 8));
  PagedKvSequence seq(&pool);
  m.model.Forward(RandomTokens(kContext, cfg.vocab_size, 5), &seq);
  // Prefill-shaped rows at the end of the context, a decode-shaped row, and rows whose
  // positions are not contiguous.
  const std::vector<std::vector<int32_t>> position_sets = {
      {60, 61, 62, 63, 64, 65, 66, 67, 68, 69}, {69}, {0}, {3, 17, 40, 15, 47, 48}};
  uint64_t seed = 100;
  for (const auto& positions : position_sets) {
    const int64_t n = static_cast<int64_t>(positions.size());
    const Tensor q = RandomMatrix(n, cfg.hidden_dim, seed++);
    for (int64_t layer = 0; layer < cfg.num_layers; ++layer) {
      const Tensor got = m.model.Attention(layer, q, seq, positions.data(), n);
      const Tensor want = ReferenceAttention(cfg, layer, q, seq, positions.data(), n);
      // Same per-element order as the reference; only a compiler's multiply-add
      // contraction can move the last bits, so the gap stays at float rounding.
      for (int64_t i = 0; i < got.numel(); ++i) {
        ASSERT_NEAR(got.at(i), want.at(i), 1e-5f * (1.0f + std::fabs(want.at(i))))
            << "layer " << layer << " element " << i << " of " << n << " rows";
      }
    }
  }
}

TEST_P(AttentionTest, PrefillEqualsTokensDecodedOneByOne) {
  Model m(Config(GetParam()));
  const auto toks = RandomTokens(kContext, m.cfg.vocab_size, 6);
  const Tensor prefill = m.Run(toks, {kContext}, 16);
  const Tensor decoded = m.Run(toks, std::vector<int64_t>(kContext, 1), 16);
  EXPECT_TRUE(Tensor::BitwiseEqual(prefill, decoded));
}

TEST_P(AttentionTest, ChunkedPrefillStartingMidTileEqualsSingleShot) {
  Model m(Config(GetParam()));
  const auto toks = RandomTokens(kContext, m.cfg.vocab_size, 7);
  const Tensor single = m.Run(toks, {kContext}, 16);
  // Chunks start at 21, 40 and 53: inside the second, third and fourth 16-key tiles.
  EXPECT_TRUE(Tensor::BitwiseEqual(single, m.Run(toks, {21, 19, 13, 17}, 16)));
}

TEST_P(AttentionTest, BlockSizeDoesNotMoveABit) {
  Model m(Config(GetParam()));
  const auto toks = RandomTokens(kContext, m.cfg.vocab_size, 8);
  const Tensor at16 = m.Run(toks, {45, 1, 24}, 16);
  EXPECT_TRUE(Tensor::BitwiseEqual(at16, m.Run(toks, {45, 1, 24}, 1)));
  EXPECT_TRUE(Tensor::BitwiseEqual(at16, m.Run(toks, {45, 1, 24}, 5)));
}

TEST_P(AttentionTest, ThreadCountDoesNotMoveABit) {
  Model m(Config(GetParam()));
  const auto toks = RandomTokens(kContext, m.cfg.vocab_size, 9);
  ThreadPool::ResizeShared(1);
  const Tensor serial = m.Run(toks, {kContext - 2, 1, 1}, 16);
  for (size_t threads = 2; threads <= 4; ++threads) {
    ThreadPool::ResizeShared(threads);
    EXPECT_TRUE(Tensor::BitwiseEqual(serial, m.Run(toks, {kContext - 2, 1, 1}, 16)))
        << threads << " threads";
  }
}

INSTANTIATE_TEST_SUITE_P(Models, AttentionTest,
                         ::testing::Values("llama", "opt", "alibi", "gqa", "head_dim64",
                                           "head_dim10", "head_dim44"));

}  // namespace
}  // namespace hcache
