#include "src/model/transformer.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>
#include <utility>

#include "src/common/thread_pool.h"
#include "src/tensor/gemm.h"
#include "src/tensor/ops.h"

namespace hcache {

namespace {

// Rows per tile when RestoreLayerKv writes tensors rather than pool pages.
constexpr int64_t kTensorTileRows = 16;

void AddBias(float* row, const Tensor& bias) {
  for (int64_t c = 0; c < bias.numel(); ++c) {
    row[c] += bias.at(c);
  }
}

}  // namespace

Transformer::Transformer(const ModelWeights* weights) : weights_(weights) {
  CHECK(weights != nullptr);
  const ModelConfig& cfg = weights->config;
  if (cfg.position == PositionKind::kRope) {
    rope_ = RopeTable(cfg.head_dim(), cfg.max_position);
  }
}

Tensor Transformer::Embed(const std::vector<int32_t>& tokens, const int32_t* positions) const {
  const ModelConfig& cfg = config();
  const int64_t n = static_cast<int64_t>(tokens.size());
  Tensor h({n, cfg.hidden_dim});
  for (int64_t i = 0; i < n; ++i) {
    const int32_t tok = tokens[static_cast<size_t>(i)];
    CHECK_GE(tok, 0);
    CHECK_LT(tok, cfg.vocab_size);
    std::memcpy(h.row(i), weights_->embedding.row(tok),
                static_cast<size_t>(cfg.hidden_dim) * sizeof(float));
    if (cfg.position == PositionKind::kLearned) {
      CHECK_LT(positions[i], cfg.max_position);
      const float* pe = weights_->pos_embedding.row(positions[i]);
      float* row = h.row(i);
      for (int64_t d = 0; d < cfg.hidden_dim; ++d) {
        row[d] += pe[d];
      }
    }
  }
  return h;
}

void Transformer::Normalize(const Tensor& x, const Tensor& weight, const Tensor& bias,
                            Tensor* out) const {
  const ModelConfig& cfg = config();
  if (cfg.norm == NormKind::kRmsNorm) {
    RmsNorm(x, weight.data(), cfg.norm_eps, *out);
  } else {
    LayerNorm(x, weight.data(), bias.data(), cfg.norm_eps, *out);
  }
}

void Transformer::AddBiasRows(Tensor& t, const Tensor& bias) {
  if (bias.empty()) {
    return;
  }
  CHECK_EQ(t.dim(1), bias.numel());
  for (int64_t r = 0; r < t.dim(0); ++r) {
    AddBias(t.row(r), bias);
  }
}

template <typename Dest>
void Transformer::ProjectKv(int64_t layer, const Tensor& hidden, const int32_t* positions,
                            int64_t tile_rows, const Dest& dest) const {
  const ModelConfig& cfg = config();
  CHECK_GE(layer, 0);
  CHECK_LT(layer, cfg.num_layers);
  CHECK_EQ(hidden.rank(), 2);
  CHECK_EQ(hidden.dim(1), cfg.hidden_dim);
  const int64_t n = hidden.dim(0);
  if (n == 0) {
    return;
  }
  const LayerWeights& lw = weights_->layers[static_cast<size_t>(layer)];
  const int64_t dim = cfg.hidden_dim;
  const int64_t kv_dim = cfg.kv_dim();
  const bool rope = cfg.position == PositionKind::kRope;
  CHECK_GE(positions[0], 0);
  const int64_t lead = positions[0] % tile_rows;  // rows of the first block before row 0
  const int64_t tiles = (lead + n + tile_rows - 1) / tile_rows;

  const auto project = [&](int64_t r0, int64_t r1, bool parallel_gemm) {
    // Grown to the largest tile once per thread, then reused.
    thread_local std::vector<float> x_tile;
    thread_local std::vector<float> kv_tile;
    const int64_t rows = r1 - r0;
    x_tile.resize(static_cast<size_t>(rows * dim));
    kv_tile.resize(static_cast<size_t>(rows * 2 * kv_dim));
    // The paper's K = W_k * H elides the (cheap, per-row) pre-norm; including it here is
    // required for exactness and is covered by the epsilon term of §3.2's cost analysis.
    for (int64_t r = 0; r < rows; ++r) {
      const float* in = hidden.row(r0 + r);
      float* out = x_tile.data() + r * dim;
      if (cfg.norm == NormKind::kRmsNorm) {
        RmsNormRow(in, lw.attn_norm_weight.data(), cfg.norm_eps, dim, out);
      } else {
        LayerNormRow(in, lw.attn_norm_weight.data(), lw.attn_norm_bias.data(), cfg.norm_eps,
                     dim, out);
      }
    }
    if (parallel_gemm) {
      GemmPacked(x_tile.data(), dim, lw.wkv, kv_tile.data(), 2 * kv_dim, rows);
    } else {
      GemmPackedSerial(x_tile.data(), dim, lw.wkv, kv_tile.data(), 2 * kv_dim, rows);
    }
    for (int64_t r = 0; r < rows; ++r) {
      float* k = kv_tile.data() + r * 2 * kv_dim;
      float* v = k + kv_dim;
      AddBias(k, lw.bk);
      AddBias(v, lw.bv);
      const auto [k_dst, v_dst] = dest(r0 + r);
      if (rope) {
        rope_.RotateRow(k, k_dst, positions[r0 + r], cfg.num_kv_heads);
      } else {
        std::memcpy(k_dst, k, static_cast<size_t>(kv_dim) * sizeof(float));
      }
      std::memcpy(v_dst, v, static_cast<size_t>(kv_dim) * sizeof(float));
    }
  };
  if (tiles == 1) {
    project(0, n, /*parallel_gemm=*/true);
    return;
  }
  const auto run_tiles = [&](int64_t t0, int64_t t1) {
    for (int64_t t = t0; t < t1; ++t) {
      project(std::max<int64_t>(0, t * tile_rows - lead),
              std::min(n, (t + 1) * tile_rows - lead), /*parallel_gemm=*/false);
    }
  };
  // One reference capture fits std::function's in-place storage: no allocation.
  ParallelFor(0, tiles, 1, [&run_tiles](int64_t t0, int64_t t1) { run_tiles(t0, t1); });
}

float Transformer::AlibiSlope(int64_t head) const {
  // Standard ALiBi geometric slopes: m_h = 2^(-8*(h+1)/H).
  const double exponent = -8.0 * static_cast<double>(head + 1) /
                          static_cast<double>(config().num_heads);
  return static_cast<float>(std::pow(2.0, exponent));
}

Tensor Transformer::Attention(int64_t layer, const Tensor& q, const PagedKvSequence& seq,
                              const int32_t* positions, int64_t n) const {
  const ModelConfig& cfg = config();
  const int64_t head_dim = cfg.head_dim();
  const int64_t num_heads = cfg.num_heads;
  // GQA: query head h reads KV head h / group_size.
  const int64_t group = cfg.num_heads / cfg.num_kv_heads;
  const float scale = 1.0f / std::sqrt(static_cast<float>(head_dim));
  const bool alibi = cfg.position == PositionKind::kAlibi;

  Tensor out({n, cfg.hidden_dim});
  // Every (token, head) pair reads shared K/V but writes only its own slice of `out`,
  // so tokens parallelize freely; each token's math is untouched, keeping the output
  // bit-identical to the serial loop at any thread count. Later tokens attend over
  // longer prefixes, so a fine grain (1 token) load-balances the causal skew.
  ParallelFor(0, n, 1, [&](int64_t i0, int64_t i1) {
    thread_local std::vector<float> scores;  // reused across tokens within each thread
    for (int64_t i = i0; i < i1; ++i) {
      const int64_t causal_len = positions[i] + 1;  // attends to absolute 0..pos inclusive
      scores.resize(static_cast<size_t>(causal_len));
      for (int64_t h = 0; h < num_heads; ++h) {
        const float* q_head = q.row(i) + h * head_dim;
        const int64_t kv_head_off = (h / group) * head_dim;
        const float slope = alibi ? AlibiSlope(h) : 0.0f;
        for (int64_t j = 0; j < causal_len; ++j) {
          const float* k_row = seq.KeyRow(layer, j) + kv_head_off;
          float dot = 0.0f;
          for (int64_t d = 0; d < head_dim; ++d) {
            dot += q_head[d] * k_row[d];
          }
          float s = dot * scale;
          if (alibi) {
            // Linear distance penalty on the score; K stays position-free, which is why
            // ALiBi models restore with a bare projection.
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
  });
  return out;
}

Tensor Transformer::Ffn(const LayerWeights& lw, const Tensor& x) const {
  const ModelConfig& cfg = config();
  if (cfg.activation == ActivationKind::kSwiGlu) {
    Tensor gate = MatMulTransposedB(x, lw.w_gate);
    Tensor up = MatMulTransposedB(x, lw.w_up);
    SiluInPlace(gate);
    MulInPlace(gate, up);
    return MatMulTransposedB(gate, lw.w_down);
  }
  Tensor mid = MatMulTransposedB(x, lw.w_up);
  AddBiasRows(mid, lw.b_up);
  if (cfg.activation == ActivationKind::kGelu) {
    GeluInPlace(mid);
  } else {
    ReluInPlace(mid);
  }
  Tensor out = MatMulTransposedB(mid, lw.w_down);
  AddBiasRows(out, lw.b_down);
  return out;
}

Tensor Transformer::Forward(const std::vector<int32_t>& tokens, PagedKvSequence* seq,
                            HiddenStateSink* sink) {
  Tensor h = ForwardPartial(tokens, seq, config().num_layers, sink);
  Tensor final_out({h.dim(0), config().hidden_dim});
  Normalize(h, weights_->final_norm_weight, weights_->final_norm_bias, &final_out);
  return final_out;
}

Tensor Transformer::ForwardPartial(const std::vector<int32_t>& tokens, PagedKvSequence* seq,
                                   int64_t num_layers, HiddenStateSink* sink) {
  const ModelConfig& cfg = config();
  const int64_t n = static_cast<int64_t>(tokens.size());
  CHECK_GT(n, 0);
  CHECK_GE(num_layers, 0);
  CHECK_LE(num_layers, cfg.num_layers);
  CHECK(seq->has_kv()) << "forward on a sequence with evicted KV; restore it first";
  const int64_t start = seq->num_tokens();
  CHECK(seq->EnsureCapacity(start + n)) << "KV pool exhausted";

  std::vector<int32_t> positions(static_cast<size_t>(n));
  std::iota(positions.begin(), positions.end(), static_cast<int32_t>(start));

  Tensor h = Embed(tokens, positions.data());
  Tensor normed({n, cfg.hidden_dim});
  for (int64_t layer = 0; layer < num_layers; ++layer) {
    const LayerWeights& lw = weights_->layers[static_cast<size_t>(layer)];
    if (sink != nullptr) {
      sink->OnLayerInput(layer, h, positions.data(), n);
    }

    Normalize(h, lw.attn_norm_weight, lw.attn_norm_bias, &normed);
    Tensor q = MatMulTransposedB(normed, lw.wq);
    AddBiasRows(q, lw.bq);
    if (cfg.position == PositionKind::kRope) {
      rope_.Apply(q, positions.data(), cfg.num_heads);
    }
    RestoreLayerKv(layer, h, positions.data(), seq);
    if (layer == 0) {
      // Tokens become visible to attention once their layer-0 K/V exist; later layers
      // reuse the same committed range.
      seq->CommitTokens(n);
    }

    Tensor attn = Attention(layer, q, *seq, positions.data(), n);
    Tensor o = MatMulTransposedB(attn, lw.wo);
    AddBiasRows(o, lw.bo);
    AddInPlace(h, o);

    Normalize(h, lw.ffn_norm_weight, lw.ffn_norm_bias, &normed);
    Tensor f = Ffn(lw, normed);
    AddInPlace(h, f);
  }
  return h;
}

Tensor Transformer::Logits(const Tensor& hidden) const {
  return MatMulTransposedB(hidden, weights_->lm_head);
}

std::vector<int32_t> Transformer::GreedyDecode(int32_t first_token, int64_t steps,
                                               PagedKvSequence* seq, HiddenStateSink* sink) {
  std::vector<int32_t> generated;
  generated.reserve(static_cast<size_t>(steps));
  int32_t token = first_token;
  for (int64_t s = 0; s < steps; ++s) {
    Tensor out = Forward({token}, seq, sink);
    Tensor logits = Logits(out);
    int32_t best = 0;
    float best_v = logits.at(0, 0);
    for (int64_t v = 1; v < logits.dim(1); ++v) {
      if (logits.at(0, v) > best_v) {
        best_v = logits.at(0, v);
        best = static_cast<int32_t>(v);
      }
    }
    generated.push_back(best);
    token = best;
  }
  return generated;
}

std::vector<int32_t> Transformer::SampleDecode(int32_t first_token, int64_t steps,
                                               double temperature, int64_t top_k, Rng& rng,
                                               PagedKvSequence* seq, HiddenStateSink* sink) {
  CHECK_GT(temperature, 0.0);
  const int64_t vocab = config().vocab_size;
  std::vector<int32_t> generated;
  generated.reserve(static_cast<size_t>(steps));
  std::vector<std::pair<float, int32_t>> ranked(static_cast<size_t>(vocab));
  int32_t token = first_token;
  for (int64_t s = 0; s < steps; ++s) {
    Tensor out = Forward({token}, seq, sink);
    Tensor logits = Logits(out);
    for (int64_t v = 0; v < vocab; ++v) {
      ranked[static_cast<size_t>(v)] = {logits.at(0, v), static_cast<int32_t>(v)};
    }
    int64_t pool = vocab;
    if (top_k > 0 && top_k < vocab) {
      std::partial_sort(ranked.begin(), ranked.begin() + top_k, ranked.end(),
                        [](const auto& a, const auto& b) { return a.first > b.first; });
      pool = top_k;
    }
    // Softmax over the candidate pool at the given temperature.
    float max_logit = ranked[0].first;
    for (int64_t v = 1; v < pool; ++v) {
      max_logit = std::max(max_logit, ranked[static_cast<size_t>(v)].first);
    }
    double total = 0.0;
    std::vector<double> probs(static_cast<size_t>(pool));
    for (int64_t v = 0; v < pool; ++v) {
      probs[static_cast<size_t>(v)] =
          std::exp((ranked[static_cast<size_t>(v)].first - max_logit) / temperature);
      total += probs[static_cast<size_t>(v)];
    }
    double u = rng.NextDouble() * total;
    int32_t pick = ranked[static_cast<size_t>(pool - 1)].second;
    for (int64_t v = 0; v < pool; ++v) {
      u -= probs[static_cast<size_t>(v)];
      if (u <= 0.0) {
        pick = ranked[static_cast<size_t>(v)].second;
        break;
      }
    }
    generated.push_back(pick);
    token = pick;
  }
  return generated;
}

void Transformer::RestoreLayerKv(int64_t layer, const Tensor& hidden, const int32_t* positions,
                                 PagedKvSequence* seq) const {
  ProjectKv(layer, hidden, positions, seq->pool()->block_tokens(),
            [&](int64_t i) { return seq->MutableKvRows(layer, positions[i]); });
}

void Transformer::RestoreLayerKv(int64_t layer, const Tensor& hidden, const int32_t* positions,
                                 Tensor* k_out, Tensor* v_out) const {
  *k_out = Tensor({hidden.dim(0), config().kv_dim()});
  *v_out = Tensor({hidden.dim(0), config().kv_dim()});
  ProjectKv(layer, hidden, positions, kTensorTileRows,
            [&](int64_t i) { return std::pair{k_out->row(i), v_out->row(i)}; });
}

}  // namespace hcache
