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

// Query rows per attention work item. Only the work split depends on it: every
// (row, head) is computed in the same order whichever item holds it.
constexpr int64_t kAttentionRowChunk = 8;

// (row, head) pairs that share one pass over a packed K tile (independent q.k chains
// that hide the add latency, as the GEMM microkernel's four rows do) or over V's rows.
constexpr int64_t kTilePairs = 4;

// One query row and head of an attention work item.
struct AttentionPair {
  const float* q;  // the head's query slice
  float* out;      // the head's output slice, zero on entry
  float* scores;   // `keys` floats of scratch: the scores, then the softmax weights
  int64_t keys;    // causal length: the row attends to keys 0..keys-1
  float slope;     // the head's ALiBi slope (0 without ALiBi)
};

// dots[r] lane j = sum over d ascending from 0 of q_r[d] * key_j[d] for the kNr keys
// of `tile` ([head_dim][kNr], PackRows' panel form) and P pairs: each lane is the
// serial per-key dot chain. Each pair's chain is textually the same in every
// instantiation, so a score does not depend on which pairs share the pass. Each
// product is rounded before it is added (no multiply-add contraction), so the scores
// are the same bits in every build: GCC computes the scalar chain that way too, as an
// in-order vector reduction, when it vectorizes it for -march=native.
template <int P>
__attribute__((optimize("fp-contract=off"))) void ScoreTileImpl(
    AttentionPair* const* pairs, const float* tile, int64_t head_dim, VecNr* dots) {
  VecNr acc0 = {}, acc1 = {}, acc2 = {}, acc3 = {};
  for (int64_t d = 0; d < head_dim; ++d) {
    VecNr k;
    std::memcpy(&k, tile + d * kNr, sizeof(k));
    acc0 += pairs[0]->q[d] * k;
    if constexpr (P > 1) acc1 += pairs[1]->q[d] * k;
    if constexpr (P > 2) acc2 += pairs[2]->q[d] * k;
    if constexpr (P > 3) acc3 += pairs[3]->q[d] * k;
  }
  dots[0] = acc0;
  if constexpr (P > 1) dots[1] = acc1;
  if constexpr (P > 2) dots[2] = acc2;
  if constexpr (P > 3) dots[3] = acc3;
}

static_assert(kTilePairs == 4, "ScoreTileImpl unrolls up to four pairs");

void ScoreTile(AttentionPair* const* pairs, int64_t m, const float* tile, int64_t head_dim,
               VecNr* dots) {
  switch (m) {
    case 0: break;
    case 1: ScoreTileImpl<1>(pairs, tile, head_dim, dots); break;
    case 2: ScoreTileImpl<2>(pairs, tile, head_dim, dots); break;
    case 3: ScoreTileImpl<3>(pairs, tile, head_dim, dots); break;
    default: ScoreTileImpl<4>(pairs, tile, head_dim, dots); break;
  }
}

// Stores the scores of keys t0.. that lie in the pair's causal range from one tile's
// dot products: dot * scale, less the ALiBi distance penalty.
void StoreScores(const VecNr& dots, int64_t t0, float scale, bool alibi,
                 const AttentionPair& pair) {
  float lanes[kNr];
  std::memcpy(lanes, &dots, sizeof(lanes));
  const int64_t pos = pair.keys - 1;
  const int64_t lanes_used = std::min(kNr, pair.keys - t0);
  for (int64_t j = 0; j < lanes_used; ++j) {
    float s = lanes[j] * scale;
    if (alibi) {
      // Linear distance penalty on the score; K stays position-free, which is why
      // ALiBi models restore with a bare projection.
      s -= pair.slope * static_cast<float>(pos - (t0 + j));
    }
    pair.scores[t0 + j] = s;
  }
}

// For P pairs, continues out[d + x] += weight_j * v[j][d + x] over keys j in [j0, j1)
// ascending and x < C * kNr, every element's chain held in a vector register between
// the load from and the store to the pair's output. The pairs share each V row's loads.
template <int P, int C>
void ValueTile(const AttentionPair* pairs, const float* const* v, int64_t j0, int64_t j1,
               int64_t d) {
  VecNr acc[P][C];
  for (int r = 0; r < P; ++r) {
    std::memcpy(acc[r], pairs[r].out + d, sizeof(acc[r]));
  }
  for (int64_t j = j0; j < j1; ++j) {
    VecNr x[C];
    std::memcpy(x, v[j] + d, sizeof(x));
    for (int r = 0; r < P; ++r) {
      const float a = pairs[r].scores[j];
      for (int c = 0; c < C; ++c) {
        acc[r][c] += a * x[c];
      }
    }
  }
  for (int r = 0; r < P; ++r) {
    std::memcpy(pairs[r].out + d, acc[r], sizeof(acc[r]));
  }
}

// ValueTile over every whole kNr-lane vector of a head, up to four at a time.
template <int P>
void ValueTiles(const AttentionPair* pairs, const float* const* v, int64_t j0, int64_t j1,
                int64_t head_dim) {
  int64_t d = 0;
  for (; d + 4 * kNr <= head_dim; d += 4 * kNr) {
    ValueTile<P, 4>(pairs, v, j0, j1, d);
  }
  switch ((head_dim - d) / kNr) {
    case 3: ValueTile<P, 3>(pairs, v, j0, j1, d); break;
    case 2: ValueTile<P, 2>(pairs, v, j0, j1, d); break;
    case 1: ValueTile<P, 1>(pairs, v, j0, j1, d); break;
    default: break;
  }
}

// Each pair's out[d] = sum over j ascending from 0 of weight_j * v[j][d] over its own
// causal range: the serial `out[d] += a * v[d]` chains, one per element. Each group of
// kTilePairs pairs runs its shared keys together, then finishes its longer chains one
// pair at a time; the head_dim % kNr tail is scalar.
void ValueSums(const AttentionPair* pairs, int64_t num_pairs, const float* const* v,
               int64_t head_dim) {
  for (int64_t p = 0; p < num_pairs; p += kTilePairs) {
    const int64_t m = std::min(kTilePairs, num_pairs - p);
    int64_t shared = 0;
    if (m == kTilePairs) {
      shared = pairs[p].keys;
      for (int64_t r = 1; r < m; ++r) {
        shared = std::min(shared, pairs[p + r].keys);
      }
      ValueTiles<kTilePairs>(pairs + p, v, 0, shared, head_dim);
    }
    for (int64_t r = p; r < p + m; ++r) {
      ValueTiles<1>(pairs + r, v, shared, pairs[r].keys, head_dim);
    }
  }
  for (int64_t r = 0; r < num_pairs; ++r) {
    for (int64_t d = head_dim / kNr * kNr; d < head_dim; ++d) {
      float acc = 0.0f;
      for (int64_t j = 0; j < pairs[r].keys; ++j) {
        acc += pairs[r].scores[j] * v[j][d];
      }
      pairs[r].out[d] = acc;
    }
  }
}

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
void Transformer::ProjectKv(int64_t layer, const float* hidden, int64_t n,
                            const int32_t* positions, int64_t tile_rows,
                            const Dest& dest) const {
  const ModelConfig& cfg = config();
  CHECK_GE(layer, 0);
  CHECK_LT(layer, cfg.num_layers);
  CHECK_GE(n, 0);
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
      const float* in = hidden + (r0 + r) * dim;
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
  const int64_t kv_dim = cfg.kv_dim();
  const int64_t kv_heads = cfg.num_kv_heads;
  // GQA: query head h reads KV head h / group.
  const int64_t group = cfg.num_heads / kv_heads;
  const float scale = 1.0f / std::sqrt(static_cast<float>(head_dim));
  const bool alibi = cfg.position == PositionKind::kAlibi;
  const int64_t chunks = (n + kAttentionRowChunk - 1) / kAttentionRowChunk;

  Tensor out({n, cfg.hidden_dim});
  // One work item: the query heads of KV head `kv_head` over rows [r0, r1). Its
  // (row, head) pairs share each packed K tile and write only their own slices of `out`.
  const auto item = [&](int64_t kv_head, int64_t r0, int64_t r1) {
    // Grown to the largest item once per thread, then reused.
    thread_local std::vector<AttentionPair> pairs;
    thread_local std::vector<const float*> k_rows, v_rows;
    thread_local std::vector<float> tile, scores;
    pairs.clear();
    int64_t keys = 0;  // the longest causal range among the item's rows
    for (int64_t r = r0; r < r1; ++r) {
      // Row r attends to absolute positions 0..positions[r] inclusive.
      keys = std::max<int64_t>(keys, positions[r] + 1);
      for (int64_t h = kv_head * group; h < (kv_head + 1) * group; ++h) {
        pairs.push_back({q.row(r) + h * head_dim, out.row(r) + h * head_dim, nullptr,
                         positions[r] + 1, alibi ? AlibiSlope(h) : 0.0f});
      }
    }
    const int64_t num_pairs = static_cast<int64_t>(pairs.size());
    scores.resize(static_cast<size_t>(num_pairs * keys));
    for (int64_t p = 0; p < num_pairs; ++p) {
      pairs[static_cast<size_t>(p)].scores = scores.data() + p * keys;
    }
    // The KV head's K and V rows, walked one pool block at a time.
    k_rows.resize(static_cast<size_t>(keys));
    v_rows.resize(static_cast<size_t>(keys));
    for (int64_t j = 0; j < keys;) {
      const KvBlockRows block = seq.BlockRows(layer, j);
      for (; j < std::min(keys, block.first + block.rows); ++j) {
        const int64_t off = (j - block.first) * kv_dim + kv_head * head_dim;
        k_rows[static_cast<size_t>(j)] = block.k + off;
        v_rows[static_cast<size_t>(j)] = block.v + off;
      }
    }

    // Scores, one kNr-key tile at a time: the tile is packed once, and every pair whose
    // causal range reaches it reads it.
    tile.resize(static_cast<size_t>(head_dim * kNr));
    for (int64_t t0 = 0; t0 < keys; t0 += kNr) {
      PackRows(
          std::min(kNr, keys - t0), head_dim,
          [&](int64_t j) { return k_rows[static_cast<size_t>(t0 + j)]; }, tile.data());
      for (int64_t p = 0; p < num_pairs;) {
        AttentionPair* batch[kTilePairs];
        int64_t m = 0;
        for (; p < num_pairs && m < kTilePairs; ++p) {
          if (pairs[static_cast<size_t>(p)].keys > t0) {
            batch[m++] = &pairs[static_cast<size_t>(p)];
          }
        }
        VecNr dots[kTilePairs];
        ScoreTile(batch, m, tile.data(), head_dim, dots);
        for (int64_t r = 0; r < m; ++r) {
          StoreScores(dots[r], t0, scale, alibi, *batch[r]);
        }
      }
    }
    for (const AttentionPair& pair : pairs) {
      SoftmaxRow(pair.scores, pair.keys);
    }
    ValueSums(pairs.data(), num_pairs, v_rows.data(), head_dim);
  };
  // Items run longest first (the last row chunk attends over the most keys) to balance
  // the causal skew; a decode step (one chunk) spreads its KV heads across the pool.
  const auto run_items = [&](int64_t w0, int64_t w1) {
    for (int64_t w = w0; w < w1; ++w) {
      const int64_t chunk = chunks - 1 - w / kv_heads;
      item(w % kv_heads, chunk * kAttentionRowChunk,
           std::min(n, (chunk + 1) * kAttentionRowChunk));
    }
  };
  // One reference capture fits std::function's in-place storage: no allocation.
  ParallelFor(0, chunks * kv_heads, 1, [&run_items](int64_t w0, int64_t w1) {
    run_items(w0, w1);
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
  CHECK_EQ(hidden.rank(), 2);
  CHECK_EQ(hidden.dim(1), config().hidden_dim);
  RestoreLayerKv(layer, hidden.data(), hidden.dim(0), positions, seq);
}

void Transformer::RestoreLayerKv(int64_t layer, const float* hidden, int64_t n,
                                 const int32_t* positions, PagedKvSequence* seq) const {
  ProjectKv(layer, hidden, n, positions, seq->pool()->block_tokens(),
            [&](int64_t i) { return seq->MutableKvRows(layer, positions[i]); });
}

void Transformer::RestoreLayerKv(int64_t layer, const Tensor& hidden, const int32_t* positions,
                                 Tensor* k_out, Tensor* v_out) const {
  CHECK_EQ(hidden.rank(), 2);
  CHECK_EQ(hidden.dim(1), config().hidden_dim);
  *k_out = Tensor({hidden.dim(0), config().kv_dim()});
  *v_out = Tensor({hidden.dim(0), config().kv_dim()});
  ProjectKv(layer, hidden.data(), hidden.dim(0), positions, kTensorTileRows,
            [&](int64_t i) { return std::pair{k_out->row(i), v_out->row(i)}; });
}

}  // namespace hcache
