// A real (CPU, FP32) decoder-only transformer forward pass over the paged KV cache,
// with the hidden-state capture hook HCache needs.
//
// This is the functional plane of the reproduction: everything the paper claims about
// restoring KV from hidden states is checked against this implementation bit-for-bit.
// Determinism contract: all kernels accumulate in a fixed, batch-size-independent order
// per output row, so computing K/V for a token during prefill and recomputing it later
// from the saved attention input produces *identical* floats. Softmax and SwiGLU take e^x
// from one vector kernel of this repo (ExpRow in ops.h), not from libm, so no forward
// bit depends on which expf variant the host's glibc picks; the RoPE table (powf,
// sincosf) and GELU (tanhf) still come from libm.
//
// Structure (pre-norm, as in Llama2 and OPT):
//   x   = Norm1(h_L)  --(capture: this is HCache's hidden state for layer L)-->
//   q,k,v = x W{q,k,v}^T (+bias)     k,q get RoPE for Llama-family models
//   KV  -> paged cache
//   h   = h_L + (MHA(q, KV) W_o^T)
//   h_{L+1} = h + FFN(Norm2(h))      SwiGLU: one GEMM over [W_gate; W_up]
//
// The saved row is the attention input x, so a restore computes the paper's K = W_k x
// and V = W_v x (§3.2) with no norm of its own. The K/V step is one fused call shared
// by the forward pass and restoration: per row tile aligned to the pool's blocks it
// runs one GEMM over the packed [W_k; W_v] straight from the caller's rows, and in the
// epilogue adds the biases, rotates K from the RoPE table and writes each row into its
// K and V pool pages. The forward pass writes its KV through RestoreLayerKv from the
// same x it saves and projects Q from, so restoring a layer from its saved rows lands
// the same bits by construction.
//
// Attention is one tiled kernel for prefill and decode. Its per-element order (stated
// at Transformer::Attention) never depends on how many rows a call carries, which rows
// share a work item, the pool's block size or the thread count, so a prefill equals the
// same tokens decoded one by one, bit for bit.
#ifndef HCACHE_SRC_MODEL_TRANSFORMER_H_
#define HCACHE_SRC_MODEL_TRANSFORMER_H_

#include <cstdint>
#include <vector>

#include "src/common/rng.h"
#include "src/model/kv_cache.h"
#include "src/model/weights.h"
#include "src/tensor/rope.h"
#include "src/tensor/tensor.h"

namespace hcache {

// Receives each layer's attention input during a forward pass. HCache's saving path
// implements this to snapshot hidden states; passing nullptr disables capture.
class HiddenStateSink {
 public:
  virtual ~HiddenStateSink() = default;

  // `hidden` is [n, hidden_dim]: the attention input of `layer` (its input after the
  // pre-norm, the rows Q, K and V are projected from) for the n tokens whose absolute
  // positions are positions[0..n). Called once per layer per forward pass, in layer
  // order — the "layer-before-token" generation order of Fig 6a. The rows are valid
  // only during the call.
  virtual void OnLayerInput(int64_t layer, const Tensor& hidden, const int32_t* positions,
                            int64_t n) = 0;
};

class Transformer {
 public:
  // `weights` must outlive the transformer.
  explicit Transformer(const ModelWeights* weights);

  const ModelConfig& config() const { return weights_->config; }

  // Runs the forward pass for `tokens` appended at positions
  // [seq->num_tokens(), seq->num_tokens() + tokens.size()). Writes K/V into `seq`
  // (capacity is allocated here; CHECK-fails if the pool is exhausted — serving-level
  // admission control is responsible for not letting that happen) and commits the
  // tokens. Returns the final-norm output activations [n, hidden_dim].
  //
  // Works for both phases: prefill (n > 1) and decode (n == 1). The sequence's existing
  // KV must be present (seq->has_kv()); restore first if it was evicted.
  Tensor Forward(const std::vector<int32_t>& tokens, PagedKvSequence* seq,
                 HiddenStateSink* sink = nullptr);

  // Runs only the first `num_layers` transformer layers, writing their K/V, and
  // returns the *un-normalized* input activations to layer `num_layers`. This is the
  // token-recomputation half of a mixed restoration schedule (§4.1.2: "the first L_O
  // layers are restored with token recomputation"): it rebuilds the early layers' KV
  // from raw tokens while later layers restore from hidden states.
  Tensor ForwardPartial(const std::vector<int32_t>& tokens, PagedKvSequence* seq,
                        int64_t num_layers, HiddenStateSink* sink = nullptr);

  // Projects final activations to vocabulary logits; `hidden` is [n, hidden_dim].
  Tensor Logits(const Tensor& hidden) const;

  // Greedy-decodes `steps` tokens starting from the sequence's current state; the
  // caller provides the first input token. Returns the generated token ids. Used by
  // tests to prove generation after restoration matches generation without eviction.
  std::vector<int32_t> GreedyDecode(int32_t first_token, int64_t steps, PagedKvSequence* seq,
                                    HiddenStateSink* sink = nullptr);

  // Stochastic decoding with temperature + top-k, driven by the caller's seeded RNG.
  // Deterministic for a given (rng state, KV state): bit-identical restored KV plus an
  // equal seed reproduce the exact same sampled text — the user-visible form of the
  // lossless-restoration guarantee. `top_k == 0` disables the top-k filter.
  std::vector<int32_t> SampleDecode(int32_t first_token, int64_t steps, double temperature,
                                    int64_t top_k, Rng& rng, PagedKvSequence* seq,
                                    HiddenStateSink* sink = nullptr);

  // === The HCache restoration primitive (paper §3.1) ===
  // Computes layer `layer`'s K/V for tokens with the given `positions` from that
  // layer's saved attention input `hidden` [n, hidden_dim] (what OnLayerInput saw),
  // applying exactly the operations the forward pass applies (projection, bias, RoPE
  // with original positions), and writes each token's rows into `seq`'s pool pages at
  // its position. The
  // sequence's capacity must cover every position. Allocates nothing in steady state.
  // Bit-identical to what Forward wrote for those tokens: Forward writes through it.
  void RestoreLayerKv(int64_t layer, const Tensor& hidden, const int32_t* positions,
                      PagedKvSequence* seq) const;

  // The same from `n` row-major hidden rows at `hidden`, for callers that stage the
  // rows in buffers of their own (the restore pipeline's reused staging slots).
  void RestoreLayerKv(int64_t layer, const float* hidden, int64_t n, const int32_t* positions,
                      PagedKvSequence* seq) const;

  // The same projection into fresh [n, kv_dim] tensors instead of pool pages.
  void RestoreLayerKv(int64_t layer, const Tensor& hidden, const int32_t* positions,
                      Tensor* k_out, Tensor* v_out) const;

  // Causal multi-head attention of `q` [n, hidden_dim] (RoPE already applied) over
  // `layer`'s K/V in `seq`: row i attends to positions 0..positions[i], every one of
  // which must be committed. Returns [n, hidden_dim], before the output projection.
  //
  // Per-element order (what makes a prefill equal the same tokens decoded one by one,
  // at any chunking, block size or thread count):
  //   score_j = (sum over d ascending from 0 of q[d] * k_j[d]) * scale, minus the ALiBi
  //             distance penalty; one chain per key, started from 0, each product
  //             rounded before it is added (never contracted into a multiply-add);
  //   a       = SoftmaxRow(score_0..score_pos);
  //   out[d]  = sum over j ascending from 0 to pos of a_j * v_j[d]; one chain per element,
  //             started from 0, stopping at the row's own causal length.
  // The kernel work-shares (KV head, chunk of query rows) items on the shared pool, so
  // a decode step spreads its heads across threads. An item walks the pool one block at
  // a time, packs each run of kNr keys once into a [head_dim][kNr] tile (PackRows'
  // panel form) for all its rows and GQA group heads, computes q.k with one key per
  // vector lane, and holds the V sums in vector registers. No step depends on which
  // rows share an item, so one formula serves prefill and decode.
  Tensor Attention(int64_t layer, const Tensor& q, const PagedKvSequence& seq,
                   const int32_t* positions, int64_t n) const;

 private:
  Tensor Embed(const std::vector<int32_t>& tokens, const int32_t* positions) const;
  void Normalize(const Tensor& x, const Tensor& weight, const Tensor& bias, Tensor* out) const;
  // The fused K/V projection behind every RestoreLayerKv form, over `n` attention-input
  // rows of hidden_dim floats at `hidden`. Works in row tiles of `tile_rows` whose
  // boundaries fall where positions[i] % tile_rows == 0 (pool blocks, for contiguous
  // positions); per tile it runs one GEMM over the packed [W_k; W_v] that reads the
  // tile's rows in place and, in the epilogue, adds the biases, rotates K from the
  // RoPE table and stores row i through dest(i), which returns its {K row, V row}.
  // Tiles work-share on the pool. A call with fewer than tile_rows rows per pool
  // participant (a decode step, a short prefill) runs all its rows as one GEMM that
  // work-shares its columns instead.
  template <typename Dest>
  void ProjectKv(int64_t layer, const float* hidden, int64_t n, const int32_t* positions,
                 int64_t tile_rows, const Dest& dest) const;
  float AlibiSlope(int64_t head) const;
  Tensor Ffn(const LayerWeights& lw, const Tensor& x) const;
  static void AddBiasRows(Tensor& t, const Tensor& bias);

  const ModelWeights* weights_;
  RopeTable rope_;  // up to max_position; RoPE models only
};

}  // namespace hcache

#endif  // HCACHE_SRC_MODEL_TRANSFORMER_H_
