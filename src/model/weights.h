// Model weights with deterministic random initialization.
//
// The functional plane never loads real checkpoints — the lossless-restoration property
// being verified is independent of weight values — so weights are sampled from a seeded
// Gaussian. Layouts match HuggingFace conventions: every projection is
// [out_features, in_features] and applied as x * W^T.
//
// Every projection is held only in packed form (PackedWeight), built once when the
// weights are sampled or loaded, so no GEMM re-packs a weight per call and no raw copy
// doubles the weights' memory. W_k and W_v are packed stacked, so the K/V projection
// that restoration runs is one GEMM, and so are SwiGLU's W_gate and W_up. The
// checkpoint file keeps the raw row-major layout, each matrix on its own: SaveToFile
// unpacks, LoadFromFile packs as it reads.
#ifndef HCACHE_SRC_MODEL_WEIGHTS_H_
#define HCACHE_SRC_MODEL_WEIGHTS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/model/config.h"
#include "src/tensor/gemm.h"
#include "src/tensor/tensor.h"

namespace hcache {

struct LayerWeights {
  // Attention.
  PackedWeight wq;   // [hidden, hidden]
  PackedWeight wkv;  // [W_k; W_v]: [2 * kv_dim, hidden], K columns first
  PackedWeight wo;   // [hidden, hidden]
  Tensor bq, bk, bv, bo;  // [.] biases, only for OPT-style models (empty otherwise)

  // Norms. attn_norm precedes attention, ffn_norm precedes the FFN (pre-norm models).
  Tensor attn_norm_weight;  // [hidden]
  Tensor attn_norm_bias;    // [hidden], LayerNorm only
  Tensor ffn_norm_weight;   // [hidden]
  Tensor ffn_norm_bias;     // [hidden], LayerNorm only

  // FFN. SwiGLU: w_gate_up is [W_gate; W_up], [2 * ffn, hidden] with the gate rows
  // first, so gate and up are one GEMM. GELU/ReLU: w_gate_up is W_up (fc1), [ffn, hidden].
  PackedWeight w_gate_up;
  PackedWeight w_down;  // [hidden, ffn]
  Tensor b_up;    // [ffn], OPT only
  Tensor b_down;  // [hidden], OPT only
};

struct ModelWeights {
  ModelConfig config;
  Tensor embedding;      // [vocab, hidden]
  Tensor pos_embedding;  // [max_position, hidden], learned-position models only
  std::vector<LayerWeights> layers;
  Tensor final_norm_weight;  // [hidden]
  Tensor final_norm_bias;    // [hidden], LayerNorm only
  PackedWeight lm_head;      // [vocab, hidden]

  // Samples every parameter from N(0, scale^2) with a deterministic per-tensor stream
  // derived from `seed`, so two processes with the same seed build identical models.
  static ModelWeights Random(const ModelConfig& config, uint64_t seed = 42);

  // Binary checkpoint round trip (simple versioned format: config header + raw FP32
  // row-major tensors, W_k and W_v as two tensors). Returns false on IO or format
  // errors.
  bool SaveToFile(const std::string& path) const;
  static bool LoadFromFile(const std::string& path, ModelWeights* out);
};

}  // namespace hcache

#endif  // HCACHE_SRC_MODEL_WEIGHTS_H_
