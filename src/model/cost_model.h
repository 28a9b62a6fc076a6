// Analytic restoration cost formulas from §3.2 of the paper.
//
// These express, per transformer layer and for a history of n tokens, the bytes moved
// and FLOPs spent by each restoration method. The paper states them for MHA models
// (kv_dim == hidden_dim) with the canonical FFN factor of 16·n·D²; we provide both the
// paper-faithful forms (used to regenerate the paper's figures) and exact forms derived
// from the concrete model config (used by the GQA/real-FFN extension benches).
//
// Conventions follow the paper: one multiply-add counts as 2 FLOPs; epsilon-sized terms
// (norms, residuals, position embeddings) are omitted.
#ifndef HCACHE_SRC_MODEL_COST_MODEL_H_
#define HCACHE_SRC_MODEL_COST_MODEL_H_

#include "src/model/config.h"
#include "src/storage/layout.h"

namespace hcache {

// --- I/O volume (bytes, per layer) ---

// Hidden states: n tokens × hidden_dim elements at the model's state dtype (FP16 in
// the paper's deployment, ModelConfig::state_dtype_bytes).
double HiddenIoBytesPerLayer(const ModelConfig& cfg, double n);

// Hidden states under an explicit storage codec: n tokens × CodecRowBytes. kFp16
// coincides with the 2-arg form for the default state_dtype_bytes == 2; kFp32 doubles
// it (raw-float transport), kInt8 roughly halves it again (per-row scale included).
double HiddenIoBytesPerLayer(const ModelConfig& cfg, double n, ChunkCodec codec);

// KV cache: n tokens × 2 × kv_dim elements (== 2× hidden for MHA — the paper's "half
// the size" claim).
double KvIoBytesPerLayer(const ModelConfig& cfg, double n);

// --- compute volume (FLOPs, per layer), paper-faithful MHA forms ---

// C_hidden: K/V projection from hidden states = 4·n·D².
double HiddenToKvFlopsPerLayer(const ModelConfig& cfg, double n);

// C_attn: full attention module = 8·n·D² + n²·D.
double AttnFlopsPerLayer(const ModelConfig& cfg, double n);

// C_ffn: feed-forward = 16·n·D².
double FfnFlopsPerLayer(const ModelConfig& cfg, double n);

// T_rec numerator: full token recomputation = 24·n·D² + n²·D.
double RecomputeFlopsPerLayer(const ModelConfig& cfg, double n);

// Relative compute speedup of HCache over recomputation = 6 + n / (4·D). The paper's
// ">= 6x" lower bound.
double TheoreticalComputeSpeedup(const ModelConfig& cfg, double n);

// --- exact forms from the concrete config (extensions; GQA- and FFN-shape-aware) ---

// K/V projection with the model's true kv_dim: 4·n·D·kv_dim.
double ExactHiddenToKvFlopsPerLayer(const ModelConfig& cfg, double n);

// FFN with the model's true ffn_dim (3 matrices for SwiGLU, 2 otherwise).
double ExactFfnFlopsPerLayer(const ModelConfig& cfg, double n);

}  // namespace hcache

#endif  // HCACHE_SRC_MODEL_COST_MODEL_H_
