// The bubble-free state-partition algorithm (paper §4.1).
//
// Given the offline profile, choose how many layers restore via hidden states (L_H) and
// how many via the resource-complementary method (L_O) so that the compute stream and
// the transmission stream finish simultaneously:
//
//   argmin_{L_H, L_O}  max(C_H*L_H, IO_H*L_H + IO_KV*L_O)   s.t. L_H + L_O = N_layers
//
// Regime selection follows the paper: when C_H > IO_H (compute-bound; transmission has
// slack) the complement is KV offload — its layers cost IO only. When C_H <= IO_H
// (IO-bound) the complement is token recomputation — its layers cost compute only.
//
// Token-wise partitioning (Fig 8a/8c) is implemented for the Fig 13 ablation, including
// the tile round-up variant; layer-wise is what HCache ships (§4.1.1 explains why).
//
// Every layer-wise schedule — the solver's, the baselines', the engine's — reduces to
// per-source layer counts, and PlanRestore turns those into the one restore order the
// DES times and FunctionalHCache runs.
#ifndef HCACHE_SRC_CORE_PARTITION_H_
#define HCACHE_SRC_CORE_PARTITION_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/core/profiler.h"

namespace hcache {

enum class ComplementMethod { kNone, kKvOffload, kRecompute };

const char* ComplementName(ComplementMethod m);

// Where one layer's KV comes from during restoration.
enum class LayerSource { kRecompute, kHidden, kKv };

// Layers restored from each source.
struct LayerSources {
  int64_t recompute = 0;
  int64_t hidden = 0;
  int64_t kv = 0;
};

struct RestoreStep {
  int64_t layer = 0;
  LayerSource source = LayerSource::kHidden;
};

// The restore order (§4.1.2): recompute layers [0, r) first — recomputation needs the
// layers below it — then hidden-state layers [r, r + h), then KV-offloaded layers
// [r + h, num_layers), whose transfers fill the transmission slack behind the hidden
// reads. CHECKs that the counts cover `num_layers` exactly.
std::vector<RestoreStep> PlanRestore(const LayerSources& sources, int64_t num_layers);

// Bytes `step` reads from storage to restore `n` tokens when its rows are stored under
// `codec`: n rows of the layer's stored width (hidden_dim for a hidden layer, the
// [K | V] pair, 2 * kv_dim, for a KV layer) at CodecRowBytes each; chunk headers are
// not counted. A recomputed layer reads nothing.
int64_t RestoreStepReadBytes(const ModelConfig& cfg, const RestoreStep& step, int64_t n,
                             ChunkCodec codec);

struct PartitionScheme {
  int64_t layers_hidden = 0;  // L_H: restored from hidden states
  int64_t layers_other = 0;   // L_O: restored via `complement`
  ComplementMethod complement = ComplementMethod::kNone;

  // Predicted makespan of the schedule under the profile it was derived from.
  double predicted_time = 0;
  // Predicted idle time on the slower-finishing stream (0 when perfectly bubble-free).
  double predicted_bubble = 0;

  // The per-source counts: L_O goes to `complement`. CHECKs that kNone has L_O == 0.
  LayerSources Sources() const;

  // Per-token storage footprint of this schedule in *stored elements* (the unit the
  // paper's Table 3 reports): hidden layers store D, KV layers store 2D, recompute
  // layers store nothing.
  int64_t StoredElementsPerToken(const ModelConfig& cfg) const;
  int64_t StoredBytesPerToken(const ModelConfig& cfg) const;

  std::string ToString() const;
};

// Layer-wise bubble-free solve (the shipped algorithm, §4.1.2).
PartitionScheme SolveLayerWise(const LayerProfile& profile, int64_t num_layers);

// Token-wise partition (ablation): split the n-token history into a hidden-state part
// and a KV-offload part within every layer. When `round_to_tile`, the hidden token
// count is rounded to the nearest cuBLAS-friendly multiple (Fig 13's "+round" variant).
struct TokenPartition {
  int64_t tokens_hidden = 0;
  int64_t tokens_other = 0;
  double predicted_time = 0;  // per-layer steady-state stage time
};
TokenPartition SolveTokenWise(const LayerProfile& profile, int64_t history_tokens,
                              bool round_to_tile);

// Reference schedule for the NaiveHybrid baseline (§6.3.1): mix token recomputation
// and KV offload only — no hidden states. PartitionScheme cannot express it (it pairs
// hidden layers with one complement), so the solver returns the counts directly.
struct NaiveHybridScheme {
  LayerSources sources;  // recompute + kv; hidden stays 0
  double predicted_time = 0;
};
NaiveHybridScheme SolveNaiveHybrid(const LayerProfile& profile, int64_t num_layers);

}  // namespace hcache

#endif  // HCACHE_SRC_CORE_PARTITION_H_
