// State-restoration executors (the systems half of the paper).
//
// Each method replays its restoration schedule on the discrete-event simulator using
// two serial resources per GPU — the compute stream and the transmission stream —
// exactly mirroring the paper's dedicated-CUDA-stream implementation (§5). The result
// records the makespan plus per-stream busy/bubble accounting, bytes moved, and FLOPs
// spent, which the benches turn into the paper's figures.
//
// Every layer-wise method is a set of per-source layer counts (recompute / hidden / KV)
// that PlanRestore orders — the same plan FunctionalHCache runs — and the DES times:
//   kRecompute   — DeepSpeed-MII baseline: every layer recomputed from tokens
//                  (compute only).
//   kKvOffload   — AttentionStore baseline: every layer's KV streamed in (IO only).
//   kHCache      — the solver's scheme: hidden states + bubble-free complement (the
//                  full system).
//   kHCacheOnly  — every layer from hidden states, no scheduler (ablation "HCache-O",
//                  Fig 12).
//   kNaiveHybrid — SolveNaiveHybrid's recompute + KV split, no hidden states
//                  (ablation, Fig 12).
//   kIdeal       — state already on GPU; restoration is free.
// Bytes are the sum of each step's RestoreStepReadBytes (the figure the engine's
// run-ahead budget uses too); FLOPs are count × per-layer cost for each source.
#ifndef HCACHE_SRC_CORE_RESTORER_H_
#define HCACHE_SRC_CORE_RESTORER_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/core/partition.h"
#include "src/core/profiler.h"
#include "src/model/config.h"
#include "src/sim/hardware.h"
#include "src/storage/layout.h"

namespace hcache {

enum class RestoreMethod {
  kRecompute,
  kKvOffload,
  kHCache,
  kHCacheOnly,
  kNaiveHybrid,
  kIdeal,
};

const char* RestoreMethodName(RestoreMethod m);

struct RestoreResult {
  RestoreMethod method = RestoreMethod::kIdeal;
  int64_t history_tokens = 0;
  double total_time = 0;      // makespan, seconds
  double compute_busy = 0;    // compute-stream busy seconds
  double io_busy = 0;         // transmission-stream busy seconds
  double compute_bubble = 0;  // makespan - compute_busy
  double io_bubble = 0;       // makespan - io_busy
  double bytes_read = 0;         // from the storage backend (all GPUs)
  double hidden_bytes_read = 0;  // the hidden-state transport's share of bytes_read —
                                 // the stream the storage codec scales (KV-offload
                                 // layers always move FP16 KV)
  double flops = 0;              // restoration compute (all GPUs)
  PartitionScheme scheme;     // meaningful for kHCache / kHCacheOnly

  // Restoration speed (tokens/second) — the §6.2 sensitivity metric.
  double TokensPerSecond() const;
  std::string ToString() const;
};

class Restorer {
 public:
  // `codec` is the hidden-state storage encoding the transmission stream pays for;
  // the default kFp16 matches the paper's FP16 transport (KV offload always moves
  // FP16 KV, independent of the hidden codec).
  Restorer(const Platform& platform, const ModelConfig& cfg,
           StorageLayout layout = StorageLayout::kLayerChunked,
           int64_t chunk_tokens = kDefaultChunkTokens,
           ChunkCodec codec = ChunkCodec::kFp16);

  // Profiles and solves the bubble-free partition for this history length.
  LayerProfile Profile(int64_t history_tokens) const;
  PartitionScheme Schedule(int64_t history_tokens) const;

  // Executes `method` on the DES for a history of `history_tokens`.
  RestoreResult Restore(RestoreMethod method, int64_t history_tokens) const;

  // Fig 13 ablation: token-wise partitioned restoration (optionally tile-rounded).
  RestoreResult RestoreTokenWise(int64_t history_tokens, bool round_to_tile) const;

  // §5 pipeline parallelism: the model's layers are split into `num_stages` contiguous
  // slices, one per GPU; each GPU fetches the hidden states of its own layers and
  // projects them concurrently (layer restorations are independent). The platform's
  // GPUs/SSDs divide evenly across stages. Makespan = the slowest stage.
  RestoreResult RestorePipelineParallel(RestoreMethod method, int64_t history_tokens,
                                        int num_stages) const;

  const Platform& platform() const { return platform_; }
  const ModelConfig& config() const { return cfg_; }
  ChunkCodec codec() const { return codec_; }

 private:
  // Runs a layer-granular pipeline: `pre_compute` tasks start immediately on the
  // compute stream; each of `io_tasks` occupies the transmission stream in order and,
  // if its paired compute duration is positive, enqueues that compute task at IO
  // completion. Fills `r`'s makespan and per-stream busy/bubble accounting.
  void RunPipeline(const std::vector<double>& pre_compute,
                   const std::vector<std::pair<double, double>>& io_tasks,
                   RestoreResult* r) const;

  double PipelineFillLatency() const;

  Platform platform_;
  ModelConfig cfg_;
  StorageLayout layout_;
  int64_t chunk_tokens_;
  ChunkCodec codec_;
};

}  // namespace hcache

#endif  // HCACHE_SRC_CORE_RESTORER_H_
