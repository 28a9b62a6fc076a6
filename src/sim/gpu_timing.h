// GPU kernel-time model.
//
// Converts the §3.2 FLOP formulas into wall-clock on a given GPU. Two behaviours the
// paper leans on are modeled explicitly:
//
//   1. cuBLAS tile quantization (§4.1.1): GEMM time is a step function of the row
//      count — an m of 794 costs the same as the next tile multiple (1024 here). This
//      is why the paper rejects token-wise partitioning and fixes mini-batches at
//      "an optimized size in cuBLAS". Fig 13b plots exactly this step function.
//   2. A calibrated efficiency factor: dense GEMMs reach a fraction of peak FLOPS
//      (0.66 by calibration against the paper's Table 3 schedules).
//
// With tensor parallelism each GPU holds 1/tp of every projection, so per-GPU GEMM
// work divides by tp (the all-gather over NVLink is AllGatherTime in core/profiler.h).
#ifndef HCACHE_SRC_SIM_GPU_TIMING_H_
#define HCACHE_SRC_SIM_GPU_TIMING_H_

#include <cstdint>

#include "src/model/config.h"
#include "src/sim/hardware.h"

namespace hcache {

// Row-count granularity at which cuBLAS kernels on these GPUs run at full tile
// efficiency. 64 rows per CTA tile reproduces both halves of Fig 13: the visible step
// function of GEMM time vs token count (13b) and the ~12% token-wise partition penalty
// (13a), where the recompute share's row count lands mid-tile.
inline constexpr int64_t kCublasTileRows = 64;

// The "+round" ablation (Fig 13a) snaps the token split to this coarser kernel-friendly
// granularity (the paper rounds 794 -> 768).
inline constexpr int64_t kRoundUpGranularity = 256;

// Rounds a GEMM row count up to the tile the kernel actually executes.
int64_t RoundUpToTile(int64_t rows);

class GpuTimingModel {
 public:
  explicit GpuTimingModel(const GpuSpec& gpu, int tensor_parallel = 1);

  // Wall time of one [m,k]x[k,n] GEMM, including tile quantization and launch cost.
  double GemmTime(int64_t m, int64_t k, int64_t n) const;

  // Per-layer restoration compute: project n tokens' hidden states to K and V
  // (one [n, D] x [D, 2*kv_dim] GEMM) plus the RoPE/copy epsilon.
  double HiddenToKvTime(const ModelConfig& cfg, int64_t n) const;

  // Per-layer full prefill/recompute time for n tokens (paper's C_attn + C_ffn).
  double TokenRecomputeTimePerLayer(const ModelConfig& cfg, int64_t n) const;

  // Whole-model prefill time for an n-token chunk (used by the serving engine).
  double PrefillTime(const ModelConfig& cfg, int64_t n) const;

  // One decode iteration for a batch: memory-bound weight + KV traffic, plus launch
  // overheads. `total_context_tokens` is the sum of context lengths across the batch.
  double DecodeIterationTime(const ModelConfig& cfg, int64_t batch_size,
                             int64_t total_context_tokens) const;

  // Device-to-host snapshot of one layer's hidden states for n tokens (cudaMemcpy over
  // PCIe; the first stage of two-stage saving).
  double SnapshotTime(const ModelConfig& cfg, int64_t n) const;

  const GpuSpec& gpu() const { return gpu_; }
  int tensor_parallel() const { return tp_; }
  double effective_flops() const { return gpu_.peak_fp16_flops * gpu_.gemm_efficiency; }

 private:
  GpuSpec gpu_;
  int tp_;
};

// Approximate parameter count from a config (weights-traffic term of the decode model).
double ApproxParamCount(const ModelConfig& cfg);

}  // namespace hcache

#endif  // HCACHE_SRC_SIM_GPU_TIMING_H_
