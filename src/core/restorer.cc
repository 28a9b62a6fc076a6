#include "src/core/restorer.h"

#include <algorithm>
#include <cstdio>
#include <utility>
#include <vector>

#include "src/common/logging.h"
#include "src/model/cost_model.h"
#include "src/sim/gpu_timing.h"
#include "src/storage/io_timing.h"

namespace hcache {

const char* RestoreMethodName(RestoreMethod m) {
  switch (m) {
    case RestoreMethod::kRecompute:
      return "Recompute";
    case RestoreMethod::kKvOffload:
      return "KV-Offload";
    case RestoreMethod::kHCache:
      return "HCache";
    case RestoreMethod::kHCacheOnly:
      return "HCache-O";
    case RestoreMethod::kNaiveHybrid:
      return "NaiveHybrid";
    case RestoreMethod::kIdeal:
      return "Ideal";
  }
  return "?";
}

double RestoreResult::TokensPerSecond() const {
  if (total_time <= 0) {
    return 0.0;
  }
  return static_cast<double>(history_tokens) / total_time;
}

std::string RestoreResult::ToString() const {
  char buf[192];
  std::snprintf(buf, sizeof(buf),
                "%-11s n=%-6lld t=%8.2fms speed=%7.1fK tok/s  compute=%6.2fms io=%6.2fms "
                "bubble(c/io)=%5.2f/%5.2fms",
                RestoreMethodName(method), static_cast<long long>(history_tokens),
                total_time * 1e3, TokensPerSecond() / 1e3, compute_busy * 1e3, io_busy * 1e3,
                compute_bubble * 1e3, io_bubble * 1e3);
  return buf;
}

Restorer::Restorer(const Platform& platform, const ModelConfig& cfg, int64_t chunk_tokens,
                   ChunkCodec codec)
    : platform_(platform), cfg_(cfg), chunk_tokens_(chunk_tokens), codec_(codec) {}

LayerProfile Restorer::Profile(int64_t history_tokens) const {
  return ProfileLayer(platform_, cfg_, history_tokens, chunk_tokens_, codec_);
}

PartitionScheme Restorer::Schedule(int64_t history_tokens) const {
  return SolveLayerWise(Profile(history_tokens), cfg_.num_layers);
}

double Restorer::PipelineFillLatency() const {
  return StorageIoModel(platform_).DeviceLatency();
}

void Restorer::RunPipeline(const std::vector<double>& pre_compute,
                           const std::vector<std::pair<double, double>>& io_tasks,
                           RestoreResult* r) const {
  // Two-stage flow shop: each stream's `*_free` is the time it next goes idle.
  double compute_free = 0.0;
  double compute_busy = 0.0;
  for (double d : pre_compute) {
    CHECK_GE(d, 0.0);
    compute_free += d;
    compute_busy += d;
  }
  double io_free = 0.0;
  double io_busy = 0.0;
  bool first = true;
  for (const auto& [io_dur, compute_dur] : io_tasks) {
    const double dur = io_dur + (first ? PipelineFillLatency() : 0.0);
    first = false;
    CHECK_GE(dur, 0.0);
    io_free += dur;
    io_busy += dur;
    if (compute_dur > 0) {
      compute_free = std::max(io_free, compute_free) + compute_dur;
      compute_busy += compute_dur;
    }
  }
  r->total_time = std::max(compute_free, io_free);
  r->compute_busy = compute_busy;
  r->io_busy = io_busy;
  r->compute_bubble = r->total_time - compute_busy;
  r->io_bubble = r->total_time - io_busy;
}

RestoreResult Restorer::Restore(RestoreMethod method, int64_t history_tokens) const {
  CHECK_GT(history_tokens, 0);
  const LayerProfile p = Profile(history_tokens);
  const double n = static_cast<double>(history_tokens);
  const int64_t nl = cfg_.num_layers;

  RestoreResult r;
  r.method = method;
  r.history_tokens = history_tokens;

  LayerSources src;
  switch (method) {
    case RestoreMethod::kIdeal:
      return r;
    case RestoreMethod::kRecompute:
      src.recompute = nl;
      break;
    case RestoreMethod::kKvOffload:
      src.kv = nl;
      break;
    case RestoreMethod::kHCacheOnly:
      r.scheme.layers_hidden = nl;
      src = r.scheme.Sources();
      break;
    case RestoreMethod::kHCache:
      // SolveLayerWise performs plan selection internally (mixed schedule vs pure
      // strategies); execute whatever plan it returns.
      r.scheme = SolveLayerWise(p, nl);
      src = r.scheme.Sources();
      break;
    case RestoreMethod::kNaiveHybrid:
      src = SolveNaiveHybrid(p, nl).sources;
      break;
  }

  // Recompute layers start on the compute stream at t=0 while the transfers queue back
  // to back: each hidden-state transfer triggers its projection, and the KV transfers
  // fill the transmission slack behind them (§4.1.2, Fig 8d).
  // Bytes are each step's own read bytes: hidden layers under the hidden codec,
  // KV-offload layers always as FP16 KV. flops/bytes are whole-model quantities: under
  // tensor parallelism every GPU works on a shard, so the totals already cover the
  // whole system; the all-gather moves data over NVLink, not storage, and does not add
  // to bytes_read.
  std::vector<double> pre;
  std::vector<std::pair<double, double>> io_tasks;
  int64_t hidden_bytes = 0;
  int64_t kv_bytes = 0;
  for (const RestoreStep& step : PlanRestore(src, nl)) {
    switch (step.source) {
      case LayerSource::kRecompute:
        pre.push_back(p.c_token);
        break;
      case LayerSource::kHidden:
        io_tasks.emplace_back(p.io_hidden, p.c_hidden);
        hidden_bytes += RestoreStepReadBytes(cfg_, step, history_tokens, codec_);
        break;
      case LayerSource::kKv:
        io_tasks.emplace_back(p.io_kv, 0.0);
        kv_bytes += RestoreStepReadBytes(cfg_, step, history_tokens, ChunkCodec::kFp16);
        break;
    }
  }
  RunPipeline(pre, io_tasks, &r);
  r.hidden_bytes_read = static_cast<double>(hidden_bytes);
  r.bytes_read = static_cast<double>(hidden_bytes + kv_bytes);
  r.flops = static_cast<double>(src.recompute) * RecomputeFlopsPerLayer(cfg_, n) +
            static_cast<double>(src.hidden) * HiddenToKvFlopsPerLayer(cfg_, n);
  return r;
}

RestoreResult Restorer::RestorePipelineParallel(RestoreMethod method, int64_t history_tokens,
                                                int num_stages) const {
  CHECK_GE(num_stages, 1);
  CHECK_LE(num_stages, platform_.num_gpus);
  // Each stage is a single-GPU sub-platform serving ceil(NL / stages) layers with its
  // share of the storage devices. Stages run concurrently and independently (no
  // cross-stage data dependency in restoration), so the makespan is one stage's time
  // and totals (bytes, FLOPs, busy time) sum across stages.
  Platform stage_platform = platform_;
  stage_platform.num_gpus = 1;
  if (stage_platform.storage.kind == StorageBackendSpec::Kind::kSsdArray) {
    stage_platform.storage.num_devices =
        std::max(1, platform_.storage.num_devices / num_stages);
  }
  ModelConfig stage_cfg = cfg_;
  stage_cfg.num_layers = (cfg_.num_layers + num_stages - 1) / num_stages;

  const Restorer stage(stage_platform, stage_cfg, chunk_tokens_, codec_);
  RestoreResult r = stage.Restore(method, history_tokens);
  const double g = static_cast<double>(num_stages);
  r.bytes_read *= g;
  r.hidden_bytes_read *= g;
  r.flops *= g;
  r.compute_busy *= g;
  r.io_busy *= g;
  return r;
}

RestoreResult Restorer::RestoreTokenWise(int64_t history_tokens, bool round_to_tile) const {
  const LayerProfile p = Profile(history_tokens);
  const TokenPartition tp = SolveTokenWise(p, history_tokens, round_to_tile);
  const int64_t nl = cfg_.num_layers;
  GpuTimingModel gpu(platform_.gpu, platform_.num_gpus);

  RestoreResult r;
  r.method = RestoreMethod::kHCache;
  r.history_tokens = history_tokens;
  r.scheme.layers_hidden = nl;

  const double n = static_cast<double>(history_tokens);
  const double frac_h = static_cast<double>(tp.tokens_hidden) / n;
  const double frac_o = static_cast<double>(tp.tokens_other) / n;
  // Real per-layer kernel times (tile quantization applies — the effect Fig 13 shows).
  const double c_h_part = tp.tokens_hidden > 0 ? gpu.HiddenToKvTime(cfg_, tp.tokens_hidden) : 0.0;

  std::vector<std::pair<double, double>> io_tasks;
  if (p.c_hidden > p.io_hidden) {
    // Complement = KV offload for the token suffix, inside every layer.
    const double io_per_layer = p.io_hidden * frac_h + p.io_kv * frac_o;
    io_tasks.assign(static_cast<size_t>(nl), {io_per_layer, c_h_part});
    r.hidden_bytes_read =
        static_cast<double>(nl) * HiddenIoBytesPerLayer(cfg_, n, codec_) * frac_h;
    r.bytes_read =
        r.hidden_bytes_read + static_cast<double>(nl) * KvIoBytesPerLayer(cfg_, n) * frac_o;
    r.flops = static_cast<double>(nl) *
              HiddenToKvFlopsPerLayer(cfg_, static_cast<double>(tp.tokens_hidden));
  } else {
    // Complement = recompute the token suffix, inside every layer. Each layer's compute
    // stage carries both the suffix recompute and the hidden projection.
    const double c_t_part =
        tp.tokens_other > 0 ? gpu.TokenRecomputeTimePerLayer(cfg_, tp.tokens_other) : 0.0;
    const double io_per_layer = p.io_hidden * frac_h;
    io_tasks.assign(static_cast<size_t>(nl), {io_per_layer, c_h_part + c_t_part});
    r.bytes_read = static_cast<double>(nl) * HiddenIoBytesPerLayer(cfg_, n, codec_) * frac_h;
    r.hidden_bytes_read = r.bytes_read;
    r.flops = static_cast<double>(nl) *
              (HiddenToKvFlopsPerLayer(cfg_, static_cast<double>(tp.tokens_hidden)) +
               RecomputeFlopsPerLayer(cfg_, static_cast<double>(tp.tokens_other)));
  }

  RunPipeline(/*pre_compute=*/{}, io_tasks, &r);
  return r;
}

}  // namespace hcache
