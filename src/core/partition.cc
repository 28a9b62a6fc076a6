#include "src/core/partition.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "src/common/logging.h"
#include "src/sim/gpu_timing.h"

namespace hcache {

const char* ComplementName(ComplementMethod m) {
  switch (m) {
    case ComplementMethod::kNone:
      return "none";
    case ComplementMethod::kKvOffload:
      return "kv-offload";
    case ComplementMethod::kRecompute:
      return "recompute";
  }
  return "?";
}

std::vector<RestoreStep> PlanRestore(const LayerSources& sources, int64_t num_layers) {
  CHECK(sources.recompute >= 0 && sources.hidden >= 0 && sources.kv >= 0);
  CHECK_EQ(sources.recompute + sources.hidden + sources.kv, num_layers)
      << "restore plan must cover every layer exactly once";
  std::vector<RestoreStep> steps;
  steps.reserve(static_cast<size_t>(num_layers));
  const auto append = [&steps](int64_t count, LayerSource source) {
    for (int64_t i = 0; i < count; ++i) {
      steps.push_back({static_cast<int64_t>(steps.size()), source});
    }
  };
  append(sources.recompute, LayerSource::kRecompute);
  append(sources.hidden, LayerSource::kHidden);
  append(sources.kv, LayerSource::kKv);
  return steps;
}

int64_t RestoreStepReadBytes(const ModelConfig& cfg, const RestoreStep& step, int64_t n,
                             ChunkCodec codec) {
  switch (step.source) {
    case LayerSource::kRecompute:
      return 0;
    case LayerSource::kHidden:
      return n * CodecRowBytes(codec, cfg.hidden_dim);
    case LayerSource::kKv:
      return n * CodecRowBytes(codec, 2 * cfg.kv_dim());
  }
  return 0;
}

LayerSources PartitionScheme::Sources() const {
  CHECK(complement != ComplementMethod::kNone || layers_other == 0)
      << "complement none leaves " << layers_other << " layers without a source";
  const bool kv = complement == ComplementMethod::kKvOffload;
  return {kv ? 0 : layers_other, layers_hidden, kv ? layers_other : 0};
}

int64_t PartitionScheme::StoredElementsPerToken(const ModelConfig& cfg) const {
  // Recomputed layers store nothing beyond the raw tokens (negligible).
  const LayerSources s = Sources();
  return s.hidden * cfg.hidden_dim + s.kv * 2 * cfg.kv_dim();
}

int64_t PartitionScheme::StoredBytesPerToken(const ModelConfig& cfg) const {
  return StoredElementsPerToken(cfg) * cfg.state_dtype_bytes;
}

std::string PartitionScheme::ToString() const {
  char buf[128];
  const char* tag = complement == ComplementMethod::kKvOffload   ? "KV"
                    : complement == ComplementMethod::kRecompute ? "RE"
                                                                 : "-";
  std::snprintf(buf, sizeof(buf), "%lld H + %lld %s (pred %.2fms, bubble %.2fms)",
                static_cast<long long>(layers_hidden), static_cast<long long>(layers_other),
                tag, predicted_time * 1e3, predicted_bubble * 1e3);
  return buf;
}

namespace {

// Makespan and bubble of a layer-wise schedule under steady-state pipelining.
void EvaluateLayerWise(const LayerProfile& p, PartitionScheme& s) {
  const LayerSources src = s.Sources();
  const double compute = p.c_token * static_cast<double>(src.recompute) +
                         p.c_hidden * static_cast<double>(src.hidden);
  const double io = p.io_hidden * static_cast<double>(src.hidden) +
                    p.io_kv * static_cast<double>(src.kv);
  s.predicted_time = std::max(compute, io);
  s.predicted_bubble = std::abs(compute - io);
}

}  // namespace

PartitionScheme SolveLayerWise(const LayerProfile& p, int64_t num_layers) {
  CHECK_GT(num_layers, 0);
  // Clamp in double BEFORE the integer cast: a near-cancelling denominator can push
  // the fractional crossing far past INT64_MAX, where the bare cast is UB.
  const auto clamp_layers = [num_layers](double lh) {
    return static_cast<int64_t>(
        std::clamp(lh, 0.0, static_cast<double>(num_layers)));
  };
  PartitionScheme s;
  if (p.c_hidden > p.io_hidden) {
    // Compute-bound: transmission has slack — fill it with KV-offloaded layers.
    const double denom = p.io_kv + p.c_hidden - p.io_hidden;
    s.layers_hidden =
        clamp_layers(std::ceil(static_cast<double>(num_layers) * p.io_kv / denom));
    s.layers_other = num_layers - s.layers_hidden;
    s.complement =
        s.layers_other == 0 ? ComplementMethod::kNone : ComplementMethod::kKvOffload;
  } else {
    // IO-bound: compute has slack — fill it with token-recomputed layers.
    const double denom = p.c_token + p.io_hidden - p.c_hidden;
    s.layers_hidden =
        clamp_layers(std::ceil(static_cast<double>(num_layers) * p.c_token / denom));
    s.layers_other = num_layers - s.layers_hidden;
    s.complement =
        s.layers_other == 0 ? ComplementMethod::kNone : ComplementMethod::kRecompute;
  }
  EvaluateLayerWise(p, s);

  // The closed form above is the paper's pick: ceil the fractional crossing within
  // the regime's own complement family. Integer rounding can leave that one layer off
  // the true optimum (the floor side may finish earlier), and the regime never looks
  // at the other family at all. Both streams are linear in L_H, so for each family
  // the exhaustive optimum over integer splits can only sit at floor/ceil of that
  // family's compute/IO crossing or at an endpoint (a pure plan) — scan those few
  // candidates and adopt any *strictly* faster schedule. Ties keep the paper's ceil
  // choice, so the Table 3 schedules are unchanged.
  auto consider = [&](int64_t lh, ComplementMethod m) {
    PartitionScheme cand;
    cand.layers_hidden = lh;
    cand.layers_other = num_layers - lh;
    cand.complement = cand.layers_other == 0 ? ComplementMethod::kNone : m;
    EvaluateLayerWise(p, cand);
    if (cand.predicted_time < s.predicted_time) {
      s = cand;
    }
  };
  auto consider_crossing = [&](double crossing_num, double crossing_den,
                               ComplementMethod m) {
    consider(0, m);
    consider(num_layers, m);
    if (crossing_den > 0) {
      const double lh =
          std::clamp(crossing_num / crossing_den, 0.0, static_cast<double>(num_layers));
      consider(clamp_layers(std::floor(lh)), m);
      consider(clamp_layers(std::ceil(lh)), m);
    }
  };
  const double n = static_cast<double>(num_layers);
  // KV family: C_H*L_H crosses N*IO_KV + L_H*(IO_H - IO_KV).
  consider_crossing(n * p.io_kv, p.io_kv + p.c_hidden - p.io_hidden,
                    ComplementMethod::kKvOffload);
  // Recompute family: IO_H*L_H crosses N*C_T + L_H*(C_H - C_T).
  consider_crossing(n * p.c_token, p.c_token + p.io_hidden - p.c_hidden,
                    ComplementMethod::kRecompute);
  return s;
}

TokenPartition SolveTokenWise(const LayerProfile& p, int64_t history_tokens,
                              bool round_to_tile) {
  CHECK_GT(history_tokens, 0);
  CHECK_EQ(p.history_tokens, history_tokens);
  const double n = static_cast<double>(history_tokens);
  // Per-token steady-state rates (the linear model the naive partitioner assumes; the
  // very point of Fig 13 is that real GEMM time is NOT linear in the token count).
  const double io_h = p.io_hidden / n;
  const double io_kv = p.io_kv / n;
  const double c_h = p.c_hidden / n;
  const double c_t = p.c_token / n;

  TokenPartition t;
  double th;
  if (c_h > io_h) {
    th = n * io_kv / (io_kv + c_h - io_h);
  } else {
    th = n * c_t / (c_t + io_h - c_h);
  }
  th = std::clamp(th, 0.0, n);
  t.tokens_hidden = static_cast<int64_t>(std::llround(th));
  if (round_to_tile) {
    const int64_t tile = kRoundUpGranularity;
    int64_t rounded = (t.tokens_hidden + tile / 2) / tile * tile;
    t.tokens_hidden = std::clamp(rounded, int64_t{0}, history_tokens);
  }
  t.tokens_other = history_tokens - t.tokens_hidden;
  const double h = static_cast<double>(t.tokens_hidden);
  const double o = static_cast<double>(t.tokens_other);
  const double compute = c_h > io_h ? c_h * h : c_h * h + c_t * o;
  const double io = c_h > io_h ? io_h * h + io_kv * o : io_h * h;
  t.predicted_time = std::max(compute, io);
  return t;
}

NaiveHybridScheme SolveNaiveHybrid(const LayerProfile& p, int64_t num_layers) {
  CHECK_GT(num_layers, 0);
  NaiveHybridScheme s;
  // Balance recompute compute-time against KV transmission: C_T*L_RE == IO_KV*L_KV.
  const double denom = p.c_token + p.io_kv;
  const double lkv = std::ceil(static_cast<double>(num_layers) * p.c_token / denom);
  s.sources.kv = std::clamp(static_cast<int64_t>(lkv), int64_t{0}, num_layers);
  s.sources.recompute = num_layers - s.sources.kv;
  s.predicted_time = std::max(p.io_kv * static_cast<double>(s.sources.kv),
                              p.c_token * static_cast<double>(s.sources.recompute));
  return s;
}

}  // namespace hcache
