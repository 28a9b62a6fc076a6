#include "src/core/profiler.h"

#include <cstdio>

#include "src/common/logging.h"
#include "src/model/cost_model.h"
#include "src/sim/gpu_timing.h"
#include "src/storage/io_timing.h"

namespace hcache {

std::string LayerProfile::ToString() const {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "n=%lld IO_H=%.0fus IO_KV=%.0fus C_H=%.0fus C_T=%.0fus",
                static_cast<long long>(history_tokens), io_hidden * 1e6, io_kv * 1e6,
                c_hidden * 1e6, c_token * 1e6);
  return buf;
}

double AllGatherTime(double total_bytes, int num_gpus, double link_bw) {
  if (num_gpus <= 1) {
    return 0.0;
  }
  // Ring all-gather moves (g-1)/g of the payload through each link.
  return total_bytes * (static_cast<double>(num_gpus - 1) / num_gpus) / link_bw;
}

LayerProfile ProfileLayer(const Platform& platform, const ModelConfig& cfg, int64_t n,
                          int64_t chunk_tokens, ChunkCodec codec) {
  CHECK_GT(n, 0);
  LayerProfile p;
  p.history_tokens = n;
  const int g = platform.num_gpus;
  GpuTimingModel gpu(platform.gpu, g);
  StorageIoModel io(platform);

  // Steady-state transmission terms exclude the one-time pipeline-fill latency; the
  // restorer adds it once per restoration.
  const int64_t shard_tokens = (n + g - 1) / g;

  // Hidden states: disjoint token shards read in parallel (at the codec's encoded
  // size), then all-gather so every TP rank holds the full activation (it needs all
  // tokens to project its KV heads). The gather moves the dequantized FP16 activation
  // over NVLink — the GPU-side working dtype — regardless of the storage codec.
  const IoPattern hidden_shard = RestoreLayerPattern(cfg, shard_tokens, chunk_tokens, codec);
  const double shard_read =
      static_cast<double>(hidden_shard.total_bytes()) /
      io.EffectiveReadBw(static_cast<double>(hidden_shard.io_size));
  p.io_hidden = shard_read + AllGatherTime(HiddenIoBytesPerLayer(cfg, static_cast<double>(n)),
                                           g, platform.nvlink_bw);

  // KV cache: each rank owns its heads' KV shard outright — parallel reads, no gather.
  // KV offload ships FP16 KV (2*kv_dim rows), independent of the hidden-state codec.
  const IoPattern kv_shard = KvRestoreLayerPattern(cfg, shard_tokens, chunk_tokens);
  p.io_kv = static_cast<double>(kv_shard.total_bytes()) /
            io.EffectiveReadBw(static_cast<double>(kv_shard.io_size));

  p.c_hidden = gpu.HiddenToKvTime(cfg, n);
  p.c_token = gpu.TokenRecomputeTimePerLayer(cfg, n);
  return p;
}

double BalancedBandwidth(const Platform& platform, const ModelConfig& cfg, int64_t n) {
  GpuTimingModel gpu(platform.gpu, platform.num_gpus);
  const double c_h = gpu.HiddenToKvTime(cfg, n);
  CHECK_GT(c_h, 0.0);
  return HiddenIoBytesPerLayer(cfg, static_cast<double>(n)) / c_h;
}

}  // namespace hcache
