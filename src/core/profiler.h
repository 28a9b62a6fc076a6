// Offline hardware profiling (paper §4.1.2).
//
// The bubble-free scheduler needs four per-layer times for a given (platform, model,
// history length): hidden-state transmission IO_H, KV transmission IO_KV, hidden->KV
// recompute C_H, and full token recompute C_Token. The paper measures these on the
// target machine; we derive them from the calibrated hardware models, including the
// multi-GPU scheme of §5 (tensor parallelism: each GPU reads a disjoint token shard of
// the hidden states and an all-gather over NVLink rebuilds the full tensor; KV shards
// are per-head and need no gather).
#ifndef HCACHE_SRC_CORE_PROFILER_H_
#define HCACHE_SRC_CORE_PROFILER_H_

#include <cstdint>
#include <string>

#include "src/model/config.h"
#include "src/sim/hardware.h"
#include "src/storage/layout.h"

namespace hcache {

struct LayerProfile {
  double io_hidden = 0;   // transmit one layer's hidden states (n tokens), seconds
  double io_kv = 0;       // transmit one layer's KV cache, seconds
  double c_hidden = 0;    // recompute KV from hidden states for one layer, seconds
  double c_token = 0;     // full prefill compute for one layer, seconds
  int64_t history_tokens = 0;

  std::string ToString() const;
};

// Ring all-gather completion time: every GPU ends with `total_bytes` after contributing
// a 1/num_gpus shard over links of `link_bw` per direction.
double AllGatherTime(double total_bytes, int num_gpus, double link_bw);

// Profiles one transformer layer for a history of `n` tokens on `platform`.
// `chunk_tokens`/`codec` select the layer-chunked on-storage format (they set the IO
// sizes; `codec` scales hidden-state transmission — kFp16 is the paper's transport).
LayerProfile ProfileLayer(const Platform& platform, const ModelConfig& cfg, int64_t n,
                          int64_t chunk_tokens = kDefaultChunkTokens,
                          ChunkCodec codec = ChunkCodec::kFp16);

// The §6.1.3 auxiliary number: storage bandwidth (bytes/s) at which hidden-state
// transmission exactly matches hidden->KV recompute for this model on this GPU —
// "approximately 24GB/s, 21GB/s, and 37GB/s ... for the 7B, 13B, and 30B models".
double BalancedBandwidth(const Platform& platform, const ModelConfig& cfg, int64_t n);

}  // namespace hcache

#endif  // HCACHE_SRC_CORE_PROFILER_H_
