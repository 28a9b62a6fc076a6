// Storage-path timing for a platform: turns IO patterns into seconds.
//
// The data path modeled is the paper's GPUDirect pipeline (§5: SPDK + GDRCopy, SSD ->
// GPU BAR with no host bounce): chunks are striped round-robin across the SSDs, read in
// parallel, and the stream is capped by the GPU's PCIe ingest bandwidth. DRAM backends
// skip the device model and are purely PCIe-bound.
#ifndef HCACHE_SRC_STORAGE_IO_TIMING_H_
#define HCACHE_SRC_STORAGE_IO_TIMING_H_

#include "src/model/config.h"
#include "src/sim/hardware.h"
#include "src/storage/layout.h"

namespace hcache {

class StorageIoModel {
 public:
  explicit StorageIoModel(const Platform& platform);

  // Sustained read bandwidth into one GPU for a stream of `io_size`-byte requests.
  double EffectiveReadBw(double io_size) const;
  double EffectiveWriteBw(double io_size) const;

  // Wall time to execute `pattern` as reads into one GPU (striped, pipelined, high
  // queue depth: one leading device latency plus streaming time). This is the
  // batched-submission model — the cost StorageBackend::ReadChunks pays.
  double ReadTime(const IoPattern& pattern) const;
  double WriteTime(const IoPattern& pattern) const;

  // Wall time for the same pattern issued as `num_ios` serial single-chunk reads
  // (queue depth 1: each IO pays the full device latency before the next is
  // submitted) — the cost of a per-chunk ReadChunk loop. The gap to ReadTime is the
  // modeled win the batched read API exists to collect.
  double SerialReadTime(const IoPattern& pattern) const;

  // Convenience wrappers for the restoration paths. `codec` sets the encoded bytes
  // the hidden-state stream moves (kFp16 = the paper's transport).
  double HiddenLayerReadTime(const ModelConfig& cfg, int64_t n,
                             int64_t chunk_tokens = kDefaultChunkTokens,
                             ChunkCodec codec = ChunkCodec::kFp16) const;
  double KvLayerReadTime(const ModelConfig& cfg, int64_t n,
                         int64_t chunk_tokens = kDefaultChunkTokens) const;

  // One-time latency before the first bytes of a read stream arrive (the pipeline-fill
  // term restorers charge once per restoration).
  double DeviceLatency() const;

  const Platform& platform() const { return platform_; }

 private:
  Platform platform_;
};

}  // namespace hcache

#endif  // HCACHE_SRC_STORAGE_IO_TIMING_H_
