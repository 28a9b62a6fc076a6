#include "src/storage/io_timing.h"

#include <algorithm>

#include "src/common/logging.h"

namespace hcache {

StorageIoModel::StorageIoModel(const Platform& platform) : platform_(platform) {}

double StorageIoModel::DeviceLatency() const {
  if (platform_.storage.kind == StorageBackendSpec::Kind::kDram) {
    return 2e-6;  // one DMA descriptor round trip
  }
  return platform_.storage.ssd.per_io_latency;
}

double StorageIoModel::EffectiveReadBw(double io_size) const {
  const auto& st = platform_.storage;
  if (st.kind == StorageBackendSpec::Kind::kDram) {
    return platform_.gpu.pcie_bw;
  }
  const double per_dev = st.ssd.EffectiveReadBw(io_size);
  return std::min(per_dev * platform_.ssds_per_gpu(), platform_.gpu.pcie_bw);
}

double StorageIoModel::EffectiveWriteBw(double io_size) const {
  const auto& st = platform_.storage;
  if (st.kind == StorageBackendSpec::Kind::kDram) {
    return platform_.gpu.pcie_bw;
  }
  const double per_dev = st.ssd.EffectiveWriteBw(io_size);
  return std::min(per_dev * platform_.ssds_per_gpu(), platform_.gpu.pcie_bw);
}

double StorageIoModel::ReadTime(const IoPattern& pattern) const {
  if (pattern.num_ios <= 0) {
    return 0.0;
  }
  const double bw = EffectiveReadBw(static_cast<double>(pattern.io_size));
  CHECK_GT(bw, 0.0);
  return DeviceLatency() + static_cast<double>(pattern.total_bytes()) / bw;
}

double StorageIoModel::SerialReadTime(const IoPattern& pattern) const {
  if (pattern.num_ios <= 0) {
    return 0.0;
  }
  // Queue depth 1: every IO pays the device latency, and no cross-device striping
  // overlap is possible because the next request is not submitted until this one
  // returned — each read streams from the single device holding its chunk.
  const auto& st = platform_.storage;
  const double stream_bw =
      st.kind == StorageBackendSpec::Kind::kDram
          ? platform_.gpu.pcie_bw
          : std::min(st.ssd.EffectiveReadBw(static_cast<double>(pattern.io_size)),
                     platform_.gpu.pcie_bw);
  CHECK_GT(stream_bw, 0.0);
  return static_cast<double>(pattern.num_ios) * DeviceLatency() +
         static_cast<double>(pattern.total_bytes()) / stream_bw;
}

double StorageIoModel::WriteTime(const IoPattern& pattern) const {
  if (pattern.num_ios <= 0) {
    return 0.0;
  }
  const double bw = EffectiveWriteBw(static_cast<double>(pattern.io_size));
  CHECK_GT(bw, 0.0);
  return DeviceLatency() + static_cast<double>(pattern.total_bytes()) / bw;
}

double StorageIoModel::HiddenLayerReadTime(const ModelConfig& cfg, int64_t n,
                                           int64_t chunk_tokens, ChunkCodec codec) const {
  return ReadTime(RestoreLayerPattern(cfg, n, chunk_tokens, codec));
}

double StorageIoModel::KvLayerReadTime(const ModelConfig& cfg, int64_t n,
                                       int64_t chunk_tokens) const {
  // KV offload stores K and V chunks with the same chunked layout; rows are
  // 2*kv_dim wide (2x hidden for MHA, less under GQA) at the FP16 state dtype,
  // independent of the hidden-state codec.
  return ReadTime(KvRestoreLayerPattern(cfg, n, chunk_tokens));
}

}  // namespace hcache
