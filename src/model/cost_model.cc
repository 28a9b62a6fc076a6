#include "src/model/cost_model.h"

namespace hcache {

namespace {
double D(const ModelConfig& cfg) { return static_cast<double>(cfg.hidden_dim); }
}  // namespace

double HiddenIoBytesPerLayer(const ModelConfig& cfg, double n) {
  return n * D(cfg) * static_cast<double>(cfg.state_dtype_bytes);
}

double HiddenIoBytesPerLayer(const ModelConfig& cfg, double n, ChunkCodec codec) {
  return n * static_cast<double>(CodecRowBytes(codec, cfg.hidden_dim));
}

double KvIoBytesPerLayer(const ModelConfig& cfg, double n) {
  return n * 2.0 * static_cast<double>(cfg.kv_dim()) *
         static_cast<double>(cfg.state_dtype_bytes);
}

double HiddenToKvFlopsPerLayer(const ModelConfig& cfg, double n) {
  return 4.0 * n * D(cfg) * D(cfg);
}

double AttnFlopsPerLayer(const ModelConfig& cfg, double n) {
  return 8.0 * n * D(cfg) * D(cfg) + n * n * D(cfg);
}

double FfnFlopsPerLayer(const ModelConfig& cfg, double n) { return 16.0 * n * D(cfg) * D(cfg); }

double RecomputeFlopsPerLayer(const ModelConfig& cfg, double n) {
  return AttnFlopsPerLayer(cfg, n) + FfnFlopsPerLayer(cfg, n);
}

double TheoreticalComputeSpeedup(const ModelConfig& cfg, double n) {
  return 6.0 + n / (4.0 * D(cfg));
}

double ExactHiddenToKvFlopsPerLayer(const ModelConfig& cfg, double n) {
  return 4.0 * n * D(cfg) * static_cast<double>(cfg.kv_dim());
}

double ExactFfnFlopsPerLayer(const ModelConfig& cfg, double n) {
  const double mats = cfg.activation == ActivationKind::kSwiGlu ? 3.0 : 2.0;
  return mats * 2.0 * n * D(cfg) * static_cast<double>(cfg.ffn_dim);
}

}  // namespace hcache
