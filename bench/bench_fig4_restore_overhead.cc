// Figure 4: state-restoration overhead of existing methods vs the ideal case, plus the
// precision-codec sweep for HCache's hidden-state transport.
//
// Setup follows the paper: L-Eval trace, Llama2-7B/13B on one A100 + 4 SSDs, OPT-30B on
// 4x A100 (TP) with one SSD each. Paper: recomputation is 20.0-26.0x slower than ideal,
// KV offload 6.5-13.0x.
//
// The codec rows quantify the storage plane's precision lever: HCache with kFp16
// (deployment default) moves half the transmission-stream bytes of kFp32 and must beat
// its slowdown-vs-ideal on every model; kInt8 (§7, CacheGen-style) halves bytes again.
// A functional cross-backend check asserts the FP16 restore path decodes bit-stably on
// file, memory, and tiered stores.
//
// Results are also persisted to BENCH_fig4.json (per model/method TTFT mean, p50,
// slowdown vs ideal, and per-codec restoration bytes) so CI can archive the trajectory.
#include <cstdio>
#include <filesystem>
#include <memory>
#include <numeric>

#include "bench/bench_util.h"
#include "src/common/rng.h"
#include "src/core/functional_engine.h"
#include "src/model/cost_model.h"
#include "src/serving/engine.h"
#include "src/storage/file_backend.h"
#include "src/storage/memory_backend.h"
#include "src/storage/tiered_backend.h"

using namespace hcache;

namespace {

struct CodecOutcome {
  double slowdown = 0;
  double bytes_mean = 0;
  double hidden_bytes_mean = 0;
};

void RunModel(const ModelConfig& cfg, const Platform& platform, JsonValue& rows,
              bool& fp16_improves_all, bool& fp16_halves_bytes_all) {
  LEvalGenerator gen(404);
  const auto trace = gen.MixedTrace(100);

  std::printf("%-12s (%s)\n", cfg.name.c_str(), platform.Describe().c_str());
  double ideal_mean = 0;
  for (const auto method : {RestoreMethod::kIdeal, RestoreMethod::kKvOffload,
                            RestoreMethod::kRecompute}) {
    ServingOptions o;
    o.method = method;
    ServingEngine engine(platform, cfg, o);
    const ServingReport rep = engine.RunLongContextSerial(trace);
    const double mean = rep.ttft.Mean();
    if (method == RestoreMethod::kIdeal) {
      ideal_mean = mean;
    }
    std::printf("  %-11s      TTFT mean %7.3f s  p50 %7.3f s   (%.1fx ideal)\n",
                RestoreMethodName(method), mean, rep.ttft.Median(), mean / ideal_mean);
    JsonValue row = JsonValue::Object();
    row.Set("model", cfg.name)
        .Set("platform", platform.Describe())
        .Set("method", RestoreMethodName(method))
        .Set("ttft_mean_s", mean)
        .Set("ttft_p50_s", rep.ttft.Median())
        .Set("slowdown_vs_ideal", mean / ideal_mean);
    rows.Push(std::move(row));
  }

  // HCache under each hidden-state codec: the transmission stream pays encoded bytes.
  CodecOutcome fp32, fp16;
  for (const ChunkCodec codec :
       {ChunkCodec::kFp32, ChunkCodec::kFp16, ChunkCodec::kInt8}) {
    ServingOptions o;
    o.method = RestoreMethod::kHCache;
    o.state_codec = codec;
    ServingEngine engine(platform, cfg, o);
    const ServingReport rep = engine.RunLongContextSerial(trace);
    const double mean = rep.ttft.Mean();
    // Transmission bytes per restoration, averaged over the trace.
    Restorer restorer(platform, cfg, kDefaultChunkTokens, codec);
    double bytes = 0, hidden_bytes = 0;
    for (const auto& req : trace) {
      bytes += restorer.Restore(RestoreMethod::kHCache, req.context_tokens).bytes_read;
      // The transmission-stream quantity the codec scales: what the SAME pure-hidden
      // transport would move (the mixed scheduler re-partitions per codec, so its
      // hidden share is not an apples-to-apples stream comparison). Closed form —
      // all layers' hidden rows at the codec's encoded width.
      hidden_bytes += static_cast<double>(cfg.num_layers) *
                      HiddenIoBytesPerLayer(cfg, static_cast<double>(req.context_tokens),
                                            codec);
    }
    bytes /= static_cast<double>(trace.size());
    hidden_bytes /= static_cast<double>(trace.size());
    const double slowdown = mean / ideal_mean;
    std::printf(
        "  HCache/%-5s     TTFT mean %7.3f s  p50 %7.3f s   (%.1fx ideal)  %7.1f "
        "MB/restore (hidden stream %7.1f)\n",
        ChunkCodecName(codec), mean, rep.ttft.Median(), slowdown, bytes / 1e6,
        hidden_bytes / 1e6);
    if (codec == ChunkCodec::kFp32) {
      fp32 = {slowdown, bytes, hidden_bytes};
    } else if (codec == ChunkCodec::kFp16) {
      fp16 = {slowdown, bytes, hidden_bytes};
    }
    JsonValue row = JsonValue::Object();
    row.Set("model", cfg.name)
        .Set("platform", platform.Describe())
        .Set("method", RestoreMethodName(RestoreMethod::kHCache))
        .Set("codec", ChunkCodecName(codec))
        .Set("ttft_mean_s", mean)
        .Set("ttft_p50_s", rep.ttft.Median())
        .Set("slowdown_vs_ideal", slowdown)
        .Set("restore_bytes_mean", bytes)
        .Set("hidden_stream_bytes_mean", hidden_bytes);
    rows.Push(std::move(row));
  }
  const bool improved = fp16.slowdown < fp32.slowdown;
  const bool halved = fp16.hidden_bytes_mean <= 0.5 * fp32.hidden_bytes_mean + 1.0;
  std::printf("  fp16 vs fp32: hidden-stream bytes %.3fx, slowdown %.2fx -> %.2fx (%s)\n",
              fp16.hidden_bytes_mean / fp32.hidden_bytes_mean, fp32.slowdown, fp16.slowdown,
              improved && halved ? "OK" : "REGRESSION");
  fp16_improves_all = fp16_improves_all && improved;
  fp16_halves_bytes_all = fp16_halves_bytes_all && halved;
}

// Functional spot check: the FP16 restore path must decode bit-identically on all
// three backends (the codec, not the store, owns the bytes' meaning).
bool CheckFp16BitStableAcrossBackends() {
  const ModelConfig cfg = ModelConfig::TinyLlama(3, 32, 2);
  const ModelWeights weights = ModelWeights::Random(cfg, 11);
  Transformer model(&weights);
  KvBlockPool pool(KvPoolConfig::ForModel(cfg, 64, 8));
  Rng rng(5);
  std::vector<int32_t> prompt(24);
  for (auto& t : prompt) {
    t = static_cast<int32_t>(rng.NextBounded(static_cast<uint64_t>(cfg.vocab_size)));
  }
  const auto base = std::filesystem::temp_directory_path() / "hcache_fig4_codec";
  std::filesystem::remove_all(base);
  auto file = std::make_unique<FileBackend>(
      std::vector<std::string>{(base / "d0").string(), (base / "d1").string()}, 1 << 20);
  MemoryBackend memory(1 << 20);
  auto cold = std::make_unique<FileBackend>(
      std::vector<std::string>{(base / "c0").string()}, 1 << 20);
  TieredBackend tiered(cold.get(), 4096);
  StorageBackend* backends[] = {file.get(), &memory, &tiered};

  PartitionScheme s;
  s.layers_hidden = cfg.num_layers;
  s.layers_other = 0;
  s.complement = ComplementMethod::kNone;
  // Every layer's K AND V must agree bit-for-bit across backends.
  std::vector<std::vector<Tensor>> kv_per_backend;
  bool ok = true;
  for (StorageBackend* b : backends) {
    FunctionalHCache engine(&model, b, nullptr, 8, ChunkCodec::kFp16);
    PagedKvSequence seq(&pool);
    model.Forward(prompt, &seq, engine.BeginCapture(1));
    engine.SealContext(1);
    seq.Evict();
    if (!engine.RestoreContext(1, s, {}, &seq)) {
      ok = false;
      break;
    }
    std::vector<Tensor> kv;
    for (int64_t layer = 0; layer < cfg.num_layers; ++layer) {
      Tensor k, v;
      seq.ReadKv(layer, 0, static_cast<int64_t>(prompt.size()), &k, &v);
      kv.push_back(std::move(k));
      kv.push_back(std::move(v));
    }
    kv_per_backend.push_back(std::move(kv));
    seq.Evict();
  }
  if (ok) {
    for (size_t b = 1; b < kv_per_backend.size(); ++b) {
      for (size_t i = 0; i < kv_per_backend[0].size(); ++i) {
        ok = ok && Tensor::BitwiseEqual(kv_per_backend[0][i], kv_per_backend[b][i]);
      }
    }
  }
  std::filesystem::remove_all(base);
  return ok;
}

}  // namespace

int main() {
  PrintTitle("Figure 4: comparison of state restoration overhead (L-Eval)");
  JsonValue rows = JsonValue::Array();
  bool fp16_improves_all = true;
  bool fp16_halves_bytes_all = true;
  RunModel(ModelConfig::Llama2_7B(), Platform::DefaultTestbed(1, 4), rows,
           fp16_improves_all, fp16_halves_bytes_all);
  RunModel(ModelConfig::Llama2_13B(), Platform::DefaultTestbed(1, 4), rows,
           fp16_improves_all, fp16_halves_bytes_all);
  RunModel(ModelConfig::Opt30B(), Platform::DefaultTestbed(4, 4), rows,
           fp16_improves_all, fp16_halves_bytes_all);
  PrintNote("recomputation 20.0-26.0x slower than ideal; KV offload 6.5-13.0x (Fig 4).");

  const bool bit_stable = CheckFp16BitStableAcrossBackends();
  std::printf("\nfp16 transmission bytes halved on all models : %s\n",
              fp16_halves_bytes_all ? "yes" : "NO");
  std::printf("fp16 slowdown-vs-ideal improved on all models: %s\n",
              fp16_improves_all ? "yes" : "NO");
  std::printf("fp16 restore bit-stable across backends      : %s\n",
              bit_stable ? "yes" : "NO");

  JsonValue doc = JsonValue::Object();
  doc.Set("bench", "fig4_restore_overhead")
      .Set("paper_note", "recompute 20.0-26.0x ideal; KV offload 6.5-13.0x")
      .Set("fp16_bytes_halved_vs_fp32_all_models", fp16_halves_bytes_all)
      .Set("fp16_slowdown_improved_all_models", fp16_improves_all)
      .Set("fp16_restore_bitstable_across_backends", bit_stable)
      .Set("rows", std::move(rows));
  WriteJsonFile("BENCH_fig4.json", doc);
  return fp16_halves_bytes_all && fp16_improves_all && bit_stable ? 0 : 1;
}
