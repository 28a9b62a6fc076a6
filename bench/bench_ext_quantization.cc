// Extension: hidden-state precision codecs (paper §7, CacheGen-style quantization).
//
// Two halves:
//   (1) functional — run a tiny model, store its hidden states through the REAL chunk
//       codec path (FP16 and INT8), restore KV from the decoded rows, and measure the
//       actual KV error versus lossless FP32 storage (lossy, but tightly bounded);
//   (2) performance — re-run the bubble-free solver with each codec's transmission
//       byte model and report the predicted restoration speedup on the paper's
//       testbed (IO-bound platforms gain the most).
//
// Per-codec fidelity and speedup rows persist to BENCH_ext_quantization.json.
#include <cstdio>
#include <numeric>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/rng.h"
#include "src/core/partition.h"
#include "src/core/quantize.h"
#include "src/core/restorer.h"
#include "src/model/transformer.h"
#include "src/storage/codec.h"
#include "src/storage/hidden_saver.h"
#include "src/storage/memory_backend.h"

using namespace hcache;

namespace {

struct Fidelity {
  double compression = 0;   // stored bytes vs FP32
  double worst_kv_err = 0;  // restored-KV element error vs lossless storage
};

Fidelity MeasureFidelity(ChunkCodec codec, JsonValue& rows) {
  const ModelConfig cfg = ModelConfig::TinyLlama(4, 64, 4);
  const ModelWeights weights = ModelWeights::Random(cfg, 42);
  Transformer model(&weights);
  KvBlockPool pool(KvPoolConfig::ForModel(cfg, 64, 8));
  const int64_t n = 24;
  Rng rng(1);
  std::vector<int32_t> prompt(static_cast<size_t>(n));
  for (auto& t : prompt) {
    t = static_cast<int32_t>(rng.NextBounded(static_cast<uint64_t>(cfg.vocab_size)));
  }

  // Capture through the real storage plane, once losslessly and once encoded.
  MemoryBackend exact_store(1 << 20), lossy_store(1 << 20);
  HiddenStateWriter exact_writer(&exact_store, nullptr, cfg, 1, 8, ChunkCodec::kFp32);
  HiddenStateWriter lossy_writer(&lossy_store, nullptr, cfg, 1, 8, codec);
  {
    PagedKvSequence seq(&pool);
    model.Forward(prompt, &seq, &exact_writer);
    exact_writer.Seal();
    seq.Evict();
  }
  {
    PagedKvSequence seq(&pool);
    model.Forward(prompt, &seq, &lossy_writer);
    lossy_writer.Seal();
    seq.Evict();
  }

  std::vector<int32_t> positions(static_cast<size_t>(n));
  std::iota(positions.begin(), positions.end(), 0);
  const HiddenStateReader exact_reader(&exact_store, cfg, 8);
  const HiddenStateReader lossy_reader(&lossy_store, cfg, 8);
  Fidelity f;
  f.compression = static_cast<double>(exact_store.bytes_stored()) /
                  static_cast<double>(lossy_store.bytes_stored());
  for (int64_t layer = 0; layer < cfg.num_layers; ++layer) {
    const Tensor exact = exact_reader.ReadLayer(1, layer, n);
    const Tensor approx = lossy_reader.ReadLayer(1, layer, n);
    Tensor k_exact, v_exact, k_q, v_q;
    model.RestoreLayerKv(layer, exact, positions.data(), &k_exact, &v_exact);
    model.RestoreLayerKv(layer, approx, positions.data(), &k_q, &v_q);
    f.worst_kv_err = std::max<double>(f.worst_kv_err, Tensor::MaxAbsDiff(k_exact, k_q));
    f.worst_kv_err = std::max<double>(f.worst_kv_err, Tensor::MaxAbsDiff(v_exact, v_q));
  }
  std::printf("  %-5s stored %.2fx smaller than FP32; worst restored-KV error %.4g\n",
              ChunkCodecName(codec), f.compression, f.worst_kv_err);
  JsonValue row = JsonValue::Object();
  row.Set("kind", "fidelity")
      .Set("codec", ChunkCodecName(codec))
      .Set("compression_vs_fp32", f.compression)
      .Set("worst_restored_kv_error", f.worst_kv_err);
  rows.Push(std::move(row));
  return f;
}

}  // namespace

int main() {
  PrintTitle("Extension: hidden-state precision codecs (FP16 / INT8 per-row)");
  JsonValue rows = JsonValue::Array();

  PrintSection("(1) functional fidelity on a tiny Llama (4L x 64d), real codec path");
  MeasureFidelity(ChunkCodec::kFp16, rows);
  const Fidelity int8 = MeasureFidelity(ChunkCodec::kInt8, rows);
  // Sanity anchor from the analytic bound: INT8 error ≤ scale/2, KV values are O(1).
  std::printf("  (INT8 per-row bound: |err| <= max|row|/254 before projection)\n");
  (void)int8;

  PrintSection("(2) predicted restoration speed per storage codec");
  struct Case {
    const char* label;
    Platform platform;
    ModelConfig cfg;
  };
  const Case cases[] = {
      {"7B  / A100+4SSD", Platform::DefaultTestbed(1, 4), ModelConfig::Llama2_7B()},
      {"7B  / A100+1SSD (IO-bound)", Platform::ComputeSufficient(), ModelConfig::Llama2_7B()},
      {"13B / A100+4SSD", Platform::Balanced(), ModelConfig::Llama2_13B()},
  };
  std::printf("  %-28s | %10s %10s %10s | %7s %7s\n", "platform", "fp32", "fp16", "int8",
              "16/32", "8/16");
  for (const auto& c : cases) {
    double speed[3] = {0, 0, 0};
    int i = 0;
    for (const ChunkCodec codec :
         {ChunkCodec::kFp32, ChunkCodec::kFp16, ChunkCodec::kInt8}) {
      const Restorer r(c.platform, c.cfg, kDefaultChunkTokens, codec);
      const PartitionScheme s = SolveLayerWise(r.Profile(1024), c.cfg.num_layers);
      speed[i] = 1024.0 / s.predicted_time / 1e3;
      JsonValue row = JsonValue::Object();
      row.Set("kind", "restore_speed")
          .Set("platform", c.label)
          .Set("model", c.cfg.name)
          .Set("codec", ChunkCodecName(codec))
          .Set("ktokens_per_s", speed[i]);
      rows.Push(std::move(row));
      ++i;
    }
    std::printf("  %-28s | %8.1fK  %8.1fK  %8.1fK | %6.2fx %6.2fx\n", c.label, speed[0],
                speed[1], speed[2], speed[1] / speed[0], speed[2] / speed[1]);
  }
  PrintNote("precision helps exactly where transmission binds (1-SSD platforms);");
  PrintNote("compute-bound platforms see ~1x — the scheduler already hid the IO.");

  JsonValue doc = JsonValue::Object();
  doc.Set("bench", "ext_quantization")
      .Set("note",
           "fidelity rows: tiny-model hidden states stored via the real chunk codec; "
           "restore_speed rows: bubble-free solver under each codec's byte model")
      .Set("rows", std::move(rows));
  WriteJsonFile("BENCH_ext_quantization.json", doc);
  return 0;
}
