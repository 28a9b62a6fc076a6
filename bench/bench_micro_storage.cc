// Microbenchmarks (google-benchmark) for the real storage path: chunk writes and
// reads swept across every StorageBackend (file / memory / tiered), codec encode /
// decode kernels, the two-stage saver's snapshot stage, and full save/restore round
// trips.
//
// A custom main additionally runs a timed per-codec sweep of the functional
// save+restore path on every backend and persists the rows (encoded bytes, MB/s,
// simulated restore TTFT) to BENCH_micro_storage.json — the storage plane's entry in
// the repo's performance trajectory.
#include <benchmark/benchmark.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <functional>
#include <memory>
#include <numeric>
#include <string>

#include "bench/bench_util.h"
#include "src/common/histogram.h"
#include "src/common/rng.h"
#include "src/common/thread_pool.h"
#include "src/core/restorer.h"
#include "src/sim/hardware.h"
#include "src/storage/codec.h"
#include "src/storage/codec_simd.h"
#include "src/storage/file_backend.h"
#include "src/storage/hidden_saver.h"
#include "src/storage/io_timing.h"
#include "src/storage/memory_backend.h"
#include "src/storage/tiered_backend.h"

namespace hcache {
namespace {

namespace fs = std::filesystem;

// Every base directory TempDirs handed out; main removes them before it returns.
std::vector<fs::path>& TempBases() {
  static std::vector<fs::path> bases;
  return bases;
}

std::vector<std::string> TempDirs(const char* tag, int n) {
  std::vector<std::string> dirs;
  const auto base = fs::temp_directory_path() /
                    ("hcache_bench_" + std::to_string(::getpid()) + "_" + tag);
  TempBases().push_back(base);
  for (int i = 0; i < n; ++i) {
    dirs.push_back((base / ("d" + std::to_string(i))).string());
  }
  return dirs;
}

// Backend selector for swept benchmarks: 0 = file, 1 = memory, 2 = tiered
// (DRAM budget of 64 chunks over a file cold tier, so steady-state writes evict).
enum BackendKind : int64_t { kFile = 0, kMemory = 1, kTiered = 2 };

const char* BackendKindName(BackendKind k) {
  switch (k) {
    case kFile:
      return "file";
    case kMemory:
      return "memory";
    case kTiered:
      return "tiered";
  }
  return "?";
}

struct BackendUnderTest {
  std::unique_ptr<StorageBackend> cold;
  std::unique_ptr<StorageBackend> backend;
};

BackendUnderTest MakeBackend(BackendKind kind, const char* tag, int64_t chunk_bytes) {
  BackendUnderTest b;
  switch (kind) {
    case kFile:
      b.backend = std::make_unique<FileBackend>(TempDirs(tag, 4), chunk_bytes);
      break;
    case kMemory:
      b.backend = std::make_unique<MemoryBackend>(chunk_bytes);
      break;
    case kTiered: {
      b.cold = std::make_unique<FileBackend>(TempDirs(tag, 4), chunk_bytes);
      b.backend = std::make_unique<TieredBackend>(b.cold.get(), 64 * chunk_bytes);
      break;
    }
  }
  return b;
}

void BM_ChunkWrite(benchmark::State& state) {
  const auto kind = static_cast<BackendKind>(state.range(0));
  const int64_t chunk_bytes = state.range(1);
  BackendUnderTest b = MakeBackend(kind, "write", chunk_bytes);
  std::vector<char> payload(static_cast<size_t>(chunk_bytes), 'x');
  int64_t idx = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        b.backend->WriteChunk({1, 0, idx++}, payload.data(), chunk_bytes));
  }
  state.SetBytesProcessed(state.iterations() * chunk_bytes);
  state.SetLabel(b.backend->Name());
  state.counters["chunks"] = static_cast<double>(b.backend->chunks_stored());
}
BENCHMARK(BM_ChunkWrite)
    ->ArgNames({"backend", "bytes"})
    ->Args({kFile, 64 * 1024})
    ->Args({kFile, 512 * 1024})
    ->Args({kMemory, 64 * 1024})
    ->Args({kMemory, 512 * 1024})
    ->Args({kTiered, 64 * 1024})
    ->Args({kTiered, 512 * 1024});

void BM_ChunkRead(benchmark::State& state) {
  const auto kind = static_cast<BackendKind>(state.range(0));
  const int64_t chunk_bytes = state.range(1);
  BackendUnderTest b = MakeBackend(kind, "read", chunk_bytes);
  std::vector<char> payload(static_cast<size_t>(chunk_bytes), 'y');
  constexpr int64_t kChunks = 64;
  for (int64_t c = 0; c < kChunks; ++c) {
    b.backend->WriteChunk({1, 0, c}, payload.data(), chunk_bytes);
  }
  std::vector<char> buf(static_cast<size_t>(chunk_bytes));
  int64_t idx = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        b.backend->ReadChunk({1, 0, idx++ % kChunks}, buf.data(), chunk_bytes));
  }
  state.SetBytesProcessed(state.iterations() * chunk_bytes);
  state.SetLabel(b.backend->Name());
  const StorageStats s = b.backend->Stats();
  const int64_t reads = s.dram_hits + s.cold_hits;
  state.counters["dram_hit"] =
      reads > 0 ? static_cast<double>(s.dram_hits) / static_cast<double>(reads) : 0.0;
}
BENCHMARK(BM_ChunkRead)
    ->ArgNames({"backend", "bytes"})
    ->Args({kFile, 64 * 1024})
    ->Args({kFile, 512 * 1024})
    ->Args({kMemory, 64 * 1024})
    ->Args({kMemory, 512 * 1024})
    ->Args({kTiered, 64 * 1024})
    ->Args({kTiered, 512 * 1024});

// Codec convert kernels in isolation: encode / decode one 64-token x 4096 chunk
// (the Llama2-7B hidden geometry).
void BM_CodecEncode(benchmark::State& state) {
  const auto codec = static_cast<ChunkCodec>(state.range(0));
  const int64_t rows = 64, cols = 4096;
  Rng rng(1);
  Tensor src({rows, cols});
  for (int64_t i = 0; i < src.numel(); ++i) {
    src.at(i) = static_cast<float>(rng.NextNormal(0, 1));
  }
  std::vector<uint8_t> chunk(static_cast<size_t>(EncodedChunkBytes(codec, rows, cols)));
  for (auto _ : state) {
    WriteChunkHeader(codec, rows, cols, chunk.data());
    EncodeRowsInto(codec, src.data(), cols, rows, cols, chunk.data() + sizeof(ChunkHeader));
    benchmark::DoNotOptimize(chunk.data());
  }
  state.SetBytesProcessed(state.iterations() * rows * cols * sizeof(float));
  state.SetLabel(ChunkCodecName(codec));
}
BENCHMARK(BM_CodecEncode)
    ->ArgNames({"codec"})
    ->Arg(static_cast<int64_t>(ChunkCodec::kFp32))
    ->Arg(static_cast<int64_t>(ChunkCodec::kFp16))
    ->Arg(static_cast<int64_t>(ChunkCodec::kInt8));

void BM_CodecDecode(benchmark::State& state) {
  const auto codec = static_cast<ChunkCodec>(state.range(0));
  const int64_t rows = 64, cols = 4096;
  Rng rng(2);
  Tensor src({rows, cols});
  for (int64_t i = 0; i < src.numel(); ++i) {
    src.at(i) = static_cast<float>(rng.NextNormal(0, 1));
  }
  std::vector<uint8_t> chunk(static_cast<size_t>(EncodedChunkBytes(codec, rows, cols)));
  WriteChunkHeader(codec, rows, cols, chunk.data());
  EncodeRowsInto(codec, src.data(), cols, rows, cols, chunk.data() + sizeof(ChunkHeader));
  ChunkInfo info;
  if (!InspectChunk(chunk.data(), static_cast<int64_t>(chunk.size()), cols, &info)) {
    state.SkipWithError("inspect failed");
    return;
  }
  Tensor dst({rows, cols});
  for (auto _ : state) {
    DecodeChunkRange(chunk.data(), static_cast<int64_t>(chunk.size()), info, 0, rows, 0,
                     cols, dst.data(), cols);
    benchmark::DoNotOptimize(dst.data());
  }
  state.SetBytesProcessed(state.iterations() * rows * cols * sizeof(float));
  state.SetLabel(ChunkCodecName(codec));
}
BENCHMARK(BM_CodecDecode)
    ->ArgNames({"codec"})
    ->Arg(static_cast<int64_t>(ChunkCodec::kFp32))
    ->Arg(static_cast<int64_t>(ChunkCodec::kFp16))
    ->Arg(static_cast<int64_t>(ChunkCodec::kInt8));

void BM_TieredEvictionChurn(benchmark::State& state) {
  // Worst case for the tiered backend: each context exceeds the DRAM budget, so every
  // round of writes pays context-granular eviction plus write-back to the file tier.
  const int64_t chunk_bytes = 64 * 1024;
  auto cold = std::make_unique<FileBackend>(TempDirs("churn", 4), chunk_bytes);
  // The evicting write flushes on the timed thread: the eviction + write-back cost
  // is what this bench measures.
  TieredBackend tiered(cold.get(), 4 * chunk_bytes);
  std::vector<char> payload(static_cast<size_t>(chunk_bytes), 'z');
  int64_t ctx = 0;
  for (auto _ : state) {
    for (int64_t c = 0; c < 8; ++c) {  // 8 chunks per context, 2x the budget
      tiered.WriteChunk({ctx, 0, c}, payload.data(), chunk_bytes);
    }
    tiered.DeleteContext(ctx);
    ++ctx;
  }
  state.SetBytesProcessed(state.iterations() * 8 * chunk_bytes);
  const StorageStats s = tiered.Stats();
  state.counters["evictions"] = static_cast<double>(s.evicted_contexts);
  state.counters["writeback_mb"] = static_cast<double>(s.writeback_bytes) / (1 << 20);
}
BENCHMARK(BM_TieredEvictionChurn);

void BM_TwoStageSaveDecodeStep(benchmark::State& state) {
  // One decode iteration's stage-1 snapshot (with fused encode) across all layers.
  const auto codec = static_cast<ChunkCodec>(state.range(0));
  const ModelConfig cfg = ModelConfig::TinyLlama(8, 128, 4);
  FileBackend store(TempDirs("save", 4), EncodedChunkBytes(ChunkCodec::kFp32, 64, cfg.hidden_dim));
  ThreadPool pool(4);
  HiddenStateWriter writer(&store, &pool, cfg, 1, 64, codec);
  Tensor row({1, cfg.hidden_dim});
  row.Fill(0.5f);
  int32_t pos = 0;
  for (auto _ : state) {
    for (int64_t layer = 0; layer < cfg.num_layers; ++layer) {
      writer.OnLayerInput(layer, row, &pos, 1);
    }
    ++pos;
  }
  writer.Seal();
  state.SetItemsProcessed(state.iterations() * cfg.num_layers);
  state.SetLabel(ChunkCodecName(codec));
}
BENCHMARK(BM_TwoStageSaveDecodeStep)
    ->ArgNames({"codec"})
    ->Arg(static_cast<int64_t>(ChunkCodec::kFp32))
    ->Arg(static_cast<int64_t>(ChunkCodec::kFp16))
    ->Arg(static_cast<int64_t>(ChunkCodec::kInt8));

void BM_SaveRestoreRoundTrip(benchmark::State& state) {
  const auto kind = static_cast<BackendKind>(state.range(0));
  const ModelConfig cfg = ModelConfig::TinyLlama(4, 128, 4);
  const int64_t n = state.range(1);
  BackendUnderTest b =
      MakeBackend(kind, "trip", EncodedChunkBytes(ChunkCodec::kFp32, 64, cfg.hidden_dim));
  Rng rng(1);
  Tensor batch({n, cfg.hidden_dim});
  for (int64_t i = 0; i < batch.numel(); ++i) {
    batch.at(i) = static_cast<float>(rng.NextNormal(0, 1));
  }
  std::vector<int32_t> positions(static_cast<size_t>(n));
  std::iota(positions.begin(), positions.end(), 0);
  int64_t ctx = 0;
  for (auto _ : state) {
    HiddenStateWriter writer(b.backend.get(), nullptr, cfg, ctx, 64);
    for (int64_t layer = 0; layer < cfg.num_layers; ++layer) {
      writer.OnLayerInput(layer, batch, positions.data(), n);
    }
    writer.Seal();
    HiddenStateReader reader(b.backend.get(), cfg, 64);
    Tensor back = reader.ReadLayer(ctx, cfg.num_layers - 1, n);
    benchmark::DoNotOptimize(back.data());
    b.backend->DeleteContext(ctx);
    ++ctx;
  }
  state.SetLabel(b.backend->Name());
  state.SetItemsProcessed(state.iterations() * n * cfg.num_layers);
}
BENCHMARK(BM_SaveRestoreRoundTrip)
    ->ArgNames({"backend", "tokens"})
    ->Args({kFile, 64})
    ->Args({kFile, 256})
    ->Args({kMemory, 64})
    ->Args({kMemory, 256})
    ->Args({kTiered, 64})
    ->Args({kTiered, 256});

// --- per-codec JSON sweep: the storage plane's persisted perf trajectory ---

double Seconds(const std::function<void()>& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

// Best-of-`trials` wall time for `reps` back-to-back runs of `fn`, per run.
double BestSecondsPerRun(int trials, int reps, const std::function<void()>& fn) {
  double best = 1e30;
  for (int t = 0; t < trials; ++t) {
    const double s = Seconds([&] {
      for (int r = 0; r < reps; ++r) {
        fn();
      }
    });
    best = std::min(best, s / reps);
  }
  return best;
}

// A/B comparison variant: alternates the two bodies trial-by-trial so a frequency or
// bandwidth shift mid-measurement biases both sides equally — sequential best-of
// blocks would credit whichever side ran during the quiet window. Returns
// {best_a, best_b} seconds per run.
std::pair<double, double> BestSecondsPerRunAb(int trials, int reps,
                                              const std::function<void()>& fa,
                                              const std::function<void()>& fb) {
  double best_a = 1e30;
  double best_b = 1e30;
  for (int t = 0; t < trials; ++t) {
    const double sa = Seconds([&] {
      for (int r = 0; r < reps; ++r) {
        fa();
      }
    });
    best_a = std::min(best_a, sa / reps);
    const double sb = Seconds([&] {
      for (int r = 0; r < reps; ++r) {
        fb();
      }
    });
    best_b = std::min(best_b, sb / reps);
  }
  return {best_a, best_b};
}

// --- per-ISA codec kernel rows: every tier this CPU can execute, forced in turn ---

// GB/s of `trials` timings of `reps` back-to-back runs of `fn` moving `gb` each: the
// median and quartiles, so two rows can be told apart only past their spread.
struct GbPerSec {
  double q1;
  double median;
  double q3;
};

GbPerSec GbPerSecQuartiles(double gb, int trials, int reps,
                           const std::function<void()>& fn) {
  Histogram rates;
  for (int t = 0; t < trials; ++t) {
    const double s = Seconds([&] {
      for (int r = 0; r < reps; ++r) {
        fn();
      }
    });
    rates.Add(gb * reps / s);
  }
  return {rates.Percentile(25.0), rates.Median(), rates.Percentile(75.0)};
}

JsonValue EmitSimdKernelSweep() {
  PrintTitle("per-ISA codec kernels (one 64-token x 4096-dim chunk worth of rows)");
  constexpr int64_t kN = 64 * 4096;
  constexpr int kTrials = 9;
  constexpr int kReps = 16;
  Rng rng(11);
  std::vector<float> src(kN), back(kN);
  for (auto& v : src) {
    v = static_cast<float>(rng.NextNormal(0, 1));
  }
  std::vector<uint16_t> halfs(kN);
  std::vector<int8_t> quants(kN);
  const float max_abs0 = CodecKernelsFor(SimdTier::kScalar).max_abs(src.data(), kN);
  const float scale = max_abs0 > 0.0f ? max_abs0 / 127.0f : 1.0f;
  const float inv_scale = 1.0f / scale;

  const SimdTier prev = ActiveSimdTier();
  const SimdTier detected = DetectedSimdTier();
  const double fp32_gb = static_cast<double>(kN) * sizeof(float) / 1e9;
  JsonValue rows = JsonValue::Array();
  double scalar_decode = 0.0;
  double scalar_crc = 0.0;
  std::printf("  %-7s | %8s %8s %8s %8s %8s %8s | %s\n", "tier", "f16 enc", "f16 dec",
              "max_abs", "i8 quant", "i8 deq", "crc32c",
              "median GB/s of fp32-side data");
  for (int t = 0; t <= static_cast<int>(detected); ++t) {
    const SimdTier tier = static_cast<SimdTier>(t);
    ForceSimdTier(tier);
    const CodecKernels& k = CodecKernelsFor(tier);
    const GbPerSec enc = GbPerSecQuartiles(fp32_gb, kTrials, kReps, [&] {
      k.fp16_encode(src.data(), halfs.data(), kN);
      benchmark::DoNotOptimize(halfs.data());
    });
    const GbPerSec dec = GbPerSecQuartiles(fp32_gb, kTrials, kReps, [&] {
      k.fp16_decode(halfs.data(), back.data(), kN);
      benchmark::DoNotOptimize(back.data());
    });
    const GbPerSec abs = GbPerSecQuartiles(fp32_gb, kTrials, kReps, [&] {
      float m = k.max_abs(src.data(), kN);
      benchmark::DoNotOptimize(m);
    });
    const GbPerSec qnt = GbPerSecQuartiles(fp32_gb, kTrials, kReps, [&] {
      k.int8_quantize(src.data(), inv_scale, quants.data(), kN);
      benchmark::DoNotOptimize(quants.data());
    });
    const GbPerSec deq = GbPerSecQuartiles(fp32_gb, kTrials, kReps, [&] {
      k.int8_dequantize(quants.data(), scale, back.data(), kN);
      benchmark::DoNotOptimize(back.data());
    });
    // CRC32C over the same bytes the verified read path checksums (the integrity
    // plane's kernel — SSE4.2 `crc32` above the scalar tier).
    const GbPerSec crc = GbPerSecQuartiles(fp32_gb, kTrials, kReps, [&] {
      uint32_t c = k.crc32c(0xFFFFFFFFu, src.data(),
                            kN * static_cast<int64_t>(sizeof(float)));
      benchmark::DoNotOptimize(c);
    });
    if (tier == SimdTier::kScalar) {
      scalar_decode = dec.median;
      scalar_crc = crc.median;
    }
    std::printf(
        "  %-7s | %8.2f %8.2f %8.2f %8.2f %8.2f %8.2f | f16-dec %0.2fx, crc %0.2fx scalar\n",
        SimdTierName(tier), enc.median, dec.median, abs.median, qnt.median, deq.median,
        crc.median, dec.median / scalar_decode, crc.median / scalar_crc);
    JsonValue row = JsonValue::Object();
    row.Set("tier", SimdTierName(tier)).Set("elements", kN).Set("trials", kTrials);
    for (const auto& [name, q] : {std::pair<const char*, GbPerSec>{"fp16_encode", enc},
                                  {"fp16_decode", dec},
                                  {"max_abs", abs},
                                  {"int8_quantize", qnt},
                                  {"int8_dequantize", deq},
                                  {"crc32c", crc}}) {
      const std::string key = std::string(name) + "_gb_per_s";
      row.Set(key, q.median).Set(key + "_q1", q.q1).Set(key + "_q3", q.q3);
    }
    row.Set("fp16_decode_speedup_vs_scalar", dec.median / scalar_decode)
        .Set("crc32c_speedup_vs_scalar", crc.median / scalar_crc);
    rows.Push(std::move(row));
  }
  ForceSimdTier(prev);
  return rows;
}

// --- batched vs serial reads: one ReadChunks call against the per-chunk loop ---

JsonValue EmitBatchedVsSerialRead() {
  PrintTitle("batched vs serial FileBackend reads (4-layer context, 64 KiB chunks)");
  constexpr int64_t kChunkBytes = 64 * 1024;
  constexpr int64_t kLayers = 4;
  constexpr int64_t kChunksPerLayer = 16;
  constexpr int64_t kChunks = kLayers * kChunksPerLayer;
  FileBackend file(TempDirs("batchread", 4), kChunkBytes);
  std::vector<char> payload(static_cast<size_t>(kChunkBytes), 'b');
  std::vector<ChunkKey> keys;
  for (int64_t layer = 0; layer < kLayers; ++layer) {
    for (int64_t c = 0; c < kChunksPerLayer; ++c) {
      keys.push_back({1, layer, c});
      file.WriteChunk(keys.back(), payload.data(), kChunkBytes);
    }
  }
  std::vector<char> buf(static_cast<size_t>(kChunks * kChunkBytes));
  const double serial_s = BestSecondsPerRun(7, 4, [&] {
    for (int64_t i = 0; i < kChunks; ++i) {
      benchmark::DoNotOptimize(
          file.ReadChunk(keys[static_cast<size_t>(i)], buf.data() + i * kChunkBytes,
                         kChunkBytes));
    }
  });
  std::vector<ChunkReadRequest> reqs(static_cast<size_t>(kChunks));
  const double batched_s = BestSecondsPerRun(7, 4, [&] {
    for (int64_t i = 0; i < kChunks; ++i) {
      reqs[static_cast<size_t>(i)] = {keys[static_cast<size_t>(i)],
                                      buf.data() + i * kChunkBytes, kChunkBytes};
    }
    file.ReadChunks(reqs);
    benchmark::DoNotOptimize(buf.data());
  });

  // The same pattern under the paper-testbed byte model: queue-depth-1 serial reads
  // pay per-IO device latency and stream from one SSD; a batched submission pays one
  // latency and stripes across all four.
  const StorageIoModel model(Platform::DefaultTestbed(1, 4));
  const IoPattern pattern{kChunks, kChunkBytes};
  const double model_serial_s = model.SerialReadTime(pattern);
  const double model_batched_s = model.ReadTime(pattern);

  std::printf("  measured: serial %7.1fus  batched %7.1fus  -> %0.2fx\n", serial_s * 1e6,
              batched_s * 1e6, serial_s / batched_s);
  std::printf("  modeled:  serial %7.1fus  batched %7.1fus  -> %0.2fx (testbed SSDs)\n",
              model_serial_s * 1e6, model_batched_s * 1e6, model_serial_s / model_batched_s);
  JsonValue section = JsonValue::Object();
  section.Set("chunks", kChunks)
      .Set("chunk_bytes", kChunkBytes)
      .Set("layers", kLayers)
      .Set("serial_read_s", serial_s)
      .Set("batched_read_s", batched_s)
      .Set("measured_speedup", serial_s / batched_s)
      .Set("model_serial_read_s", model_serial_s)
      .Set("model_batched_read_s", model_batched_s)
      .Set("model_speedup", model_serial_s / model_batched_s);
  return section;
}

// --- verified vs unverified reads: what the v2 CRC costs on the restore path ---

JsonValue EmitVerifiedReadOverhead() {
  PrintTitle("verified (CRC32C) vs unverified chunk reads");
  // Sealed v2 chunks at the hidden-state geometry: 4 x 4096 FP32 rows per chunk.
  constexpr int64_t kRows = 4, kCols = 4096;
  const int64_t chunk_bytes = EncodedChunkBytes(ChunkCodec::kFp32, kRows, kCols);
  constexpr int64_t kChunks = 64;
  Rng rng(13);
  std::vector<uint8_t> chunk(static_cast<size_t>(chunk_bytes));
  {
    std::vector<float> row(kCols);
    for (int64_t r = 0; r < kRows; ++r) {
      for (auto& v : row) {
        v = static_cast<float>(rng.NextNormal(0, 1));
      }
      EncodeRowsInto(ChunkCodec::kFp32, row.data(), kCols, 1, kCols,
                     chunk.data() + sizeof(ChunkHeader) +
                         r * CodecRowBytes(ChunkCodec::kFp32, kCols));
    }
    WriteChunkHeader(ChunkCodec::kFp32, kRows, kCols, chunk.data());
  }

  JsonValue rows = JsonValue::Array();
  std::printf("  %-7s | %9s %9s | %s\n", "backend", "unverif", "verified",
              "GB/s (overhead)");
  for (const BackendKind kind : {kMemory, kFile}) {
    BackendUnderTest b = MakeBackend(kind, "verify", chunk_bytes);
    for (int64_t c = 0; c < kChunks; ++c) {
      b.backend->WriteChunk({1, 0, c}, chunk.data(), chunk_bytes);
    }
    std::vector<char> buf(static_cast<size_t>(chunk_bytes));
    int64_t idx = 0;
    const auto [raw_s, verified_s] = BestSecondsPerRunAb(
        7, 256,
        [&] {
          benchmark::DoNotOptimize(b.backend->ReadChunkUnverified(
              {1, 0, idx++ % kChunks}, buf.data(), chunk_bytes));
        },
        [&] {
          benchmark::DoNotOptimize(
              b.backend->ReadChunk({1, 0, idx++ % kChunks}, buf.data(), chunk_bytes));
        });
    const double gb = static_cast<double>(chunk_bytes) / 1e9;
    const double overhead = verified_s / raw_s - 1.0;
    std::printf("  %-7s | %9.2f %9.2f | %+0.1f%%\n", BackendKindName(kind), gb / raw_s,
                gb / verified_s, overhead * 100.0);
    JsonValue row = JsonValue::Object();
    row.Set("backend", BackendKindName(kind))
        .Set("chunk_bytes", chunk_bytes)
        .Set("unverified_gb_per_s", gb / raw_s)
        .Set("verified_gb_per_s", gb / verified_s)
        .Set("crc_overhead_pct", overhead * 100.0);
    rows.Push(std::move(row));
  }
  return rows;
}

// The restore hot path itself: HiddenStateReader::ReadLayerInto (batched verified
// reads + fused decode, exactly what RestoreContext runs per layer) against the SAME
// reader with verification switched off — the two flavors share every instruction
// except the CRC pass, so the delta is the v2 format's read-path cost.
JsonValue EmitRestorePathCrcOverhead() {
  PrintTitle("restore hot path: ReadLayerInto, verified vs unverified");
  const ModelConfig cfg = ModelConfig::TinyLlama(1, 4096, 32);
  const int64_t n = 1024, chunk_tokens = 64;
  const int64_t cols = cfg.hidden_dim;
  const int64_t num_chunks = (n + chunk_tokens - 1) / chunk_tokens;
  const int64_t chunk_cap = EncodedChunkBytes(ChunkCodec::kFp32, chunk_tokens, cols);
  Rng rng(17);
  Tensor batch({n, cols});
  for (int64_t i = 0; i < batch.numel(); ++i) {
    batch.at(i) = static_cast<float>(rng.NextNormal(0, 1));
  }
  std::vector<int32_t> positions(static_cast<size_t>(n));
  std::iota(positions.begin(), positions.end(), 0);

  JsonValue rows = JsonValue::Array();
  std::printf("  %-7s %-5s | %9s %9s | %s\n", "backend", "codec", "unverif",
              "verified", "logical GB/s (overhead)");
  for (const BackendKind kind : {kMemory, kFile}) {
    for (const ChunkCodec codec : {ChunkCodec::kFp16, ChunkCodec::kFp32}) {
      BackendUnderTest b = MakeBackend(kind, "crcpath", chunk_cap);
      HiddenStateWriter writer(b.backend.get(), nullptr, cfg, 1, chunk_tokens, codec);
      writer.OnLayerInput(0, batch, positions.data(), n);
      writer.Seal();

      Tensor out({n, cols});
      // The unverified baseline is the SAME ReadLayerInto code path with the CRC pass
      // switched off (ReadChunksUnverified) — every other instruction is shared, so
      // the delta is exactly what verification costs.
      HiddenStateReader unverified_reader(b.backend.get(), cfg, chunk_tokens,
                                          /*verify=*/false);
      HiddenStateReader reader(b.backend.get(), cfg, chunk_tokens);
      const auto [raw_s, verified_s] = BestSecondsPerRunAb(
          7, 8,
          [&] {
            if (!unverified_reader.ReadLayerInto(1, 0, n, out.data())) {
              std::abort();
            }
            benchmark::DoNotOptimize(out.data());
          },
          [&] {
            if (!reader.ReadLayerInto(1, 0, n, out.data())) {
              std::abort();
            }
            benchmark::DoNotOptimize(out.data());
          });

      const double gb = static_cast<double>(n * cols) * sizeof(float) / 1e9;
      const double overhead = verified_s / raw_s - 1.0;
      std::printf("  %-7s %-5s | %9.2f %9.2f | %+0.1f%%\n", BackendKindName(kind),
                  ChunkCodecName(codec), gb / raw_s, gb / verified_s, overhead * 100.0);
      JsonValue row = JsonValue::Object();
      row.Set("backend", BackendKindName(kind))
          .Set("codec", ChunkCodecName(codec))
          .Set("tokens", n)
          .Set("hidden_dim", cols)
          .Set("unverified_gb_per_s", gb / raw_s)
          .Set("verified_gb_per_s", gb / verified_s)
          .Set("crc_overhead_pct", overhead * 100.0);
      rows.Push(std::move(row));
      b.backend->DeleteContext(1);
    }
  }

  // The tmpfs rows above are the worst case for verification: "storage" IS DRAM, so
  // there is no device transfer to hide the checksum behind and every checked byte
  // shows up as wall time (a single crc32q port moves at most 8 bytes/cycle — the
  // hard ceiling of any checksummed read — and this testbed has ONE core, so the
  // parallel verify paths collapse to serial too). On the paper testbed the restore
  // stream is DEVICE-bound: four striped NVMe SSDs feed ~5 GB/s per device while
  // each device's read thread (FileBackend::ReadChunks' per-device fan-out) runs the
  // CRC core-side at ~20 GB/s. The CRC is chainable, so a pipelined reader verifies
  // 64 KiB granules as their segments land and only the LAST granule's checksum sits
  // outside the device stream. Model that regime next to the measurement — the same
  // measured/modeled split EmitBatchedVsSerialRead reports.
  std::vector<uint8_t> crcbuf(1 << 20, 0xa5);
  const double crc_s = BestSecondsPerRun(5, 8, [&] {
    benchmark::DoNotOptimize(Crc32c(crcbuf.data(), static_cast<int64_t>(crcbuf.size())));
  });
  const double crc_bps = static_cast<double>(crcbuf.size()) / crc_s;
  const StorageIoModel model(Platform::DefaultTestbed(1, 4));
  const int num_devices = model.platform().ssds_per_gpu();
  constexpr int64_t kVerifyGranule = 64 * 1024;
  JsonValue modeled = JsonValue::Array();
  std::printf(
      "  modeled (testbed SSDs, per-device pipelined verify; crc %.1f GB/s/core):\n",
      crc_bps / 1e9);
  for (const ChunkCodec codec : {ChunkCodec::kFp16, ChunkCodec::kFp32}) {
    const int64_t enc_chunk = EncodedChunkBytes(codec, chunk_tokens, cols);
    const double io_s = model.ReadTime(IoPattern{num_chunks, enc_chunk});
    const double crc_total_s =
        static_cast<double>(num_chunks) * static_cast<double>(enc_chunk) / crc_bps;
    // Each device thread checksums only its own stream; the drain tail is the final
    // granule, verified after its last byte lands.
    const double crc_wall_s = crc_total_s / num_devices;
    const double tail_s =
        static_cast<double>(std::min(enc_chunk, kVerifyGranule)) / crc_bps;
    const double model_verified_s =
        std::max(io_s, model.DeviceLatency() + crc_wall_s) + tail_s;
    const double model_overhead = model_verified_s / io_s - 1.0;
    std::printf("    file    %-5s | %8.1fus %8.1fus | %+0.1f%%\n", ChunkCodecName(codec),
                io_s * 1e6, model_verified_s * 1e6, model_overhead * 100.0);
    JsonValue row = JsonValue::Object();
    row.Set("backend", "file")
        .Set("codec", ChunkCodecName(codec))
        .Set("tokens", n)
        .Set("hidden_dim", cols)
        .Set("model_unverified_s", io_s)
        .Set("model_verified_s", model_verified_s)
        .Set("crc_gb_per_s", crc_bps / 1e9)
        .Set("crc_overhead_pct", model_overhead * 100.0);
    modeled.Push(std::move(row));
  }
  JsonValue section = JsonValue::Object();
  section.Set("measured", std::move(rows)).Set("modeled", std::move(modeled));
  return section;
}

void EmitCodecSweepJson() {
  PrintTitle("per-codec storage sweep (BENCH_micro_storage.json)");
  const ModelConfig cfg = ModelConfig::TinyLlama(4, 512, 8);
  const int64_t n = 1024;
  const int64_t chunk_tokens = 64;
  const int64_t logical_bytes =
      cfg.num_layers * n * cfg.hidden_dim * static_cast<int64_t>(sizeof(float));
  Rng rng(9);
  Tensor batch({n, cfg.hidden_dim});
  for (int64_t i = 0; i < batch.numel(); ++i) {
    batch.at(i) = static_cast<float>(rng.NextNormal(0, 1));
  }
  std::vector<int32_t> positions(static_cast<size_t>(n));
  std::iota(positions.begin(), positions.end(), 0);

  // Each row is the median of kSweepReps saves, each into a fresh backend, and of the
  // read that follows each save. The file rows keep fsync_writes on, so one save's
  // time follows the disk's mood; the quartiles say how far.
  constexpr int kSweepReps = 7;
  JsonValue rows = JsonValue::Array();
  std::printf("  %-7s %-7s | %9s %6s | %9s %9s | %9s\n", "backend", "codec", "enc MB",
              "ratio", "save MB/s", "read MB/s", "sim TTFT");
  for (const BackendKind kind : {kFile, kMemory, kTiered}) {
    for (const ChunkCodec codec :
         {ChunkCodec::kFp32, ChunkCodec::kFp16, ChunkCodec::kInt8}) {
      Histogram save, read;  // MB/s
      int64_t encoded_bytes = 0;
      for (int rep = 0; rep < kSweepReps; ++rep) {
        const std::string tag = std::string("sweep_") + BackendKindName(kind) +
                                ChunkCodecName(codec) + "_" + std::to_string(rep);
        BackendUnderTest b =
            MakeBackend(kind, tag.c_str(),
                        EncodedChunkBytes(ChunkCodec::kFp32, chunk_tokens, cfg.hidden_dim));
        HiddenStateWriter writer(b.backend.get(), nullptr, cfg, 1, chunk_tokens, codec);
        const double save_s = Seconds([&] {
          for (int64_t layer = 0; layer < cfg.num_layers; ++layer) {
            writer.OnLayerInput(layer, batch, positions.data(), n);
          }
          writer.Seal();
        });
        encoded_bytes = b.backend->bytes_stored();
        HiddenStateReader reader(b.backend.get(), cfg, chunk_tokens);
        Tensor out({n, cfg.hidden_dim});
        const double read_s = Seconds([&] {
          for (int64_t layer = 0; layer < cfg.num_layers; ++layer) {
            reader.ReadLayerInto(1, layer, n, out.data());
          }
        });
        save.Add(static_cast<double>(logical_bytes) / save_s / 1e6);
        read.Add(static_cast<double>(logical_bytes) / read_s / 1e6);
        b.backend->DeleteContext(1);
      }
      // Simulated restore TTFT on the paper's testbed with this codec's byte model.
      const Restorer restorer(Platform::DefaultTestbed(1, 4), ModelConfig::Llama2_7B(),
                              kDefaultChunkTokens, codec);
      const double sim_ttft =
          restorer.Restore(RestoreMethod::kHCache, /*history_tokens=*/2048).total_time;

      const double ratio = static_cast<double>(logical_bytes) / encoded_bytes;
      std::printf("  %-7s %-7s | %9.2f %5.2fx | %9.0f %9.0f | %8.2fms\n",
                  BackendKindName(kind), ChunkCodecName(codec), encoded_bytes / 1e6, ratio,
                  save.Median(), read.Median(), sim_ttft * 1e3);
      JsonValue row = JsonValue::Object();
      row.Set("backend", BackendKindName(kind))
          .Set("codec", ChunkCodecName(codec))
          .Set("tokens", n)
          .Set("layers", cfg.num_layers)
          .Set("hidden_dim", cfg.hidden_dim)
          .Set("logical_bytes", logical_bytes)
          .Set("encoded_bytes", encoded_bytes)
          .Set("compression_vs_fp32", ratio)
          .Set("reps", kSweepReps)
          .Set("save_mb_per_s", save.Median())
          .Set("save_mb_per_s_q1", save.Percentile(25))
          .Set("save_mb_per_s_q3", save.Percentile(75))
          .Set("read_mb_per_s", read.Median())
          .Set("read_mb_per_s_q1", read.Percentile(25))
          .Set("read_mb_per_s_q3", read.Percentile(75))
          .Set("sim_restore_ttft_s_llama7b_2048", sim_ttft);
      rows.Push(std::move(row));
    }
  }
  JsonValue doc = JsonValue::Object();
  doc.Set("bench", "micro_storage")
      .Set("note",
           "functional two-stage save + fused-decode read of a 4-layer x 1024-token x "
           "512-dim context per backend per codec; MB/s are FP32-equivalent logical "
           "rates, the median [q1, q3] of `reps` saves (each into a fresh backend, "
           "fsync_writes on for file) and of the read after each; sim TTFT is "
           "Restorer(kHCache) for Llama2-7B n=2048 on the paper testbed under the "
           "codec's byte model")
      .Set("simd_detected", SimdTierName(DetectedSimdTier()))
      .Set("simd_active", SimdTierName(ActiveSimdTier()))
      .Set("simd_kernels", EmitSimdKernelSweep())
      .Set("verified_read", EmitVerifiedReadOverhead())
      .Set("restore_path_crc", EmitRestorePathCrcOverhead())
      .Set("batched_read", EmitBatchedVsSerialRead())
      .Set("rows", std::move(rows));
  WriteJsonFile("BENCH_micro_storage.json", doc);
}

}  // namespace
}  // namespace hcache

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  hcache::EmitCodecSweepJson();
  for (const auto& base : hcache::TempBases()) {
    std::error_code ec;
    std::filesystem::remove_all(base, ec);
  }
  return 0;
}
