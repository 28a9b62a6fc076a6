// Microbenchmarks (google-benchmark) for the functional-plane kernels: GEMM, the
// restoration projection, RoPE, softmax, and a tiny-model forward pass. These measure
// this host's CPU, not the paper's GPUs — they exist to keep the functional plane's
// performance honest (and to catch accidental kernel regressions).
//
// Besides the google-benchmark table, main() runs a thread-scaling sweep over the
// acceptance-gate shapes (1024^3 GemmNN, the 256-token KV projection through a packed
// [W_k; W_v], the large-k GemmNT point, one decode step of the serving model, its
// attention-heavy 7-token prefill and decode step at a 283-token context, one rag
// layer's softmax rows, and its 20-token prefill at a 350-token context) and records
// ops/s, thread count, and speedup vs 1 thread in BENCH_micro_tensor.json — the repo's
// persisted perf trajectory.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <functional>
#include <numeric>
#include <optional>
#include <thread>

#include "bench/bench_util.h"
#include "src/common/histogram.h"
#include "src/common/rng.h"
#include "src/common/thread_pool.h"
#include "src/model/transformer.h"
#include "src/tensor/gemm.h"
#include "src/tensor/ops.h"
#include "src/tensor/rope.h"

namespace hcache {
namespace {

Tensor RandomTensor(int64_t r, int64_t c, uint64_t seed) {
  Rng rng(seed);
  Tensor t({r, c});
  for (int64_t i = 0; i < t.numel(); ++i) {
    t.at(i) = static_cast<float>(rng.NextNormal(0, 1));
  }
  return t;
}

void BM_GemmNN(benchmark::State& state) {
  const int64_t n = state.range(0);
  Tensor a = RandomTensor(n, n, 1), b = RandomTensor(n, n, 2), c({n, n});
  for (auto _ : state) {
    GemmNN(a.data(), b.data(), c.data(), n, n, n);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(GemmFlops(n, n, n)));
}
BENCHMARK(BM_GemmNN)->Arg(64)->Arg(128)->Arg(256);

void BM_KvProjection(benchmark::State& state) {
  // The restoration hot loop: [tokens, hidden] x [W_k; W_v]^T, weights packed at load.
  const int64_t tokens = state.range(0);
  const int64_t hidden = 256;
  Tensor x = RandomTensor(tokens, hidden, 3);
  const PackedWeight w = PackedWeight::Stack(RandomTensor(hidden / 2, hidden, 4),
                                             RandomTensor(hidden / 2, hidden, 13));
  for (auto _ : state) {
    Tensor k = MatMulTransposedB(x, w);
    benchmark::DoNotOptimize(k.data());
  }
  state.SetItemsProcessed(state.iterations() * tokens);
}
BENCHMARK(BM_KvProjection)->Arg(16)->Arg(64)->Arg(256);

void BM_GemmNTLargeK(benchmark::State& state) {
  // The satellite regression gate for GemmNT's cache blocking: a deep-k projection
  // ([256, k] x [256, k]^T) that thrashed L2 under the old unblocked dot-product loop.
  const int64_t k = state.range(0);
  Tensor x = RandomTensor(256, k, 11), w = RandomTensor(256, k, 12), c({256, 256});
  for (auto _ : state) {
    GemmNT(x.data(), w.data(), c.data(), 256, k, 256);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(GemmFlops(256, k, 256)));
}
BENCHMARK(BM_GemmNTLargeK)->Arg(1024)->Arg(4096);

void BM_Rope(benchmark::State& state) {
  const int64_t tokens = state.range(0);
  Tensor x = RandomTensor(tokens, 256, 5);
  for (auto _ : state) {
    ApplyRopeContiguous(x, 0, 4, 64);
    benchmark::DoNotOptimize(x.data());
  }
  state.SetItemsProcessed(state.iterations() * tokens);
}
BENCHMARK(BM_Rope)->Arg(64)->Arg(512);

void BM_Softmax(benchmark::State& state) {
  Tensor x = RandomTensor(64, state.range(0), 6);
  for (auto _ : state) {
    Tensor t = x.Clone();
    SoftmaxLastDim(t);
    benchmark::DoNotOptimize(t.data());
  }
}
BENCHMARK(BM_Softmax)->Arg(128)->Arg(1024);

void BM_TinyModelPrefill(benchmark::State& state) {
  const ModelConfig cfg = ModelConfig::TinyLlama(4, 64, 4);
  const ModelWeights weights = ModelWeights::Random(cfg, 7);
  Transformer model(&weights);
  Rng rng(8);
  std::vector<int32_t> tokens(static_cast<size_t>(state.range(0)));
  for (auto& t : tokens) {
    t = static_cast<int32_t>(rng.NextBounded(static_cast<uint64_t>(cfg.vocab_size)));
  }
  for (auto _ : state) {
    KvBlockPool pool(KvPoolConfig::ForModel(cfg, 64, 16));
    PagedKvSequence seq(&pool);
    Tensor out = model.Forward(tokens, &seq);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_TinyModelPrefill)->Arg(32)->Arg(128);

void BM_RestoreLayerKv(benchmark::State& state) {
  const ModelConfig cfg = ModelConfig::TinyLlama(4, 64, 4);
  const ModelWeights weights = ModelWeights::Random(cfg, 9);
  Transformer model(&weights);
  const int64_t n = state.range(0);
  Tensor hidden = RandomTensor(n, cfg.hidden_dim, 10);
  std::vector<int32_t> positions(static_cast<size_t>(n));
  std::iota(positions.begin(), positions.end(), 0);
  for (auto _ : state) {
    Tensor k, v;
    model.RestoreLayerKv(1, hidden, positions.data(), &k, &v);
    benchmark::DoNotOptimize(k.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_RestoreLayerKv)->Arg(64)->Arg(256);

// ---- JSON thread-scaling sweep -------------------------------------------------------

// The pre-PR kernels, kept verbatim as live baselines so the JSON records the actual
// packed-kernel speedup on whatever host runs the bench (the acceptance gates are
// >=3x on the 1024^3 GEMM and >=1.5x on the 256-token KV projection).
void PreprScalarGemmNN(const float* a, const float* b, float* c, int64_t m, int64_t k,
                       int64_t n) {
  constexpr int64_t kBlockM = 64, kBlockK = 256, kBlockN = 256;
  std::memset(c, 0, static_cast<size_t>(m) * static_cast<size_t>(n) * sizeof(float));
  for (int64_t i0 = 0; i0 < m; i0 += kBlockM) {
    const int64_t i_end = std::min(i0 + kBlockM, m);
    for (int64_t p0 = 0; p0 < k; p0 += kBlockK) {
      const int64_t p_end = std::min(p0 + kBlockK, k);
      for (int64_t j0 = 0; j0 < n; j0 += kBlockN) {
        const int64_t j_end = std::min(j0 + kBlockN, n);
        for (int64_t i = i0; i < i_end; ++i) {
          const float* a_row = a + i * k;
          float* c_row = c + i * n;
          for (int64_t p = p0; p < p_end; ++p) {
            const float a_ip = a_row[p];
            const float* b_row = b + p * n;
            for (int64_t j = j0; j < j_end; ++j) {
              c_row[j] += a_ip * b_row[j];
            }
          }
        }
      }
    }
  }
}

void PreprScalarGemmNT(const float* a, const float* b, float* c, int64_t m, int64_t k,
                       int64_t n) {
  for (int64_t i = 0; i < m; ++i) {
    const float* a_row = a + i * k;
    float* c_row = c + i * n;
    for (int64_t j = 0; j < n; ++j) {
      const float* b_row = b + j * k;
      float acc = 0.0f;
      for (int64_t p = 0; p < k; ++p) {
        acc += a_row[p] * b_row[p];
      }
      c_row[j] = acc;
    }
  }
}

// Each row's wall time is the median of kTimedReps runs after one warmup run; the
// quartiles say how far one run strays from it.
constexpr int kTimedReps = 7;

// Wall times (s) of kTimedReps runs of `fn` after one warmup run; `setup`, when set,
// runs untimed before every run.
template <typename Fn>
Histogram TimeSeconds(Fn&& fn, const std::function<void()>& setup = {}) {
  Histogram seconds;
  for (int r = 0; r <= kTimedReps; ++r) {  // run 0 is the warmup
    if (setup) {
      setup();
    }
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const double s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    if (r > 0) {
      seconds.Add(s);
    }
  }
  return seconds;
}

struct SweepCase {
  const char* name;
  double flops;                   // per invocation (0 when items are the better unit)
  double items;                   // per invocation
  std::function<void()> run;
  std::function<void()> prepr;    // pre-PR scalar baseline (may be empty)
  std::function<void()> setup = {};  // untimed, before each run (may be empty)
};

void WriteMicroTensorJson() {
  const size_t hw = std::thread::hardware_concurrency();
  const size_t max_threads = hw > 0 ? hw : 1;

  // Operands for the acceptance-gate shapes. The KV projection's [W_k; W_v] is
  // [256, 256] (two 128-row halves), the same GEMM shape as the pre-PR baseline's.
  Tensor a = RandomTensor(1024, 1024, 21), b = RandomTensor(1024, 1024, 22),
         c({1024, 1024});
  Tensor px = RandomTensor(256, 256, 23), pw = RandomTensor(256, 256, 24);
  const PackedWeight pkv =
      PackedWeight::Stack(RandomTensor(128, 256, 24), RandomTensor(128, 256, 27));
  Tensor lx = RandomTensor(256, 4096, 25), lw = RandomTensor(256, 4096, 26),
         lc({256, 256});

  // One decode step of the serving model (hcache_serve's TinyLlama(8, 256, 4), vocab
  // 1024) after a 64-token prompt: every projection GEMM at m = 1.
  ModelConfig dcfg = ModelConfig::TinyLlama(8, 256, 4);
  dcfg.vocab_size = 1024;
  const ModelWeights dweights = ModelWeights::Random(dcfg, 28);
  Transformer dmodel(&dweights);
  KvBlockPool dpool(KvPoolConfig::ForModel(dcfg, 64, 16));
  PagedKvSequence dseq(&dpool);
  std::vector<int32_t> dprompt(64);
  std::iota(dprompt.begin(), dprompt.end(), 0);
  dmodel.Forward(dprompt, &dseq);
  const int64_t dprompt_tokens = dseq.num_tokens();

  // The serving model's attention-heavy steps at the rag workload's 283-token context:
  // a 7-token prefill onto 276 cached tokens and one decode step onto 282; and a
  // rag-shaped 20-token prefill onto 350 cached tokens, whose K/V rows start 14 rows
  // into a 16-token block. Each run starts from a freshly prefilled sequence, built
  // untimed.
  KvBlockPool apool(KvPoolConfig::ForModel(dcfg, 32, 16));
  std::optional<PagedKvSequence> aseq;
  const auto cached_context = [&](int64_t tokens) {
    aseq.reset();
    aseq.emplace(&apool);
    std::vector<int32_t> context(static_cast<size_t>(tokens));
    std::iota(context.begin(), context.end(), 0);
    dmodel.Forward(context, &*aseq);
  };

  std::vector<SweepCase> cases;
  cases.push_back({"gemm_nn_1024", GemmFlops(1024, 1024, 1024), 1.0,
                   [&] { GemmNN(a.data(), b.data(), c.data(), 1024, 1024, 1024); },
                   [&] { PreprScalarGemmNN(a.data(), b.data(), c.data(), 1024, 1024,
                                           1024); }});
  cases.push_back({"kv_projection_256", GemmFlops(256, 256, 256), 256.0,
                   [&] {
                     Tensor k = MatMulTransposedB(px, pkv);
                     benchmark::DoNotOptimize(k.data());
                   },
                   [&] {
                     Tensor k({256, 256});
                     PreprScalarGemmNT(px.data(), pw.data(), k.data(), 256, 256, 256);
                     benchmark::DoNotOptimize(k.data());
                   }});
  cases.push_back({"gemm_nt_256x4096x256", GemmFlops(256, 4096, 256), 1.0,
                   [&] { GemmNT(lx.data(), lw.data(), lc.data(), 256, 4096, 256); },
                   [&] { PreprScalarGemmNT(lx.data(), lw.data(), lc.data(), 256, 4096,
                                           256); }});
  // Each run appends one token; the context stays within the 64-block pool because
  // the sweep times kTimedReps + 1 runs per thread count.
  cases.push_back({"decode_step", 0.0, 1.0,
                   [&] {
                     const auto token = static_cast<int32_t>(dseq.num_tokens() % 1024);
                     Tensor out = dmodel.Forward({token}, &dseq);
                     benchmark::DoNotOptimize(out.data());
                   },
                   {}});
  cases.push_back({"prefill_7_at_283", 0.0, 7.0,
                   [&] {
                     Tensor out = dmodel.Forward({1, 2, 3, 4, 5, 6, 7}, &*aseq);
                     benchmark::DoNotOptimize(out.data());
                   },
                   {}, [&] { cached_context(276); }});
  cases.push_back({"decode_at_283", 0.0, 1.0,
                   [&] {
                     Tensor out = dmodel.Forward({7}, &*aseq);
                     benchmark::DoNotOptimize(out.data());
                   },
                   {}, [&] { cached_context(282); }});
  // One rag layer's softmax rows: a 20-token prefill at ~370 keys over 4 heads. Each run
  // starts from the same scores, copied in untimed.
  const Tensor soft_in = RandomTensor(80, 370, 29);
  Tensor soft({80, 370});
  cases.push_back({"softmax_80x370", 0.0, 80.0, [&] { SoftmaxLastDim(soft); }, {}, [&] {
                     std::memcpy(soft.data(), soft_in.data(), sizeof(float) * soft_in.numel());
                   }});
  std::vector<int32_t> rag_prompt(20);
  std::iota(rag_prompt.begin(), rag_prompt.end(), 1);
  cases.push_back({"prefill_20_at_350", 0.0, 20.0,
                   [&] {
                     Tensor out = dmodel.Forward(rag_prompt, &*aseq);
                     benchmark::DoNotOptimize(out.data());
                   },
                   {}, [&] { cached_context(350); }});

  JsonValue benches = JsonValue::Array();
  PrintSection("thread scaling (JSON sweep)");
  std::vector<size_t> thread_counts = {1};
  if (max_threads > 1) {
    thread_counts.push_back(max_threads);
  }
  for (auto& sc : cases) {
    double prepr_seconds = 0.0;
    if (sc.prepr) {
      const Histogram prepr = TimeSeconds(sc.prepr);
      prepr_seconds = prepr.Median();
      const double gflops = sc.flops > 0 ? sc.flops / prepr_seconds / 1e9 : 0.0;
      std::printf("  %-24s pre-PR scalar %.4f s  %7.2f GFLOP/s\n", sc.name,
                  prepr_seconds, gflops);
      JsonValue row = JsonValue::Object();
      row.Set("name", std::string(sc.name) + "_prepr_scalar")
          .Set("threads", static_cast<int64_t>(1))
          .Set("reps", kTimedReps)
          .Set("seconds", prepr_seconds)
          .Set("seconds_q1", prepr.Percentile(25))
          .Set("seconds_q3", prepr.Percentile(75))
          .Set("gflops", gflops)
          .Set("items_per_s", sc.items / prepr_seconds);
      benches.Push(std::move(row));
    }
    double serial_seconds = 0.0;
    for (const size_t threads : thread_counts) {
      ThreadPool::ResizeShared(threads);
      const Histogram timed = TimeSeconds(sc.run, sc.setup);
      const double s = timed.Median();
      if (threads == 1) {
        serial_seconds = s;
      }
      const double gflops = sc.flops > 0 ? sc.flops / s / 1e9 : 0.0;
      const double speedup = serial_seconds / s;
      const double vs_prepr = prepr_seconds > 0 ? prepr_seconds / s : 0.0;
      std::printf(
          "  %-24s threads=%-2zu  %.4f s  %7.2f GFLOP/s  speedup %.2fx  vs-pre-PR "
          "%.2fx\n",
          sc.name, threads, s, gflops, speedup, vs_prepr);
      JsonValue row = JsonValue::Object();
      row.Set("name", sc.name)
          .Set("threads", static_cast<int64_t>(threads))
          .Set("reps", kTimedReps)
          .Set("seconds", s)
          .Set("seconds_q1", timed.Percentile(25))
          .Set("seconds_q3", timed.Percentile(75))
          .Set("gflops", gflops)
          .Set("items_per_s", sc.items / s)
          .Set("speedup_vs_1thread", speedup)
          .Set("speedup_vs_prepr_scalar", vs_prepr);
      benches.Push(std::move(row));
    }
  }
  ThreadPool::ResizeShared(max_threads);
  std::printf("  decode_step context: %ld -> %ld tokens\n", static_cast<long>(dprompt_tokens),
              static_cast<long>(dseq.num_tokens()));

  JsonValue doc = JsonValue::Object();
  doc.Set("bench", "micro_tensor")
      .Set("hardware_concurrency", static_cast<int64_t>(max_threads))
      .Set("note",
           "seconds is the median [seconds_q1, seconds_q3] of `reps` runs after one "
           "warmup; speedup_vs_1thread compares the same packed kernel at 1 vs N "
           "shared-pool threads; speedup_vs_prepr_scalar compares against the pre-PR "
           "scalar kernels compiled at the same flags (*_prepr_scalar rows)")
      .Set("benchmarks", std::move(benches));
  WriteJsonFile("BENCH_micro_tensor.json", doc);
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
  hcache::WriteMicroTensorJson();
  return 0;
}
