#include "src/core/restorer.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

namespace hcache {
namespace {

constexpr int64_t kHistory = 1024;

// --- golden DES pin ---
//
// Every RestoreResult field of a sweep over methods × models × platforms × histories
// × codecs, pinned as hex floats. The table (restorer_golden.inc) was printed by
// DISABLED_PrintGoldenTable before the restore plan was shared between the DES and the
// engine; any change to the schedules the DES times shows up here.

struct GoldenRow {
  int method;
  int64_t history_tokens;
  // total_time, compute_busy, io_busy, compute_bubble, io_bubble, bytes_read,
  // hidden_bytes_read, flops, scheme.predicted_time, scheme.predicted_bubble
  double values[10];
  int64_t layers_hidden;
  int64_t layers_other;
  int complement;
};

const GoldenRow kGolden[] = {
#include "tests/core/restorer_golden.inc"
};

struct SweepCase {
  std::string label;
  RestoreResult result;
};

// The sweep, in table order. Per (model, platform, history, codec): the six methods,
// token-wise without and with tile rounding, then HCache pipeline-parallel over 1, 2
// and 4 stages (on the same platform with four GPUs, one per stage).
std::vector<SweepCase> GoldenSweep() {
  const std::pair<const char*, Platform> platforms[] = {
      {"testbed", Platform::DefaultTestbed(1, 4)},
      {"io-sufficient", Platform::IoSufficient()},
      {"compute-sufficient", Platform::ComputeSufficient()}};
  const RestoreMethod methods[] = {RestoreMethod::kRecompute,  RestoreMethod::kKvOffload,
                                   RestoreMethod::kHCache,     RestoreMethod::kHCacheOnly,
                                   RestoreMethod::kNaiveHybrid, RestoreMethod::kIdeal};
  std::vector<SweepCase> out;
  for (const ModelConfig& cfg :
       {ModelConfig::Llama2_7B(), ModelConfig::Llama2_13B(), ModelConfig::Opt30B()}) {
    for (const auto& [platform_name, platform] : platforms) {
      for (const int64_t n : {256, 1024, 8192}) {
        for (const ChunkCodec codec :
             {ChunkCodec::kFp16, ChunkCodec::kFp32, ChunkCodec::kInt8}) {
          const std::string prefix = cfg.name + " " + platform_name + " n=" +
                                     std::to_string(n) + " " + ChunkCodecName(codec) + " ";
          const Restorer r(platform, cfg, StorageLayout::kLayerChunked, kDefaultChunkTokens,
                           codec);
          for (const RestoreMethod m : methods) {
            out.push_back({prefix + RestoreMethodName(m), r.Restore(m, n)});
          }
          out.push_back({prefix + "token-wise", r.RestoreTokenWise(n, false)});
          out.push_back({prefix + "token-wise+round", r.RestoreTokenWise(n, true)});
          Platform four_gpus = platform;
          four_gpus.num_gpus = 4;
          const Restorer pp(four_gpus, cfg, StorageLayout::kLayerChunked, kDefaultChunkTokens,
                            codec);
          for (const int stages : {1, 2, 4}) {
            out.push_back({prefix + "pp" + std::to_string(stages),
                           pp.RestorePipelineParallel(RestoreMethod::kHCache, n, stages)});
          }
        }
      }
    }
  }
  return out;
}

std::vector<double> GoldenValues(const RestoreResult& r) {
  return {r.total_time,        r.compute_busy, r.io_busy,
          r.compute_bubble,    r.io_bubble,    r.bytes_read,
          r.hidden_bytes_read, r.flops,        r.scheme.predicted_time,
          r.scheme.predicted_bubble};
}

TEST(RestorerGoldenTest, DISABLED_PrintGoldenTable) {
  for (const SweepCase& c : GoldenSweep()) {
    const RestoreResult& r = c.result;
    const std::vector<double> v = GoldenValues(r);
    std::printf("// %s\n"
                "{%d, %lld, {%a, %a, %a, %a, %a, %a, %a, %a, %a, %a}, %lld, %lld, %d},\n",
                c.label.c_str(), static_cast<int>(r.method),
                static_cast<long long>(r.history_tokens), v[0], v[1], v[2], v[3], v[4], v[5],
                v[6], v[7], v[8], v[9], static_cast<long long>(r.scheme.layers_hidden),
                static_cast<long long>(r.scheme.layers_other),
                static_cast<int>(r.scheme.complement));
  }
}

TEST(RestorerGoldenTest, EveryResultFieldMatchesPinnedTable) {
  const std::vector<SweepCase> sweep = GoldenSweep();
  ASSERT_EQ(sweep.size(), std::size(kGolden));
  for (size_t i = 0; i < sweep.size(); ++i) {
    const RestoreResult& r = sweep[i].result;
    const GoldenRow& g = kGolden[i];
    SCOPED_TRACE(sweep[i].label);
    EXPECT_EQ(static_cast<int>(r.method), g.method);
    EXPECT_EQ(r.history_tokens, g.history_tokens);
    EXPECT_EQ(r.scheme.layers_hidden, g.layers_hidden);
    EXPECT_EQ(r.scheme.layers_other, g.layers_other);
    EXPECT_EQ(static_cast<int>(r.scheme.complement), g.complement);
    const std::vector<double> v = GoldenValues(r);
    for (size_t f = 0; f < v.size(); ++f) {
      // FMA contraction under -march=native moves the last bits.
      EXPECT_LE(std::abs(v[f] - g.values[f]), 1e-12 * std::abs(g.values[f]))
          << "field " << f << ": " << v[f] << " vs pinned " << g.values[f];
    }
  }
}

TEST(RestorerTest, IdealIsFree) {
  Restorer r(Platform::DefaultTestbed(1, 4), ModelConfig::Llama2_7B());
  const RestoreResult res = r.Restore(RestoreMethod::kIdeal, kHistory);
  EXPECT_DOUBLE_EQ(res.total_time, 0.0);
  EXPECT_DOUBLE_EQ(res.bytes_read, 0.0);
}

TEST(RestorerTest, KvOffloadMovesTwiceTheHiddenBytes) {
  Restorer r(Platform::DefaultTestbed(1, 4), ModelConfig::Llama2_7B());
  const RestoreResult kv = r.Restore(RestoreMethod::kKvOffload, kHistory);
  const RestoreResult h = r.Restore(RestoreMethod::kHCacheOnly, kHistory);
  EXPECT_NEAR(kv.bytes_read / h.bytes_read, 2.0, 1e-9);
  EXPECT_DOUBLE_EQ(kv.flops, 0.0);
  EXPECT_DOUBLE_EQ(kv.compute_busy, 0.0);
}

TEST(RestorerTest, RecomputeUsesNoIo) {
  Restorer r(Platform::DefaultTestbed(1, 4), ModelConfig::Llama2_7B());
  const RestoreResult res = r.Restore(RestoreMethod::kRecompute, kHistory);
  EXPECT_DOUBLE_EQ(res.bytes_read, 0.0);
  EXPECT_DOUBLE_EQ(res.io_busy, 0.0);
  EXPECT_GT(res.flops, 0.0);
}

TEST(RestorerTest, HCacheComputeAtLeastSixTimesCheaperThanRecompute) {
  // Fig 1's claim rendered in FLOPs.
  Restorer r(Platform::DefaultTestbed(1, 4), ModelConfig::Llama2_13B());
  const RestoreResult rec = r.Restore(RestoreMethod::kRecompute, kHistory);
  const RestoreResult h = r.Restore(RestoreMethod::kHCacheOnly, kHistory);
  EXPECT_GE(rec.flops / h.flops, 6.0);
}

TEST(RestorerTest, DefaultTestbedOrderingMatchesPaper) {
  // On the paper's main platform: HCache < KV offload < recompute in TTFT terms.
  for (const auto& cfg : {ModelConfig::Llama2_7B(), ModelConfig::Llama2_13B()}) {
    Restorer r(Platform::DefaultTestbed(1, 4), cfg);
    const double t_h = r.Restore(RestoreMethod::kHCache, kHistory).total_time;
    const double t_kv = r.Restore(RestoreMethod::kKvOffload, kHistory).total_time;
    const double t_rec = r.Restore(RestoreMethod::kRecompute, kHistory).total_time;
    EXPECT_LT(t_h, t_kv) << cfg.name;
    EXPECT_LT(t_kv, t_rec) << cfg.name;
  }
}

TEST(RestorerTest, SpeedupOverKvOffloadInPaperBand) {
  // §6 headline: 1.33x-2.66x faster restoration than KV offload across platforms.
  struct Case {
    Platform platform;
    ModelConfig cfg;
  };
  const Case cases[] = {
      {Platform::DefaultTestbed(1, 4), ModelConfig::Llama2_7B()},
      {Platform::DefaultTestbed(1, 4), ModelConfig::Llama2_13B()},
      {Platform::DefaultTestbed(1, 1), ModelConfig::Llama2_7B()},
      {Platform::CloudDram(GpuSpec::A100()), ModelConfig::Llama2_13B()},
      {Platform::CloudDram(GpuSpec::H800()), ModelConfig::Llama2_13B()},
      {Platform::IoSufficient(), ModelConfig::Llama2_7B()},
  };
  for (const auto& c : cases) {
    Restorer r(c.platform, c.cfg);
    const double t_h = r.Restore(RestoreMethod::kHCache, kHistory).total_time;
    const double t_kv = r.Restore(RestoreMethod::kKvOffload, kHistory).total_time;
    const double speedup = t_kv / t_h;
    EXPECT_GE(speedup, 1.25) << c.platform.Describe() << " " << c.cfg.name;
    EXPECT_LE(speedup, 3.0) << c.platform.Describe() << " " << c.cfg.name;
  }
}

TEST(RestorerTest, HCacheNeverSlowerThanHCacheOnly) {
  for (const Platform& p : {Platform::IoSufficient(), Platform::ComputeSufficient(),
                            Platform::Balanced()}) {
    for (const auto& cfg : {ModelConfig::Llama2_7B(), ModelConfig::Llama2_13B()}) {
      Restorer r(p, cfg);
      const double t_full = r.Restore(RestoreMethod::kHCache, kHistory).total_time;
      const double t_only = r.Restore(RestoreMethod::kHCacheOnly, kHistory).total_time;
      EXPECT_LE(t_full, t_only * 1.001) << p.Describe() << " " << cfg.name;
    }
  }
}

TEST(RestorerTest, BubbleFreeSchedulerShrinksBubbles) {
  // Fig 12's mechanism: on skewed platforms HCache-O idles one stream; the scheduler
  // fills it.
  Restorer r(Platform::ComputeSufficient(), ModelConfig::Llama2_7B());
  const RestoreResult only = r.Restore(RestoreMethod::kHCacheOnly, kHistory);
  const RestoreResult full = r.Restore(RestoreMethod::kHCache, kHistory);
  // HCache-O on an IO-starved box: compute stream mostly idle.
  EXPECT_GT(only.compute_bubble / only.total_time, 0.5);
  EXPECT_LT(full.compute_bubble / full.total_time,
            only.compute_bubble / only.total_time);
}

TEST(RestorerTest, HCacheBeatsNaiveHybrid) {
  // §6.3.1: naive hybrid is the best hidden-state-free mix, and HCache still beats it
  // by 1.28-1.42x on all three ablation platforms.
  for (const auto& [platform, cfg] :
       {std::pair{Platform::IoSufficient(), ModelConfig::Llama2_7B()},
        std::pair{Platform::ComputeSufficient(), ModelConfig::Llama2_7B()},
        std::pair{Platform::Balanced(), ModelConfig::Llama2_13B()}}) {
    Restorer r(platform, cfg);
    const double t_h = r.Restore(RestoreMethod::kHCache, kHistory).total_time;
    const double t_n = r.Restore(RestoreMethod::kNaiveHybrid, kHistory).total_time;
    EXPECT_GT(t_n / t_h, 1.15) << platform.Describe();
    EXPECT_LT(t_n / t_h, 1.8) << platform.Describe();
  }
}

TEST(RestorerTest, RestorationSpeedScalesWithContext) {
  // Fig 11g-i: HCache and KV offload speeds stay ~flat with history length; token
  // recomputation degrades.
  Restorer r(Platform::DefaultTestbed(1, 4), ModelConfig::Llama2_7B());
  const double h_1k = r.Restore(RestoreMethod::kHCache, 1024).TokensPerSecond();
  const double h_16k = r.Restore(RestoreMethod::kHCache, 16384).TokensPerSecond();
  EXPECT_GT(h_16k, h_1k * 0.8);
  const double rec_1k = r.Restore(RestoreMethod::kRecompute, 1024).TokensPerSecond();
  const double rec_16k = r.Restore(RestoreMethod::kRecompute, 16384).TokensPerSecond();
  EXPECT_LT(rec_16k, rec_1k * 0.9);  // paper: -28% from 1K to 16K
}

TEST(RestorerTest, MultiGpuTensorParallelRestoration) {
  // OPT-30B on 4 GPUs: restoration works and is faster than a (hypothetical) single
  // GPU doing the same model with one SSD's bandwidth.
  Restorer tp4(Platform::DefaultTestbed(4, 4), ModelConfig::Opt30B());
  const RestoreResult res = tp4.Restore(RestoreMethod::kHCache, kHistory);
  EXPECT_GT(res.TokensPerSecond(), 0.0);
  EXPECT_EQ(res.scheme.complement, ComplementMethod::kRecompute);
  Restorer tp1(Platform::DefaultTestbed(1, 1), ModelConfig::Opt30B());
  EXPECT_LT(res.total_time, tp1.Restore(RestoreMethod::kHCache, kHistory).total_time);
}

TEST(RestorerTest, TokenWiseSlowerThanLayerWise) {
  // Fig 13a: naive token-wise partition is ~12% slower; rounding recovers part of it.
  Restorer r(Platform::ComputeSufficient(), ModelConfig::Llama2_13B());
  const double layer_wise = r.Restore(RestoreMethod::kHCache, kHistory).total_time;
  const double token_wise = r.RestoreTokenWise(kHistory, /*round_to_tile=*/false).total_time;
  const double token_round = r.RestoreTokenWise(kHistory, /*round_to_tile=*/true).total_time;
  EXPECT_GT(token_wise, layer_wise * 1.02);
  EXPECT_LE(token_round, token_wise);
  EXPECT_GE(token_round, layer_wise * 0.999);
}

TEST(RestorerTest, PlanSelectorNeverLosesToPureStrategies) {
  // With the fallback plan selector, HCache's chosen plan is never slower than pure
  // KV offload or pure recomputation — across platforms, models, and GQA groupings.
  const Platform platforms[] = {Platform::DefaultTestbed(1, 4), Platform::DefaultTestbed(1, 1),
                                Platform::IoSufficient(), Platform::CloudDram(GpuSpec::H800())};
  const ModelConfig models[] = {ModelConfig::Llama2_7B(),
                                ModelConfig::WithGqa(ModelConfig::Llama2_7B(), 8),
                                ModelConfig::Llama2_13B()};
  for (const auto& p : platforms) {
    for (const auto& m : models) {
      Restorer r(p, m);
      const double t_h = r.Restore(RestoreMethod::kHCache, kHistory).total_time;
      const double t_kv = r.Restore(RestoreMethod::kKvOffload, kHistory).total_time;
      const double t_rec = r.Restore(RestoreMethod::kRecompute, kHistory).total_time;
      EXPECT_LE(t_h, t_kv * 1.001) << p.Describe() << " " << m.name;
      EXPECT_LE(t_h, t_rec * 1.001) << p.Describe() << " " << m.name;
    }
  }
}

TEST(RestorerTest, GqaFallbackPicksPureKvOffload) {
  // Strong GQA makes the KV cache smaller than the hidden states; the plan selector
  // must abandon hidden states entirely.
  const ModelConfig gqa8 = ModelConfig::WithGqa(ModelConfig::Llama2_7B(), 4);
  Restorer r(Platform::DefaultTestbed(1, 4), gqa8);
  const RestoreResult res = r.Restore(RestoreMethod::kHCache, kHistory);
  EXPECT_EQ(res.scheme.layers_hidden, 0);
  EXPECT_EQ(res.scheme.complement, ComplementMethod::kKvOffload);
  const RestoreResult kv = r.Restore(RestoreMethod::kKvOffload, kHistory);
  EXPECT_NEAR(res.total_time, kv.total_time, 1e-9);
}

TEST(RestorerTest, GqaShrinksKvOffloadTime) {
  const ModelConfig mha = ModelConfig::Llama2_7B();
  const ModelConfig gqa4 = ModelConfig::WithGqa(mha, 8);  // 4x grouping
  Restorer r_mha(Platform::DefaultTestbed(1, 4), mha);
  Restorer r_gqa(Platform::DefaultTestbed(1, 4), gqa4);
  const double t_mha = r_mha.Restore(RestoreMethod::kKvOffload, kHistory).total_time;
  const double t_gqa = r_gqa.Restore(RestoreMethod::kKvOffload, kHistory).total_time;
  EXPECT_NEAR(t_mha / t_gqa, 4.0, 0.5);
}

TEST(RestorerTest, PipelineParallelScalesHCache) {
  Restorer r(Platform::DefaultTestbed(4, 4), ModelConfig::Opt30B());
  const double one = r.RestorePipelineParallel(RestoreMethod::kHCache, kHistory, 1)
                         .TokensPerSecond();
  const double four = r.RestorePipelineParallel(RestoreMethod::kHCache, kHistory, 4)
                          .TokensPerSecond();
  EXPECT_GT(four, one * 1.2);  // compute parallelizes; per-stage SSD share caps IO
}

TEST(RestorerTest, PipelineParallelRecomputeScalesLinearly) {
  Restorer r(Platform::DefaultTestbed(4, 4), ModelConfig::Opt30B());
  const double one = r.RestorePipelineParallel(RestoreMethod::kRecompute, kHistory, 1)
                         .TokensPerSecond();
  const double four = r.RestorePipelineParallel(RestoreMethod::kRecompute, kHistory, 4)
                          .TokensPerSecond();
  EXPECT_NEAR(four / one, 4.0, 0.2);  // pure compute, no shared bottleneck
}

TEST(RestorerTest, PipelineParallelAccountingSumsStages) {
  Restorer r(Platform::DefaultTestbed(2, 4), ModelConfig::Opt30B());
  const RestoreResult one = r.RestorePipelineParallel(RestoreMethod::kHCacheOnly, kHistory, 1);
  const RestoreResult two = r.RestorePipelineParallel(RestoreMethod::kHCacheOnly, kHistory, 2);
  // HCache-only moves the same hidden bytes regardless of staging (schemes can't
  // shift layers to a complement here).
  EXPECT_NEAR(two.bytes_read, one.bytes_read, one.bytes_read * 0.05);
  EXPECT_LT(two.total_time, one.total_time);
}

TEST(RestorerTest, ResultAccountingConsistent) {
  Restorer r(Platform::DefaultTestbed(1, 4), ModelConfig::Llama2_7B());
  for (const auto m : {RestoreMethod::kRecompute, RestoreMethod::kKvOffload,
                       RestoreMethod::kHCache, RestoreMethod::kHCacheOnly,
                       RestoreMethod::kNaiveHybrid}) {
    const RestoreResult res = r.Restore(m, kHistory);
    EXPECT_GE(res.total_time, res.compute_busy) << RestoreMethodName(m);
    EXPECT_GE(res.total_time, res.io_busy) << RestoreMethodName(m);
    EXPECT_NEAR(res.compute_bubble, res.total_time - res.compute_busy, 1e-12);
    EXPECT_NEAR(res.io_bubble, res.total_time - res.io_busy, 1e-12);
    EXPECT_FALSE(res.ToString().empty());
  }
}

}  // namespace
}  // namespace hcache
