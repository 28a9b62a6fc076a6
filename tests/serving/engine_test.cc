#include "src/serving/engine.h"

#include <gtest/gtest.h>

#include "src/storage/memory_backend.h"
#include "src/workload/arrival.h"

namespace hcache {
namespace {

ServingOptions Opts(RestoreMethod m) {
  ServingOptions o;
  o.method = m;
  return o;
}

ServingEngine Engine7B(RestoreMethod m) {
  return ServingEngine(Platform::DefaultTestbed(1, 4), ModelConfig::Llama2_7B(), Opts(m));
}

TEST(ServingEngineTest, KvCapacityMatchesPaperArithmetic) {
  // §2.4: PagedAttention lets an A100-40G keep ~48K tokens of Llama2-7B and ~17K of
  // Llama2-13B.
  ServingEngine e7 = Engine7B(RestoreMethod::kHCache);
  EXPECT_NEAR(static_cast<double>(e7.DeriveKvCapacityTokens()), 48e3, 8e3);
  ServingEngine e13(Platform::DefaultTestbed(1, 4), ModelConfig::Llama2_13B(),
                    Opts(RestoreMethod::kHCache));
  EXPECT_NEAR(static_cast<double>(e13.DeriveKvCapacityTokens()), 17e3, 5e3);
}

TEST(ServingEngineTest, SerialLongContextOrderingMatchesFig4) {
  LEvalGenerator gen(1);
  const auto trace = gen.MixedTrace(40);
  const double t_ideal =
      Engine7B(RestoreMethod::kIdeal).RunLongContextSerial(trace).ttft.Mean();
  const double t_h =
      Engine7B(RestoreMethod::kHCache).RunLongContextSerial(trace).ttft.Mean();
  const double t_kv =
      Engine7B(RestoreMethod::kKvOffload).RunLongContextSerial(trace).ttft.Mean();
  const double t_rec =
      Engine7B(RestoreMethod::kRecompute).RunLongContextSerial(trace).ttft.Mean();
  EXPECT_LT(t_ideal, t_h);
  EXPECT_LT(t_h, t_kv);
  EXPECT_LT(t_kv, t_rec);
  // Fig 4: recompute 20-26x ideal, KV offload 6.5-13x ideal. Wide bands: the exact
  // multiple depends on engine overhead.
  EXPECT_GT(t_rec / t_ideal, 8.0);
  EXPECT_LT(t_rec / t_ideal, 40.0);
  EXPECT_GT(t_kv / t_ideal, 3.0);
  EXPECT_LT(t_kv / t_ideal, 20.0);
  // Fig 10: HCache 1.62-1.93x faster than KV offload on long contexts.
  EXPECT_GT(t_kv / t_h, 1.3);
  EXPECT_LT(t_kv / t_h, 2.3);
}

TEST(ServingEngineTest, ConversationsCompleteAtLowLoad) {
  ServingEngine e = Engine7B(RestoreMethod::kHCache);
  const ServingReport rep = e.RunConversations(0.2, 20, 5.0, 42);
  EXPECT_EQ(rep.rounds_completed, rep.rounds_submitted);
  EXPECT_GT(rep.rounds_completed, 20);  // multi-round conversations
  EXPECT_GT(rep.ttft.count(), 0u);
  EXPECT_GT(rep.tbt.count(), 0u);
}

TEST(ServingEngineTest, ConversationTtftOrderingAcrossMethods) {
  const double load = 0.5;
  const double t_h = Engine7B(RestoreMethod::kHCache)
                         .RunConversations(load, 40, 5.0, 7)
                         .ttft.Mean();
  const double t_kv = Engine7B(RestoreMethod::kKvOffload)
                          .RunConversations(load, 40, 5.0, 7)
                          .ttft.Mean();
  const double t_rec = Engine7B(RestoreMethod::kRecompute)
                           .RunConversations(load, 40, 5.0, 7)
                           .ttft.Mean();
  const double t_ideal = Engine7B(RestoreMethod::kIdeal)
                             .RunConversations(load, 40, 5.0, 7)
                             .ttft.Mean();
  EXPECT_LT(t_ideal, t_h);
  EXPECT_LT(t_h, t_kv);
  EXPECT_LT(t_kv, t_rec);
}

TEST(ServingEngineTest, TtftDegradesWithLoad) {
  ServingEngine e = Engine7B(RestoreMethod::kKvOffload);
  const double t_low = e.RunConversations(0.1, 30, 5.0, 9).ttft.Mean();
  ServingEngine e2 = Engine7B(RestoreMethod::kKvOffload);
  const double t_high = e2.RunConversations(1.5, 30, 5.0, 9).ttft.Mean();
  EXPECT_GT(t_high, t_low);
}

TEST(ServingEngineTest, HCacheTbtWithinFourPercentOfIdeal) {
  // §6.1.1: "HCache's TBT is at most 4% higher [than ideal]".
  const double tbt_h = Engine7B(RestoreMethod::kHCache)
                           .RunConversations(0.5, 40, 5.0, 11)
                           .tbt.Mean();
  const double tbt_ideal = Engine7B(RestoreMethod::kIdeal)
                               .RunConversations(0.5, 40, 5.0, 11)
                               .tbt.Mean();
  EXPECT_LT(tbt_h, tbt_ideal * 1.06);
}

TEST(ServingEngineTest, RecomputeTbtWorseThanHCache) {
  const double tbt_rec = Engine7B(RestoreMethod::kRecompute)
                             .RunConversations(0.8, 40, 5.0, 13)
                             .tbt.Mean();
  const double tbt_h = Engine7B(RestoreMethod::kHCache)
                           .RunConversations(0.8, 40, 5.0, 13)
                           .tbt.Mean();
  EXPECT_GT(tbt_rec, tbt_h);
}

TEST(ServingEngineTest, TwoStageSavingAddsNoTbt) {
  ServingOptions two = Opts(RestoreMethod::kHCache);
  two.save_mode = SaveMode::kTwoStage;
  ServingOptions none = Opts(RestoreMethod::kHCache);
  none.save_mode = SaveMode::kNone;
  const Platform p = Platform::DefaultTestbed(1, 4);
  const ModelConfig cfg = ModelConfig::Llama2_7B();
  ServingEngine e_two(p, cfg, two), e_none(p, cfg, none);
  for (const int64_t bs : {1, 8, 16, 32}) {
    EXPECT_DOUBLE_EQ(e_two.SteadyStateTbt(bs, 512), e_none.SteadyStateTbt(bs, 512));
  }
}

TEST(ServingEngineTest, DirectSavingStallsLargeBatches) {
  // Fig 14: DirectIO matches two-stage at small batch, stalls at larger batch.
  ServingOptions direct = Opts(RestoreMethod::kHCache);
  direct.save_mode = SaveMode::kDirect;
  ServingOptions two = Opts(RestoreMethod::kHCache);
  const Platform p = Platform::DefaultTestbed(1, 4);
  const ModelConfig cfg = ModelConfig::Llama2_7B();
  ServingEngine e_direct(p, cfg, direct), e_two(p, cfg, two);
  const double small_ratio = e_direct.SteadyStateTbt(2, 512) / e_two.SteadyStateTbt(2, 512);
  const double big_ratio = e_direct.SteadyStateTbt(16, 512) / e_two.SteadyStateTbt(16, 512);
  EXPECT_NEAR(small_ratio, 1.0, 0.02);
  EXPECT_GT(big_ratio, 1.15);
  EXPECT_GT(big_ratio, small_ratio);
}

TEST(ServingEngineTest, GpuCacheHitRatioRisesWithSkew) {
  // Fig 15: hit ratio rises from ~15% (uniform) to ~94% (alpha=2).
  LEvalGenerator gen(21);
  const auto trace = gen.MixedTrace(400);
  const int64_t num_contexts = 60;
  // Cache sized to hold ~15% of the uniform working set.
  int64_t total = 0;
  for (const auto& r : trace) {
    total += r.context_tokens;
  }
  const int64_t cache_tokens = total / 400 * num_contexts * 15 / 100;

  auto run = [&](double alpha) {
    ZipfianContextChooser chooser(num_contexts, alpha, 31);
    std::vector<int64_t> ids;
    ids.reserve(trace.size());
    for (size_t i = 0; i < trace.size(); ++i) {
      ids.push_back(chooser.NextContext());
    }
    ServingEngine e = Engine7B(RestoreMethod::kHCache);
    return e.RunWithGpuCache(trace, ids, cache_tokens);
  };

  const ServingReport uniform = run(0.0);
  const ServingReport skewed = run(2.0);
  EXPECT_LT(uniform.cache_hit_ratio, 0.35);
  EXPECT_GT(skewed.cache_hit_ratio, 0.75);
  // High hit ratios slash TTFT (paper: 3.76-10.03x).
  EXPECT_LT(skewed.ttft.Mean(), uniform.ttft.Mean() / 2.0);
}

TEST(ServingEngineTest, HCacheStillWinsUnderHighSkew) {
  // Fig 15: even at 94% hit ratio HCache remains ~1.15x faster than KV offload.
  LEvalGenerator gen(22);
  const auto trace = gen.MixedTrace(400);
  ZipfianContextChooser chooser(60, 2.0, 33);
  std::vector<int64_t> ids;
  for (size_t i = 0; i < trace.size(); ++i) {
    ids.push_back(chooser.NextContext());
  }
  const int64_t cache_tokens = 200000;
  ServingEngine h = Engine7B(RestoreMethod::kHCache);
  ServingEngine kv = Engine7B(RestoreMethod::kKvOffload);
  const double t_h = h.RunWithGpuCache(trace, ids, cache_tokens).ttft.Mean();
  const double t_kv = kv.RunWithGpuCache(trace, ids, cache_tokens).ttft.Mean();
  EXPECT_GT(t_kv / t_h, 1.05);
}

TEST(ServingEngineTest, LargerPrefillChunkLowersRecomputeTtft) {
  // SplitFuse trade-off: a bigger per-iteration prefill budget finishes history
  // prefills in fewer iterations, cutting recompute-method TTFT at light load.
  ServingOptions small = Opts(RestoreMethod::kRecompute);
  small.prefill_chunk_tokens = 128;
  ServingOptions big = Opts(RestoreMethod::kRecompute);
  big.prefill_chunk_tokens = 2048;
  const Platform p = Platform::DefaultTestbed(1, 4);
  const ModelConfig cfg = ModelConfig::Llama2_7B();
  const double t_small =
      ServingEngine(p, cfg, small).RunConversations(0.1, 30, 5.0, 19).ttft.Mean();
  const double t_big =
      ServingEngine(p, cfg, big).RunConversations(0.1, 30, 5.0, 19).ttft.Mean();
  EXPECT_LT(t_big, t_small);
}

TEST(ServingEngineTest, TtftPercentilesOrdered) {
  ServingEngine e = Engine7B(RestoreMethod::kHCache);
  const ServingReport rep = e.RunConversations(0.3, 60, 5.0, 23);
  ASSERT_GT(rep.ttft.count(), 10u);
  EXPECT_LE(rep.ttft.Percentile(50), rep.ttft.Percentile(99));
  EXPECT_LE(rep.ttft.Percentile(99), rep.ttft.Max());
  EXPECT_GE(rep.ttft.Min(), kRequestOverheadS);
}

TEST(ServingEngineTest, KvCapacityLimitsConcurrency) {
  // Shrinking the pool forces queueing: TTFT rises, completions still conserve.
  ServingOptions tight = Opts(RestoreMethod::kHCache);
  tight.kv_capacity_tokens = 6000;
  tight.max_history_tokens = 4096;
  ServingOptions roomy = Opts(RestoreMethod::kHCache);
  roomy.max_history_tokens = 4096;
  const Platform p = Platform::DefaultTestbed(1, 4);
  const ModelConfig cfg = ModelConfig::Llama2_7B();
  const ServingReport r_tight =
      ServingEngine(p, cfg, tight).RunConversations(0.4, 60, 5.0, 29);
  const ServingReport r_roomy =
      ServingEngine(p, cfg, roomy).RunConversations(0.4, 60, 5.0, 29);
  EXPECT_GT(r_tight.ttft.Mean(), r_roomy.ttft.Mean());
  EXPECT_EQ(r_tight.rounds_completed, r_tight.rounds_submitted);
}

TEST(ServingEngineTest, OversizedRoundsDropCleanlyAndReleaseState) {
  // A KV pool far below the trace's history cap: conversations outgrow it mid-flight
  // and their rounds are dropped. The drop must end the session cleanly — no later
  // rounds scheduled, and its stored state released from the backend rather than
  // squatting there for the rest of the run.
  ServingOptions o = Opts(RestoreMethod::kHCache);
  o.kv_capacity_tokens = 2500;
  MemoryBackend backend(64 * 1024);
  o.state_backend = &backend;
  ServingEngine e(Platform::DefaultTestbed(1, 4), ModelConfig::Llama2_7B(), o);
  const ServingReport rep = e.RunConversations(0.4, 30, 5.0, 42);
  EXPECT_GT(rep.rounds_completed, 0);
  EXPECT_LT(rep.rounds_completed, rep.rounds_submitted);  // some rounds never fit
  EXPECT_EQ(backend.chunks_stored(), 0);
  EXPECT_EQ(backend.bytes_stored(), 0);
}

TEST(ServingEngineTest, HorizonBoundsSimulation) {
  ServingOptions o = Opts(RestoreMethod::kRecompute);
  o.max_sim_seconds = 5.0;
  ServingEngine e(Platform::DefaultTestbed(1, 4), ModelConfig::Llama2_7B(), o);
  const ServingReport rep = e.RunConversations(5.0, 200, 5.0, 17);
  EXPECT_LE(rep.makespan, 6.0);  // horizon plus at most one iteration
}

}  // namespace
}  // namespace hcache
