// ClusterEngine: N ServingEngine replicas behind a SessionRouter over one shared
// backend. Covers router policies, cross-replica restoration through the shared tier,
// throughput scaling at equal per-replica hardware, and determinism.
#include "src/serving/cluster.h"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "src/storage/memory_backend.h"
#include "src/storage/tiered_backend.h"

namespace hcache {
namespace {

constexpr int64_t kChunkBytes = 64 * 1024;

ClusterOptions Opts(int replicas, RouterPolicy policy) {
  ClusterOptions o;
  o.num_replicas = replicas;
  o.router = policy;
  o.serving.method = RestoreMethod::kHCache;
  return o;
}

ClusterReport RunCluster(int replicas, RouterPolicy policy, StorageBackend* shared,
                  double load = 0.4, int64_t sessions = 30, uint64_t seed = 42) {
  ClusterEngine cluster(Platform::DefaultTestbed(1, 4), ModelConfig::Llama2_7B(),
                        Opts(replicas, policy), shared);
  return cluster.RunConversations(load, sessions, 5.0, seed);
}

// Live candidate list with consecutive ids 0..n-1 (a fully-up fleet).
std::vector<ReplicaCandidate> FullFleet(int n) {
  std::vector<ReplicaCandidate> live(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    live[static_cast<size_t>(i)].id = i;
  }
  return live;
}

TEST(SessionRouterTest, RoundRobinCycles) {
  auto r = MakeRouter(RouterPolicy::kRoundRobin, 1);
  const std::vector<ReplicaCandidate> live = FullFleet(3);
  RoundTask t;
  EXPECT_EQ(r->Route(t, -1, live), 0);
  EXPECT_EQ(r->Route(t, -1, live), 1);
  EXPECT_EQ(r->Route(t, -1, live), 2);
  EXPECT_EQ(r->Route(t, -1, live), 0);
}

TEST(SessionRouterTest, LeastLoadedPicksArgminTokens) {
  auto r = MakeRouter(RouterPolicy::kLeastLoadedTokens, 1);
  std::vector<ReplicaCandidate> live = FullFleet(3);
  live[0].load.queued_tokens = 500;
  live[1].load.queued_tokens = 100;
  live[2].load.queued_tokens = 900;
  RoundTask t;
  EXPECT_EQ(r->Route(t, -1, live), 1);
  live[1].load.queued_tokens = 501;
  EXPECT_EQ(r->Route(t, -1, live), 0);
}

TEST(SessionRouterTest, PowerOfTwoNeverPicksTheHeavierOfItsPair) {
  auto r = MakeRouter(RouterPolicy::kPowerOfTwo, 7);
  std::vector<ReplicaCandidate> live = FullFleet(4);
  live[0].load.queued_tokens = 0;
  live[1].load.queued_tokens = 1000;
  live[2].load.queued_tokens = 2000;
  live[3].load.queued_tokens = 3000;
  RoundTask t;
  // Replica 3 is the heaviest: with two distinct choices it can never win a pairing.
  for (int i = 0; i < 200; ++i) {
    EXPECT_NE(r->Route(t, -1, live), 3);
  }
}

TEST(SessionRouterTest, StickyFollowsHomeUntilSpill) {
  auto r = MakeRouter(RouterPolicy::kStickyWithSpill, 1);
  std::vector<ReplicaCandidate> live = FullFleet(2);
  RoundTask t;
  live[0].load.queued_tokens = kStickySpillMarginTokens;
  live[1].load.queued_tokens = 0;
  EXPECT_EQ(r->Route(t, /*home=*/0, live), 0);  // within margin: stay home
  live[0].load.queued_tokens = kStickySpillMarginTokens + 1;
  EXPECT_EQ(r->Route(t, /*home=*/0, live), 1);  // beyond margin: spill
  EXPECT_EQ(r->Route(t, /*home=*/-1, live), 1);  // first round: least-loaded
}

TEST(SessionRouterTest, StickyReRoutesWhenHomeLeftTheLiveSet) {
  // Elastic fleets shrink: when the home replica is gone (drained/killed), the
  // candidate list no longer contains its id and sticky must pick a survivor — the
  // session's state is in the SHARED tier, so any live replica can restore it.
  auto r = MakeRouter(RouterPolicy::kStickyWithSpill, 1);
  std::vector<ReplicaCandidate> live(2);
  live[0].id = 1;  // replica 0 is down: live set is {1, 3}
  live[1].id = 3;
  live[0].load.queued_tokens = 700;
  live[1].load.queued_tokens = 200;
  RoundTask t;
  EXPECT_EQ(r->Route(t, /*home=*/0, live), 1);  // home gone: least-loaded survivor
  // Home id 3 sits at candidate POSITION 1 — sticky must match by id, not index.
  EXPECT_EQ(r->Route(t, /*home=*/3, live), 1);
  live[1].load.queued_tokens = 700 + kStickySpillMarginTokens + 1;  // beyond the margin
  EXPECT_EQ(r->Route(t, /*home=*/3, live), 0);
}

TEST(ClusterReportTest, ReplicaRoundSkewIsOneForDegenerateFleets) {
  // Pin the zero-rounds edge: an empty fleet or a fleet that completed nothing must
  // read as perfectly even (1.0), never NaN/inf from a zero mean.
  ClusterReport empty;
  EXPECT_DOUBLE_EQ(empty.ReplicaRoundSkew(), 1.0);
  ClusterReport idle;
  idle.replicas.resize(3);  // replicas exist, nothing completed anywhere
  EXPECT_DOUBLE_EQ(idle.ReplicaRoundSkew(), 1.0);
  EXPECT_TRUE(std::isfinite(idle.ReplicaRoundSkew()));
}

TEST(ClusterEngineTest, CompletesAllRoundsOnEveryPolicy) {
  for (const RouterPolicy policy :
       {RouterPolicy::kRoundRobin, RouterPolicy::kLeastLoadedTokens,
        RouterPolicy::kPowerOfTwo, RouterPolicy::kStickyWithSpill}) {
    MemoryBackend shared(kChunkBytes);
    const ClusterReport rep = RunCluster(3, policy, &shared);
    EXPECT_EQ(rep.aggregate.rounds_completed, rep.aggregate.rounds_submitted)
        << RouterPolicyName(policy);
    EXPECT_GT(rep.aggregate.rounds_completed, 30) << RouterPolicyName(policy);
    EXPECT_EQ(static_cast<int>(rep.replicas.size()), 3);
    // Sessions delete their state at completion: the shared tier drains.
    EXPECT_EQ(shared.chunks_stored(), 0) << RouterPolicyName(policy);
  }
}

TEST(ClusterEngineTest, SingleReplicaClusterMatchesPlainEngine) {
  // The cluster layer is pure orchestration: a 1-replica cluster must reproduce the
  // plain engine's simulation exactly (same workload seed, same clock arithmetic).
  MemoryBackend shared(kChunkBytes);
  const ClusterReport cluster = RunCluster(1, RouterPolicy::kRoundRobin, &shared);

  ServingOptions o;
  o.method = RestoreMethod::kHCache;
  MemoryBackend solo_backend(kChunkBytes);
  o.state_backend = &solo_backend;
  ServingEngine solo(Platform::DefaultTestbed(1, 4), ModelConfig::Llama2_7B(), o);
  const ServingReport plain = solo.RunConversations(0.4, 30, 5.0, 42);

  EXPECT_EQ(cluster.aggregate.rounds_completed, plain.rounds_completed);
  EXPECT_DOUBLE_EQ(cluster.aggregate.makespan, plain.makespan);
  EXPECT_DOUBLE_EQ(cluster.aggregate.ttft.Mean(), plain.ttft.Mean());
  EXPECT_DOUBLE_EQ(cluster.aggregate.tbt.Mean(), plain.tbt.Mean());
  EXPECT_EQ(cluster.cross_replica_restores, 0);
}

TEST(ClusterEngineTest, LoadAwareRoutingMovesSessionsAcrossReplicas) {
  // With a load-aware router, consecutive rounds of one session land on different
  // replicas — the restore on the new replica is served by the SHARED tier. This is
  // the pattern a per-engine cache cannot serve at all.
  MemoryBackend shared(kChunkBytes);
  const ClusterReport rep = RunCluster(4, RouterPolicy::kLeastLoadedTokens, &shared, 0.8, 60);
  EXPECT_GT(rep.cross_replica_restores, 0);
  EXPECT_GT(rep.storage.total_reads, 0);
  // Every restoration read resolves against the shared tier regardless of who wrote:
  // a DRAM-only shared backend serves them all.
  EXPECT_EQ(rep.storage.dram_hits, rep.storage.total_reads);
}

TEST(ClusterEngineTest, StickyRoutingPreservesAffinity) {
  MemoryBackend shared_sticky(kChunkBytes);
  MemoryBackend shared_rr(kChunkBytes);
  const ClusterReport sticky =
      RunCluster(4, RouterPolicy::kStickyWithSpill, &shared_sticky, 0.4, 40);
  const ClusterReport rr = RunCluster(4, RouterPolicy::kRoundRobin, &shared_rr, 0.4, 40);
  const auto affinity_share = [](const ClusterReport& r) {
    const int64_t total = r.affinity_restores + r.cross_replica_restores;
    return total > 0 ? static_cast<double>(r.affinity_restores) / total : 0.0;
  };
  // Sticky keeps most restores home; round-robin disperses them by construction.
  EXPECT_GT(affinity_share(sticky), 0.9);
  EXPECT_LT(affinity_share(rr), 0.5);
}

TEST(ClusterEngineTest, MoreReplicasSustainMoreLoad) {
  // Equal per-replica hardware, offered load scaled with the fleet: a 4-replica
  // cluster over the shared tier must sustain >= 3x the completed rounds/sec of one
  // replica (the ISSUE's acceptance bar; queueing effects cost the rest).
  MemoryBackend shared1(kChunkBytes);
  MemoryBackend shared4(kChunkBytes);
  const double per_replica_load = 0.5;
  const ClusterReport one =
      RunCluster(1, RouterPolicy::kLeastLoadedTokens, &shared1, per_replica_load, 40, 7);
  const ClusterReport four =
      RunCluster(4, RouterPolicy::kLeastLoadedTokens, &shared4, 4 * per_replica_load, 160, 7);
  EXPECT_EQ(four.aggregate.rounds_completed, four.aggregate.rounds_submitted);
  EXPECT_GT(four.RoundsPerSecond(), 3.0 * one.RoundsPerSecond());
}

TEST(ClusterEngineTest, NonRestoringMethodsReportZeroRestores) {
  // Restore-locality counters describe actual shared-tier reads: a method with no
  // restore phase (recompute re-prefills history) must report zero, even though
  // sessions still hop replicas and their state is still being saved.
  MemoryBackend shared(kChunkBytes);
  ClusterOptions o;
  o.num_replicas = 4;
  o.router = RouterPolicy::kLeastLoadedTokens;
  o.serving.method = RestoreMethod::kRecompute;
  ClusterEngine cluster(Platform::DefaultTestbed(1, 4), ModelConfig::Llama2_7B(), o,
                        &shared);
  const ClusterReport rep = cluster.RunConversations(0.8, 40, 5.0, 42);
  EXPECT_GT(rep.aggregate.rounds_completed, 0);
  EXPECT_EQ(rep.cross_replica_restores, 0);
  EXPECT_EQ(rep.affinity_restores, 0);
  EXPECT_EQ(rep.storage.total_reads, 0);   // recompute never reads state back
  EXPECT_GT(rep.storage.total_writes, 0);  // but completed rounds still save it
}

TEST(ClusterEngineTest, ReplicaSkewStaysBounded) {
  // Round-robin balances round COUNTS by construction (skew ~1); load-aware policies
  // balance token demand instead, so their round-count skew is looser but must stay
  // far from the all-on-one-replica pathology (skew = num_replicas).
  MemoryBackend shared_ll(kChunkBytes);
  MemoryBackend shared_rr(kChunkBytes);
  const ClusterReport ll =
      RunCluster(4, RouterPolicy::kLeastLoadedTokens, &shared_ll, 1.2, 80, 13);
  const ClusterReport rr = RunCluster(4, RouterPolicy::kRoundRobin, &shared_rr, 1.2, 80, 13);
  EXPECT_GE(rr.ReplicaRoundSkew(), 1.0);
  EXPECT_LE(rr.ReplicaRoundSkew(), 1.1);
  EXPECT_GE(ll.ReplicaRoundSkew(), 1.0);
  EXPECT_LE(ll.ReplicaRoundSkew(), 2.0);
}

TEST(ClusterEngineTest, SharedTieredBackendSeesFleetWideLocality) {
  // DRAM budget far below the fleet's live state: evictions and cold hits appear, and
  // the byte-granular tier counters conserve (hits sum to read bytes). The replicas
  // advance serially, so the dram/cold split is deterministic.
  MemoryBackend cold(kChunkBytes);
  TieredBackend shared(&cold, 2 * kChunkBytes);
  const ClusterReport rep = RunCluster(3, RouterPolicy::kLeastLoadedTokens, &shared, 0.8, 50);
  EXPECT_GT(rep.storage.evicted_contexts, 0);
  EXPECT_GT(rep.storage.cold_hits, 0);
  EXPECT_EQ(rep.storage.dram_hits + rep.storage.cold_hits, rep.storage.total_reads);
  EXPECT_EQ(rep.storage.dram_hit_bytes + rep.storage.cold_hit_bytes,
            rep.storage.ReadBytes());
  EXPECT_GT(rep.SharedDramHitByteRatio(), 0.0);
  EXPECT_LT(rep.SharedDramHitByteRatio(), 1.0);
}

TEST(ClusterEngineTest, ParallelAdvanceIsByteIdenticalToSerial) {
  // parallel_advance steps the replicas concurrently within each global-clock
  // iteration; replica simulation state is disjoint and completions merge in index
  // order, so every simulated quantity must match the serial schedule exactly — the
  // only thing allowed to differ is which tier of the shared backend answered a
  // read (a read racing another replica's flush is a rescue), and even that must
  // conserve.
  auto run = [](bool parallel) {
    struct Result {
      ClusterReport rep;
      StorageStats storage;
    };
    MemoryBackend cold(kChunkBytes);
    TieredBackend shared(&cold, 4 * kChunkBytes);
    ClusterOptions o = Opts(4, RouterPolicy::kPowerOfTwo);
    o.parallel_advance = parallel;
    ClusterEngine cluster(Platform::DefaultTestbed(1, 4), ModelConfig::Llama2_7B(), o,
                          &shared);
    Result r{cluster.RunConversations(0.8, 60, 5.0, 777), shared.Stats()};
    return r;
  };
  const auto serial = run(false);
  const auto parallel = run(true);
  EXPECT_EQ(serial.rep.aggregate.rounds_completed,
            parallel.rep.aggregate.rounds_completed);
  EXPECT_DOUBLE_EQ(serial.rep.aggregate.makespan, parallel.rep.aggregate.makespan);
  EXPECT_EQ(serial.rep.cross_replica_restores, parallel.rep.cross_replica_restores);
  EXPECT_EQ(serial.rep.affinity_restores, parallel.rep.affinity_restores);
  ASSERT_EQ(serial.rep.aggregate.ttft.count(), parallel.rep.aggregate.ttft.count());
  EXPECT_EQ(serial.rep.aggregate.ttft.samples(), parallel.rep.aggregate.ttft.samples());
  EXPECT_EQ(serial.rep.aggregate.tbt.samples(), parallel.rep.aggregate.tbt.samples());
  for (const auto* r : {&serial, &parallel}) {
    // The shared tier conserves regardless of the advance schedule.
    EXPECT_EQ(r->storage.dram_hits + r->storage.cold_hits, r->storage.total_reads);
    EXPECT_EQ(r->storage.writeback_failures, 0);
  }
  // The same total state flows through the tier on both schedules.
  EXPECT_EQ(serial.storage.total_writes, parallel.storage.total_writes);
  EXPECT_EQ(serial.storage.total_reads, parallel.storage.total_reads);
}

TEST(ClusterEngineTest, DeterministicAcrossRepeatedRuns) {
  for (const RouterPolicy policy :
       {RouterPolicy::kPowerOfTwo, RouterPolicy::kStickyWithSpill}) {
    MemoryBackend a_backend(kChunkBytes);
    MemoryBackend b_backend(kChunkBytes);
    const ClusterReport a = RunCluster(3, policy, &a_backend, 0.6, 40, 99);
    const ClusterReport b = RunCluster(3, policy, &b_backend, 0.6, 40, 99);
    EXPECT_EQ(a.aggregate.rounds_completed, b.aggregate.rounds_completed);
    EXPECT_DOUBLE_EQ(a.aggregate.makespan, b.aggregate.makespan);
    EXPECT_EQ(a.cross_replica_restores, b.cross_replica_restores);
    ASSERT_EQ(a.aggregate.ttft.count(), b.aggregate.ttft.count());
    EXPECT_EQ(a.aggregate.ttft.samples(), b.aggregate.ttft.samples());
    EXPECT_EQ(a.aggregate.tbt.samples(), b.aggregate.tbt.samples());
  }
}

}  // namespace
}  // namespace hcache
