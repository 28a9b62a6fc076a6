// Extension bench: cluster serving — replica count x router policy over ONE shared
// tiered backend, on the ShareGPT multi-round conversation workload.
//
// The paper measures restoration inside a single engine; this sweep measures the
// fleet pattern its storage design enables: sessions hop between replicas (the router
// decides), each hop's restore is served by the shared DRAM-over-cold tier, and
// throughput must scale with replica count at equal per-replica hardware. Offered
// load and session count scale with the fleet so every configuration is compared at
// the same per-replica pressure.
//
// The simulated scaling sweep is deterministic: replica-count x router rows on the
// shared tier, whose evictions flush to the cold tier on the evicting caller,
// held to the cluster acceptance bar (>=3x at 4 replicas with cross-replica
// restores).
//
// Emits BENCH_ext_cluster.json: per-config rows and per-router 4-vs-1 scaling with
// the acceptance flags the repo tracks.
//
// `--distributed-cold` runs a second mode instead (emitting BENCH_ext_dist_cold.json):
// the same 4-replica parallel workload over a TieredBackend whose cold tier is the
// replicated DistributedColdBackend, with two fault legs — a storage node killed
// mid-run (reads must fail over, repair must re-replicate, zero restore fallbacks)
// and a Drain() that must complete while traffic is being served.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <functional>
#include <thread>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/thread_pool.h"
#include "src/serving/cluster.h"
#include "src/storage/distributed_backend.h"
#include "src/storage/memory_backend.h"
#include "src/storage/tiered_backend.h"

using namespace hcache;

namespace {

constexpr double kPerReplicaLoad = 0.5;  // sessions/s offered per replica
constexpr int64_t kSessionsPerReplica = 40;
constexpr double kRoundInterval = 5.0;
constexpr uint64_t kSeed = 97;
constexpr int64_t kChunkBytes = 64 * 1024;
// Shared hot-tier budget: sized so the fleet's live state does not fully fit and the
// cold tier sees traffic (the interesting regime for a shared cache).
constexpr int64_t kSharedDramBytes = 6 * kChunkBytes;
// PR 4's committed 4-vs-1 scaling (BENCH_ext_cluster.json at PR 4): the simulated
// sweep must not regress below it.
constexpr double kPr4CommittedScaling4v1 = 3.14;

struct Row {
  int replicas = 0;
  RouterPolicy policy = RouterPolicy::kRoundRobin;
  ClusterReport rep;
};

Row RunConfig(int replicas, RouterPolicy policy) {
  Row row;
  row.replicas = replicas;
  row.policy = policy;
  MemoryBackend cold(kChunkBytes);
  TieredBackend shared(&cold, kSharedDramBytes);
  ClusterOptions o;
  o.num_replicas = replicas;
  o.router = policy;
  o.serving.method = RestoreMethod::kHCache;
  ClusterEngine cluster(Platform::DefaultTestbed(1, 4), ModelConfig::Llama2_7B(), o,
                        &shared);
  row.rep = cluster.RunConversations(kPerReplicaLoad * replicas,
                                     kSessionsPerReplica * replicas, kRoundInterval,
                                     kSeed);
  return row;
}

JsonValue StorageJson(const ClusterReport& r) {
  JsonValue storage = JsonValue::Object();
  storage.Set("total_writes", r.storage.total_writes);
  storage.Set("total_reads", r.storage.total_reads);
  storage.Set("dram_hit_bytes", r.storage.dram_hit_bytes);
  storage.Set("cold_hit_bytes", r.storage.cold_hit_bytes);
  storage.Set("dram_hit_byte_ratio", r.SharedDramHitByteRatio());
  storage.Set("evicted_contexts", r.storage.evicted_contexts);
  storage.Set("writeback_bytes", r.storage.writeback_bytes);
  storage.Set("drain_rescued_chunks", r.storage.drain_rescued_chunks);
  storage.Set("writeback_failures", r.storage.writeback_failures);
  storage.Set("promotions_skipped", r.storage.promotions_skipped);
  return storage;
}

// ---- --distributed-cold mode ----------------------------------------------------

constexpr int kDistNodes = 4;
constexpr int kDistReplication = 2;
// Fire the mid-run fault once the cold plane has absorbed this many writes: far
// enough in that the victim node homes real state, far enough from the end that
// plenty of restores still cross the degraded plane. (The 4-replica sweep drives
// ~1000 tier writes, a large share of which reach the cold tier.)
constexpr int64_t kFaultAfterColdWrites = 150;

JsonValue DistStatsJson(const StorageStats& d) {
  JsonValue j = JsonValue::Object();
  j.Set("total_writes", d.total_writes);
  j.Set("total_reads", d.total_reads);
  j.Set("failover_reads", d.failover_reads);
  j.Set("nodes_down", d.nodes_down);
  j.Set("under_replicated_chunks", d.under_replicated_chunks);
  j.Set("degraded_writes", d.degraded_writes);
  j.Set("re_replicated_chunks", d.re_replicated_chunks);
  j.Set("crc_failures", d.crc_failures);
  return j;
}

JsonValue NodeTableJson(const DistributedColdBackend& dist) {
  JsonValue arr = JsonValue::Array();
  for (const auto& n : dist.NodeTable()) {
    JsonValue e = JsonValue::Object();
    e.Set("node", static_cast<int64_t>(n.id));
    e.Set("up", n.up);
    e.Set("draining", n.draining);
    e.Set("removed", n.removed);
    e.Set("chunks", n.chunks);
    e.Set("bytes", n.bytes);
    arr.Push(std::move(e));
  }
  return arr;
}

// Waits (polling the cold plane's write counter) until the workload is genuinely
// mid-run, then applies `fault`. Returns whether the fault fired before the run
// finished (the watcher gives up when `run_done` flips so a short run can't hang it).
void RunClusterWithMidRunFault(ClusterEngine& cluster, const DistributedColdBackend& dist,
                               const std::function<void()>& fault, ClusterReport* rep,
                               bool* fired_mid_run) {
  std::atomic<bool> run_done{false};
  std::atomic<bool> fired{false};
  std::thread watcher([&] {
    while (!run_done.load(std::memory_order_acquire)) {
      if (dist.Stats().total_writes >= kFaultAfterColdWrites) {
        fault();
        fired.store(true, std::memory_order_release);
        return;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  *rep = cluster.RunConversations(kPerReplicaLoad * 4, kSessionsPerReplica * 4,
                                  kRoundInterval, kSeed);
  run_done.store(true, std::memory_order_release);
  watcher.join();
  *fired_mid_run = fired.load(std::memory_order_acquire);
}

int RunDistributedCold() {
  PrintTitle("Extension: cluster serving over a replicated distributed cold plane");
  std::printf("%d storage nodes, R=%d, 4 replicas stepped in parallel, %.2f sessions/s "
              "and %lld sessions per replica\n\n",
              kDistNodes, kDistReplication, kPerReplicaLoad,
              static_cast<long long>(kSessionsPerReplica));
  const size_t pool_threads =
      std::max<size_t>(4, ThreadPool::Shared().num_threads());
  ThreadPool::ResizeShared(pool_threads);

  ClusterOptions cluster_opts;
  cluster_opts.num_replicas = 4;
  cluster_opts.router = RouterPolicy::kLeastLoadedTokens;
  cluster_opts.parallel_advance = true;
  cluster_opts.serving.method = RestoreMethod::kHCache;
  DistributedColdOptions dist_opts;
  dist_opts.replication = kDistReplication;

  // ---- Leg 1: fail-stop a storage node mid-run, then recover it ----
  PrintSection("leg 1: node killed mid-run (fail-stop), repair re-replicates");
  JsonValue kill_leg = JsonValue::Object();
  bool kill_zero_fallbacks = false, kill_failed_over = false, kill_repaired = false;
  bool kill_fired = false;
  {
    DistributedColdBackend dist(kDistNodes, kChunkBytes, dist_opts);
    TieredBackend shared(&dist, kSharedDramBytes);
    ClusterEngine cluster(Platform::DefaultTestbed(1, 4), ModelConfig::Llama2_7B(),
                          cluster_opts, &shared);
    constexpr int kVictim = 0;
    ClusterReport rep;
    // The watcher thread re-replicates onto the 3 survivors while the fleet keeps
    // serving; the Quiesce after the run picks up whatever the run queued later.
    RunClusterWithMidRunFault(
        cluster, dist,
        [&] {
          dist.SetNodeDown(kVictim);
          dist.Quiesce();
        },
        &rep, &kill_fired);
    shared.Quiesce();
    dist.Quiesce();
    const StorageStats down = dist.Stats();

    // Recovery: the node returns, repair converges it back to its home copies,
    // Balance() trims the spill copies the outage scattered.
    dist.SetNodeUp(kVictim);
    dist.Quiesce();
    const int64_t balance_moves = dist.Balance();
    const StorageStats recovered = dist.Stats();

    kill_zero_fallbacks = rep.aggregate.restore_fallbacks == 0;
    kill_failed_over = down.failover_reads > 0;
    kill_repaired = down.re_replicated_chunks > 0 && down.under_replicated_chunks == 0 &&
                    recovered.under_replicated_chunks == 0;
    std::printf("  mid-run kill fired: %s (node %d down after %lld cold writes)\n",
                kill_fired ? "yes" : "NO", kVictim,
                static_cast<long long>(kFaultAfterColdWrites));
    std::printf("  rounds completed: %lld, restore fallbacks: %lld\n",
                static_cast<long long>(rep.aggregate.rounds_completed),
                static_cast<long long>(rep.aggregate.restore_fallbacks));
    std::printf("  failover reads: %lld, degraded writes: %lld, re-replicated: %lld, "
                "under-replicated after quiesce: %lld\n",
                static_cast<long long>(down.failover_reads),
                static_cast<long long>(down.degraded_writes),
                static_cast<long long>(down.re_replicated_chunks),
                static_cast<long long>(down.under_replicated_chunks));
    std::printf("  recovery: node %d back up, %lld further re-replications, "
                "balance moved/trimmed %lld copies\n",
                kVictim,
                static_cast<long long>(recovered.re_replicated_chunks -
                                       down.re_replicated_chunks),
                static_cast<long long>(balance_moves));

    kill_leg.Set("victim_node", static_cast<int64_t>(kVictim));
    kill_leg.Set("fault_after_cold_writes", kFaultAfterColdWrites);
    kill_leg.Set("fired_mid_run", kill_fired);
    kill_leg.Set("rounds_completed", rep.aggregate.rounds_completed);
    kill_leg.Set("restore_fallbacks", rep.aggregate.restore_fallbacks);
    kill_leg.Set("cross_replica_restores", rep.cross_replica_restores);
    kill_leg.Set("storage_after_kill", DistStatsJson(down));
    kill_leg.Set("balance_moves_after_recovery", balance_moves);
    kill_leg.Set("storage_after_recovery", DistStatsJson(recovered));
    kill_leg.Set("nodes_after_recovery", NodeTableJson(dist));
  }

  // ---- Leg 2: Drain() a node while the fleet is serving ----
  PrintSection("leg 2: live drain — evacuate a node under serving traffic");
  JsonValue drain_leg = JsonValue::Object();
  bool drain_ok = false, drain_zero_fallbacks = false, drain_emptied = false;
  bool drain_fired = false;
  {
    DistributedColdBackend dist(kDistNodes, kChunkBytes, dist_opts);
    TieredBackend shared(&dist, kSharedDramBytes);
    ClusterEngine cluster(Platform::DefaultTestbed(1, 4), ModelConfig::Llama2_7B(),
                          cluster_opts, &shared);
    constexpr int kDrained = 2;
    ClusterReport rep;
    double drain_wall_s = 0;
    RunClusterWithMidRunFault(
        cluster, dist,
        [&] {
          const auto t0 = std::chrono::steady_clock::now();
          drain_ok = dist.Drain(kDrained);
          drain_wall_s =
              std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
                  .count();
        },
        &rep, &drain_fired);
    shared.Quiesce();
    dist.Quiesce();
    const StorageStats after = dist.Stats();
    const auto nodes = dist.NodeTable();
    drain_emptied = nodes[kDrained].removed && nodes[kDrained].chunks == 0;
    drain_zero_fallbacks = rep.aggregate.restore_fallbacks == 0;

    std::printf("  drain fired mid-run: %s, completed: %s in %.3fs (node %d removed, "
                "%lld chunks left on it)\n",
                drain_fired ? "yes" : "NO", drain_ok ? "yes" : "NO", drain_wall_s,
                kDrained, static_cast<long long>(nodes[kDrained].chunks));
    std::printf("  rounds completed: %lld, restore fallbacks: %lld, re-replicated "
                "during drain: %lld\n",
                static_cast<long long>(rep.aggregate.rounds_completed),
                static_cast<long long>(rep.aggregate.restore_fallbacks),
                static_cast<long long>(after.re_replicated_chunks));

    drain_leg.Set("drained_node", static_cast<int64_t>(kDrained));
    drain_leg.Set("fired_mid_run", drain_fired);
    drain_leg.Set("drain_completed", drain_ok);
    drain_leg.Set("drain_wall_s", drain_wall_s);
    drain_leg.Set("rounds_completed", rep.aggregate.rounds_completed);
    drain_leg.Set("restore_fallbacks", rep.aggregate.restore_fallbacks);
    drain_leg.Set("storage_after_drain", DistStatsJson(after));
    drain_leg.Set("nodes_after_drain", NodeTableJson(dist));
  }

  const bool acceptance = kill_fired && kill_zero_fallbacks && kill_failed_over &&
                          kill_repaired && drain_fired && drain_ok && drain_emptied &&
                          drain_zero_fallbacks;
  std::printf("\n  acceptance: %s  (mid-run kill -> zero failed restores + failover + "
              "repair convergence; live drain completed + zero failed restores)\n",
              acceptance ? "MET" : "NOT MET");

  JsonValue root = JsonValue::Object();
  root.Set("bench", "ext_dist_cold");
  root.Set("model", ModelConfig::Llama2_7B().name);
  root.Set("platform_per_replica", Platform::DefaultTestbed(1, 4).Describe());
  root.Set("workload", "sharegpt-conversations");
  root.Set("replicas", 4);
  root.Set("storage_nodes", static_cast<int64_t>(kDistNodes));
  root.Set("replication", static_cast<int64_t>(kDistReplication));
  root.Set("per_replica_load_sessions_per_s", kPerReplicaLoad);
  root.Set("sessions_per_replica", kSessionsPerReplica);
  root.Set("seed", static_cast<int64_t>(kSeed));
  root.Set("shared_dram_budget_bytes", kSharedDramBytes);
  root.Set("chunk_bytes", kChunkBytes);
  root.Set("node_kill", std::move(kill_leg));
  root.Set("live_drain", std::move(drain_leg));
  root.Set("acceptance_met", acceptance);
  WriteJsonFile("BENCH_ext_dist_cold.json", root);
  return acceptance ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "--distributed-cold") == 0) {
    return RunDistributedCold();
  }
  PrintTitle("Extension: multi-replica cluster serving over shared tiered storage");
  std::printf("Llama2-7B per replica (%s), %.2f sessions/s and %lld sessions per "
              "replica, %.0fs think time, shared DRAM tier %lld KiB over cold\n\n",
              Platform::DefaultTestbed(1, 4).Describe().c_str(), kPerReplicaLoad,
              static_cast<long long>(kSessionsPerReplica), kRoundInterval,
              static_cast<long long>(kSharedDramBytes >> 10));

  const RouterPolicy policies[] = {
      RouterPolicy::kRoundRobin, RouterPolicy::kLeastLoadedTokens,
      RouterPolicy::kPowerOfTwo, RouterPolicy::kStickyWithSpill};
  const int replica_counts[] = {1, 2, 4};

  std::printf("  %-13s %-9s %10s %10s %10s %7s %8s %8s %7s\n", "router", "replicas",
              "rounds/s", "ttft-mean", "ttft-p99", "skew", "x-restor", "affinity",
              "dram%");

  JsonValue configs = JsonValue::Array();
  std::vector<Row> rows;
  for (const RouterPolicy policy : policies) {
    double rps1 = 0;
    for (const int replicas : replica_counts) {
      const Row row = RunConfig(replicas, policy);
      const ClusterReport& r = row.rep;
      if (replicas == 1) {
        rps1 = r.RoundsPerSecond();
      }
      std::printf("  %-13s %-9d %10.3f %10.3f %10.3f %7.3f %8lld %8lld %6.1f%%\n",
                  RouterPolicyName(policy), replicas, r.RoundsPerSecond(),
                  r.aggregate.ttft.Mean(), r.aggregate.ttft.P99(), r.ReplicaRoundSkew(),
                  static_cast<long long>(r.cross_replica_restores),
                  static_cast<long long>(r.affinity_restores),
                  100.0 * r.SharedDramHitByteRatio());

      JsonValue cfg = JsonValue::Object();
      cfg.Set("router", RouterPolicyName(policy));
      cfg.Set("replicas", replicas);
      cfg.Set("offered_sessions_per_s", kPerReplicaLoad * replicas);
      cfg.Set("sessions", kSessionsPerReplica * static_cast<int64_t>(replicas));
      cfg.Set("rounds_completed", r.aggregate.rounds_completed);
      cfg.Set("rounds_submitted", r.aggregate.rounds_submitted);
      cfg.Set("rounds_per_s", r.RoundsPerSecond());
      cfg.Set("makespan_s", r.aggregate.makespan);
      cfg.Set("ttft_mean_s", r.aggregate.ttft.Mean());
      cfg.Set("ttft_p50_s", r.aggregate.ttft.Median());
      cfg.Set("ttft_p99_s", r.aggregate.ttft.P99());
      cfg.Set("tbt_mean_s", r.aggregate.tbt.Mean());
      cfg.Set("replica_round_skew", r.ReplicaRoundSkew());
      cfg.Set("cross_replica_restores", r.cross_replica_restores);
      cfg.Set("affinity_restores", r.affinity_restores);
      cfg.Set("scaling_vs_1_replica",
              rps1 > 0 ? r.RoundsPerSecond() / rps1 : 1.0);
      cfg.Set("shared_storage", StorageJson(r));
      configs.Push(std::move(cfg));
      rows.push_back(row);
    }
  }

  // Acceptance summary 1: for each router, 4-replica scaling vs 1 replica.
  bool any_policy_meets_bar = false;
  double best_scaling = 0.0;
  JsonValue scaling = JsonValue::Array();
  std::printf("\n  4-replica scaling vs 1 replica (equal per-replica hardware):\n");
  for (const RouterPolicy policy : policies) {
    double rps1 = 0, rps4 = 0;
    int64_t cross4 = 0;
    for (const Row& row : rows) {
      if (row.policy != policy) continue;
      if (row.replicas == 1) rps1 = row.rep.RoundsPerSecond();
      if (row.replicas == 4) {
        rps4 = row.rep.RoundsPerSecond();
        cross4 = row.rep.cross_replica_restores;
      }
    }
    const double x = rps1 > 0 ? rps4 / rps1 : 0.0;
    const bool meets = x >= 3.0 && cross4 > 0;
    any_policy_meets_bar = any_policy_meets_bar || meets;
    best_scaling = std::max(best_scaling, x);
    std::printf("    %-13s %.2fx  (cross-replica restores: %lld)%s\n",
                RouterPolicyName(policy), x, static_cast<long long>(cross4),
                meets ? "  [>=3x with shared-tier reuse]" : "");
    JsonValue entry = JsonValue::Object();
    entry.Set("router", RouterPolicyName(policy));
    entry.Set("speedup_4_vs_1", x);
    entry.Set("cross_replica_restores_at_4", cross4);
    entry.Set("meets_3x_bar", meets);
    scaling.Push(std::move(entry));
  }
  // The simulated sweep is deterministic, so the PR 4 committed value is a hard
  // regression bar, not a flaky wall-clock comparison.
  const bool sim_no_regress = best_scaling >= kPr4CommittedScaling4v1;
  std::printf("    best %.2fx vs PR 4 committed %.2fx%s\n", best_scaling,
              kPr4CommittedScaling4v1,
              sim_no_regress ? "  [no regression]" : "  [REGRESSION]");
  PrintNote("acceptance: >=1 policy with 4 replicas at >=3x of 1 replica and");
  PrintNote("cross-replica restores > 0 (save on A, restore on B via the shared tier).");

  JsonValue root = JsonValue::Object();
  root.Set("bench", "ext_cluster");
  root.Set("model", ModelConfig::Llama2_7B().name);
  root.Set("platform_per_replica", Platform::DefaultTestbed(1, 4).Describe());
  root.Set("workload", "sharegpt-conversations");
  root.Set("per_replica_load_sessions_per_s", kPerReplicaLoad);
  root.Set("sessions_per_replica", kSessionsPerReplica);
  root.Set("round_interval_s", kRoundInterval);
  root.Set("seed", static_cast<int64_t>(kSeed));
  root.Set("shared_dram_budget_bytes", kSharedDramBytes);
  root.Set("chunk_bytes", kChunkBytes);
  root.Set("pr4_committed_scaling_4_vs_1", kPr4CommittedScaling4v1);
  root.Set("best_scaling_4_vs_1", best_scaling);
  root.Set("sim_scaling_no_regress_vs_pr4", sim_no_regress);
  root.Set("configs", std::move(configs));
  root.Set("scaling_4_vs_1", std::move(scaling));
  const bool acceptance = any_policy_meets_bar && sim_no_regress;
  root.Set("acceptance_met", acceptance);
  WriteJsonFile("BENCH_ext_cluster.json", root);
  // Exit code gates CI on the simulated scaling sweep: >=3x and no regression vs
  // the PR 4 committed value.
  return acceptance ? 0 : 1;
}
