// Elastic multi-replica cluster serving plane over shared tiered storage.
//
// The paper evaluates restoration inside a single serving engine, but hidden-state
// caches that outlive GPU residency only pay off at fleet scale: a session's next
// round may land on a *different* replica than the one that saved its state — because
// a router moved it, because its home replica drained away in a scale-down, or
// because its home replica died mid-round. This layer multiplexes N `ServingEngine`
// replicas (each with its own GPU/KV budget) behind a pluggable `SessionRouter`, all
// persisting context state through ONE shared `StorageBackend` — so a save on
// replica A followed by a restore on replica B exercises the real cross-replica
// reuse pattern, and the shared DRAM tier's hit ratio reflects fleet-wide locality.
//
// Elasticity is first-class: replicas are lifecycle objects (`ReplicaLifecycle` in
// engine.h) managed by a `ReplicaSet`; the driver interleaves session arrivals,
// replica steps, scripted fleet events (kill / drain / scale-up), and a deterministic
// `Autoscaler` on one global clock. Routers see only the *live* (kUp) candidate set,
// so routing to a draining or down replica is impossible by construction; sticky
// sessions whose home is gone simply re-route and restore from the shared tier.
// All of it is deterministic given the seeds — elastic runs replay byte-for-byte.
#ifndef HCACHE_SRC_SERVING_CLUSTER_H_
#define HCACHE_SRC_SERVING_CLUSTER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/serving/autoscaler.h"
#include "src/serving/engine.h"
#include "src/storage/storage_backend.h"
#include "src/workload/arrival.h"

namespace hcache {

enum class RouterPolicy {
  kRoundRobin,         // rotate over live replicas, load-blind
  kLeastLoadedTokens,  // argmin queued token demand (ties -> lowest id)
  kPowerOfTwo,         // sample two live replicas, pick the less loaded (seeded)
  kStickyWithSpill,    // session affinity to the last-serving replica, spill on skew
};

const char* RouterPolicyName(RouterPolicy p);

// Routing strategy seam. `home` is the fleet id of the replica that served (and
// saved the state of) the session's previous round, or -1 for a session's first
// round — it may name a replica that is no longer in `live` (drained, killed, or
// scaled away), in which case the policy must pick a survivor. Returns an index into
// `live`, which holds ONLY kUp replicas in ascending fleet-id order, each with a
// fresh load probe. Implementations must be deterministic functions of their seed
// and the argument stream.
class SessionRouter {
 public:
  virtual ~SessionRouter() = default;
  virtual int Route(const RoundTask& round, int home,
                    const std::vector<ReplicaCandidate>& live) = 0;
  virtual std::string Name() const = 0;
};

// Seed of the cluster's router (only kPowerOfTwo draws from it).
inline constexpr uint64_t kRouterSeed = 0x5e5510f;
// The cluster's kStickyWithSpill margin: roughly one whale context's worth of work.
inline constexpr int64_t kStickySpillMarginTokens = 16384;

// `sticky_spill_margin_tokens` only affects kStickyWithSpill: the home replica is
// abandoned for this round when its queued token demand exceeds the least-loaded
// replica's by more than the margin.
std::unique_ptr<SessionRouter> MakeRouter(RouterPolicy policy, uint64_t seed,
                                          int64_t sticky_spill_margin_tokens =
                                              kStickySpillMarginTokens);

// A scripted fleet transition fired at a simulation time: fail-stop a replica
// (kKill), gracefully retire one (kDrain), or revive a down one (kScaleUp).
// `replica` -1 targets the highest-id up replica at fire time (kKill/kDrain) or the
// lowest-id down replica (kScaleUp — which is also what -1 means there explicitly).
struct FleetEvent {
  enum class Kind { kKill, kDrain, kScaleUp };
  double time = 0;
  Kind kind = Kind::kKill;
  int replica = -1;
};

// Which arrival process feeds the fleet. kStationary reproduces the classic Fig 9
// Poisson arrivals bit-for-bit; kDiurnal modulates the same base rate with
// `DiurnalShape` (sinusoid + flash crowds) via thinning.
struct ArrivalSpec {
  enum class Kind { kStationary, kDiurnal };
  Kind kind = Kind::kStationary;
  DiurnalShape diurnal;
};

// The multi-round conversation workload (Fig 9) a drive consumes: session arrivals
// at `sessions_per_second` (shaped by `arrivals`), ShareGPT conversations, rounds
// spaced by think time. Workload materialization depends only on these fields, so
// 1-vs-N and static-vs-elastic comparisons run the exact same request stream.
struct ConversationWorkload {
  double sessions_per_second = 1.0;
  int64_t num_sessions = 0;
  double round_interval_s = 5.0;
  uint64_t seed = 0;
  ArrivalSpec arrivals;
};

// Non-owning lifecycle manager for a fixed fleet of replicas: tracks which are
// kUp/kDraining/kDown, applies scale/fail transitions, and accounts replica-seconds
// (the "GPU-hours" the elastic bench compares against a static fleet). Construction
// resets every replica (StartExternal) and marks ids >= initial_up down — they are
// provisioned-but-idle capacity the autoscaler can revive.
class ReplicaSet {
 public:
  ReplicaSet(std::vector<ServingEngine*> replicas, int initial_up);

  int size() const { return static_cast<int>(replicas_.size()); }
  int NumUp() const;
  ServingEngine& replica(int id) { return *replicas_[static_cast<size_t>(id)]; }
  const ServingEngine& replica(int id) const { return *replicas_[static_cast<size_t>(id)]; }

  // The router/autoscaler view: kUp replicas in ascending id order, freshly probed.
  std::vector<ReplicaCandidate> LiveCandidates() const;

  // Earliest future event across non-down replicas (+inf when none can progress).
  double NextEventTime() const;

  // Revives the lowest-id kDown replica at fleet time `now`. False when none is down.
  bool ScaleUp(double now);

  // Graceful retirement: the replica stops admitting, finishes in-flight rounds, and
  // SettleDrains() moves it to kDown once idle. No-ops (returns false) unless kUp.
  bool BeginDrain(int id, double now);
  // Drains the highest-id kUp replica (the autoscaler's scale-down step). False when
  // no replica is up.
  bool DrainHighestUp(double now);

  // Fail-stop `id` (kUp or kDraining): abandons its in-flight rounds and returns
  // them for the driver to re-route to survivors. Empty when already down.
  std::vector<RoundTask> Kill(int id, double now);

  // Moves idle kDraining replicas to kDown. Returns how many settled.
  int SettleDrains(double now);

  // Ends lifecycle accounting at `now` (accrues replica-seconds for replicas still
  // active). Call once, after the drive loop.
  void Seal(double now);

  // --- accounting (valid after Seal) ---
  // Total kUp + kDraining replica time — a draining GPU is still provisioned.
  double replica_seconds() const { return replica_seconds_; }
  int peak_up() const { return peak_up_; }
  int min_up() const { return min_up_; }
  int64_t scale_ups() const { return scale_ups_; }
  int64_t scale_downs() const { return scale_downs_; }
  int64_t kills() const { return kills_; }

  struct UpSample {
    double time = 0;
    int up = 0;
  };
  // (time, up-count) after every transition; first entry is (0, initial_up).
  const std::vector<UpSample>& up_timeline() const { return up_timeline_; }

 private:
  void Accrue(int id, double now);     // stop the replica-seconds meter for id
  void RecordUpCount(double now);      // append to the timeline, update peak/min

  std::vector<ServingEngine*> replicas_;
  std::vector<double> active_since_;   // -1 when down (meter stopped)
  double replica_seconds_ = 0;
  int peak_up_ = 0;
  int min_up_ = 0;
  int64_t scale_ups_ = 0;
  int64_t scale_downs_ = 0;
  int64_t kills_ = 0;
  std::vector<UpSample> up_timeline_;
};

struct ConversationDriveResult {
  int64_t cross_replica_restores = 0;  // history>0 rounds routed off their home
  int64_t affinity_restores = 0;       // history>0 rounds routed back home
  // Rounds a Kill() abandoned that were re-queued and served by a survivor. The
  // accounting identity (absent drops) is: fleet rounds_submitted ==
  // rounds_completed + migrated_rounds, because each migrated round is submitted
  // twice — once on the victim, once on the survivor.
  int64_t migrated_rounds = 0;
  int64_t sessions_completed = 0;  // sessions whose every round finished
  int64_t sessions_dropped = 0;    // sessions a replica refused outright
};

// Shared multi-round-conversation driver: materializes the seeded ShareGPT trace and
// (possibly non-stationary) session arrivals, then drives the fleet on one global
// clock through the stepped interface, interleaving arrivals, replica steps, scripted
// `events`, and autoscaler evaluations. Both ServingEngine::RunConversations (one
// replica, null router) and the cluster plane run THIS function, so the two paths
// cannot drift apart. A null `router` routes everything to the lowest-id up replica
// without probing loads. A null `autoscaler` (or a kStatic one) leaves the fleet
// alone. Workload caps (max_history_tokens, max_sim_seconds) come from replica 0's
// options; callers harvest reports via FinishExternal() afterwards.
//
// Failure semantics: when an event kills a replica, its abandoned rounds re-enter
// the arrival queue at the kill time; the router re-routes them to survivors, which
// restore the session's last saved state from the shared tier (recompute fallback if
// nothing was ever saved). Sessions never lose tokens — fail-stop abandons only
// undelivered work.
//
// `parallel_advance` steps the replicas concurrently on the shared thread pool
// within each global-clock iteration. Replica simulation state is disjoint, routing
// and completion handling stay serial, and completions are merged in replica-id
// order, so the simulated results are byte-identical to the serial schedule — only
// the *wall-clock* behavior changes: the replicas' state save/restore traffic hits
// the shared StorageBackend concurrently, which is exactly the access pattern the
// sharded tiered backend exists for (and what bench_ext_cluster measures).
ConversationDriveResult DriveConversations(ReplicaSet& fleet, SessionRouter* router,
                                           const ConversationWorkload& workload,
                                           const std::vector<FleetEvent>& events = {},
                                           Autoscaler* autoscaler = nullptr,
                                           bool parallel_advance = false);

struct ClusterOptions {
  int num_replicas = 2;
  // Replicas up at t=0; the rest are provisioned-but-idle capacity the autoscaler
  // (or a kScaleUp event) can revive. 0 = all of num_replicas (the static fleet of
  // PRs 4-9, reproduced bit-for-bit when autoscaler/events/arrivals stay default).
  int initial_replicas = 0;
  RouterPolicy router = RouterPolicy::kLeastLoadedTokens;
  // Step the replicas concurrently (shared thread pool) within each global-clock
  // iteration. Simulated results are byte-identical to the serial schedule — replica
  // state is disjoint and completions merge in id order — but the replicas' state
  // traffic now hits the shared backend from concurrent threads, so wall-clock time
  // reflects the backend's real lock discipline. Storage *hit-split* counters become
  // schedule-dependent for a tiered backend (conservation still holds), which is why
  // the default stays serial (deterministic stats).
  bool parallel_advance = false;
  // Elastic plane: replica autoscaling (kStatic = off), arrival shaping
  // (kStationary = classic Poisson), and scripted kill/drain/scale events (empty =
  // none). All defaults reproduce the fixed-fleet behavior exactly.
  AutoscalerOptions autoscaler;
  ArrivalSpec arrivals;
  std::vector<FleetEvent> events;
  // Per-replica engine configuration. `serving.state_backend` is ignored — every
  // replica is rewired to the cluster's shared backend.
  ServingOptions serving;
};

struct ClusterReport {
  // Merged view: TTFT/TBT histograms across all replicas, summed round counts,
  // makespan = the latest replica clock, summed codec byte accounting.
  ServingReport aggregate;
  std::vector<ServingReport> replicas;

  // Routing-plane restore locality: rounds with non-empty history routed to the
  // replica that saved their state (`affinity_restores`) vs to a different one
  // (`cross_replica_restores`). Cross-replica restores are the reuse pattern only a
  // shared tier can serve.
  int64_t cross_replica_restores = 0;
  int64_t affinity_restores = 0;

  // Elastic-plane outcome: failure migration and fleet sizing over the run.
  int64_t migrated_rounds = 0;     // killed-replica rounds served by survivors
  int64_t sessions_completed = 0;  // sessions whose every round finished
  int64_t sessions_dropped = 0;
  int64_t scale_ups = 0;
  int64_t scale_downs = 0;
  int64_t kills = 0;
  int peak_replicas_up = 0;
  int min_replicas_up = 0;
  // Total kUp + kDraining replica time — the "GPU-seconds" an elastic fleet pays;
  // compare against peak_replicas_up * makespan for the static-peak cost.
  double replica_seconds = 0;
  std::vector<ReplicaSet::UpSample> up_timeline;

  // Shared-backend counters at run end, snapshotted after Quiesce() so an
  // asynchronously-draining tier is settled (fleet-wide tier hit ratios, plus the
  // shared tier's concurrency-plane health: drain depth, writer stalls, rollbacks).
  StorageStats storage;
  std::string router;

  // Load-balance skew: max over replicas of completed rounds, divided by the mean
  // (1.0 = perfectly even; round-robin's load-blindness shows up here). Degenerate
  // fleets (no replicas, or no completed rounds anywhere) read as perfectly even.
  double ReplicaRoundSkew() const;
  double RoundsPerSecond() const { return aggregate.RoundsPerSecond(); }
  double SharedDramHitByteRatio() const { return storage.DramHitByteRatio(); }
  // Shared-tier concurrency stalls: writes that blocked on the drain high-water
  // mark. Zero when the drainer keeps up (or for synchronous tiers).
  int64_t SharedWriterStalls() const { return storage.writer_stalls; }
  // Replica-seconds an elastic run saved vs holding peak_replicas_up for the whole
  // makespan (0 when the fleet never resized).
  double ReplicaSecondsSavedVsPeak() const {
    const double peak = static_cast<double>(peak_replicas_up) * aggregate.makespan;
    return peak > 0 ? peak - replica_seconds : 0.0;
  }
};

class ClusterEngine {
 public:
  // Every replica gets `replica_platform` (its own GPU + storage budget); state flows
  // through `shared_backend` (must outlive the engine; thread-safe per the
  // StorageBackend contract, though this driver is single-threaded and serializes
  // access deterministically).
  ClusterEngine(const Platform& replica_platform, const ModelConfig& cfg,
                const ClusterOptions& options, StorageBackend* shared_backend);

  // Fig 9's multi-round conversation workload at cluster scale: one session arrival
  // process (Poisson, or diurnal per options().arrivals) feeds the router; rounds
  // within a session are spaced by think time and may be served by any live replica.
  // Scripted events and the autoscaler resize the fleet mid-run. Deterministic for a
  // fixed seed.
  ClusterReport RunConversations(double sessions_per_second, int64_t num_sessions,
                                 double round_interval_s, uint64_t seed);

  int num_replicas() const { return static_cast<int>(replicas_.size()); }
  ServingEngine& replica(int i) { return *replicas_[static_cast<size_t>(i)]; }
  const ClusterOptions& options() const { return options_; }

 private:
  ClusterOptions options_;
  std::unique_ptr<SessionRouter> router_;
  std::vector<std::unique_ptr<ServingEngine>> replicas_;
  StorageBackend* shared_backend_;
};

}  // namespace hcache

#endif  // HCACHE_SRC_SERVING_CLUSTER_H_
