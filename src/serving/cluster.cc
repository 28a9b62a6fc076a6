#include "src/serving/cluster.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <queue>

#include "src/common/logging.h"
#include "src/common/rng.h"
#include "src/common/thread_pool.h"
#include "src/workload/sharegpt.h"

namespace hcache {

const char* RouterPolicyName(RouterPolicy p) {
  switch (p) {
    case RouterPolicy::kRoundRobin:
      return "round-robin";
    case RouterPolicy::kLeastLoadedTokens:
      return "least-loaded";
    case RouterPolicy::kPowerOfTwo:
      return "power-of-two";
    case RouterPolicy::kStickyWithSpill:
      return "sticky-spill";
  }
  return "?";
}

namespace {

int ArgMinTokens(const std::vector<ReplicaCandidate>& live) {
  int best = 0;
  for (int i = 1; i < static_cast<int>(live.size()); ++i) {
    if (live[static_cast<size_t>(i)].load.queued_tokens <
        live[static_cast<size_t>(best)].load.queued_tokens) {
      best = i;
    }
  }
  return best;
}

// Position of fleet id `id` in the live candidate list, or -1 when that replica is
// not routable anymore (drained, killed, or scaled away).
int FindCandidate(const std::vector<ReplicaCandidate>& live, int id) {
  for (int i = 0; i < static_cast<int>(live.size()); ++i) {
    if (live[static_cast<size_t>(i)].id == id) {
      return i;
    }
  }
  return -1;
}

class RoundRobinRouter : public SessionRouter {
 public:
  int Route(const RoundTask&, int, const std::vector<ReplicaCandidate>& live) override {
    return static_cast<int>(next_++ % live.size());
  }
  std::string Name() const override { return RouterPolicyName(RouterPolicy::kRoundRobin); }

 private:
  size_t next_ = 0;
};

class LeastLoadedRouter : public SessionRouter {
 public:
  int Route(const RoundTask&, int, const std::vector<ReplicaCandidate>& live) override {
    return ArgMinTokens(live);
  }
  std::string Name() const override {
    return RouterPolicyName(RouterPolicy::kLeastLoadedTokens);
  }
};

class PowerOfTwoRouter : public SessionRouter {
 public:
  explicit PowerOfTwoRouter(uint64_t seed) : rng_(seed) {}

  int Route(const RoundTask&, int, const std::vector<ReplicaCandidate>& live) override {
    const auto n = static_cast<uint64_t>(live.size());
    const auto a = static_cast<int>(rng_.NextBounded(n));
    auto b = static_cast<int>(rng_.NextBounded(n));
    if (n > 1 && b == a) {
      b = static_cast<int>((static_cast<uint64_t>(b) + 1) % n);  // force two choices
    }
    return live[static_cast<size_t>(a)].load.queued_tokens <=
                   live[static_cast<size_t>(b)].load.queued_tokens
               ? a
               : b;
  }
  std::string Name() const override { return RouterPolicyName(RouterPolicy::kPowerOfTwo); }

 private:
  Rng rng_;
};

// Session affinity: follow the replica that holds the session's most recent state so
// restores hit work the replica just wrote (and, with a partitioned-DRAM deployment,
// its local hot tier). Spill to the least-loaded replica when home has fallen too far
// behind — affinity must not serialize a fleet behind one hot replica — and re-route
// unconditionally when home has left the live set (drained, killed, or scaled away):
// the state lives in the SHARED tier, so any survivor can restore it.
class StickyRouter : public SessionRouter {
 public:
  explicit StickyRouter(int64_t spill_margin_tokens)
      : spill_margin_tokens_(spill_margin_tokens) {}

  int Route(const RoundTask&, int home, const std::vector<ReplicaCandidate>& live) override {
    const int least = ArgMinTokens(live);
    const int home_pos = home >= 0 ? FindCandidate(live, home) : -1;
    if (home_pos < 0) {
      return least;  // first round, or home is gone: place where there is room
    }
    const int64_t gap = live[static_cast<size_t>(home_pos)].load.queued_tokens -
                        live[static_cast<size_t>(least)].load.queued_tokens;
    return gap > spill_margin_tokens_ ? least : home_pos;
  }
  std::string Name() const override {
    return RouterPolicyName(RouterPolicy::kStickyWithSpill);
  }

 private:
  int64_t spill_margin_tokens_;
};

// Resolves a FleetEvent target: an explicit id must still be serving (kUp or
// kDraining); -1 picks the highest-id up replica (then highest draining, so a kill
// script still bites mid-drain). -1 when nothing is left to target.
int ResolveVictim(const ReplicaSet& fleet, int requested) {
  if (requested >= 0) {
    const bool serving =
        requested < fleet.size() &&
        fleet.replica(requested).lifecycle() != ReplicaLifecycle::kDown;
    return serving ? requested : -1;
  }
  for (int i = fleet.size() - 1; i >= 0; --i) {
    if (fleet.replica(i).lifecycle() == ReplicaLifecycle::kUp) {
      return i;
    }
  }
  for (int i = fleet.size() - 1; i >= 0; --i) {
    if (fleet.replica(i).lifecycle() == ReplicaLifecycle::kDraining) {
      return i;
    }
  }
  return -1;
}

}  // namespace

std::unique_ptr<SessionRouter> MakeRouter(RouterPolicy policy, uint64_t seed,
                                          int64_t sticky_spill_margin_tokens) {
  switch (policy) {
    case RouterPolicy::kRoundRobin:
      return std::make_unique<RoundRobinRouter>();
    case RouterPolicy::kLeastLoadedTokens:
      return std::make_unique<LeastLoadedRouter>();
    case RouterPolicy::kPowerOfTwo:
      return std::make_unique<PowerOfTwoRouter>(seed);
    case RouterPolicy::kStickyWithSpill:
      return std::make_unique<StickyRouter>(sticky_spill_margin_tokens);
  }
  return std::make_unique<RoundRobinRouter>();
}

// ===== ReplicaSet =====

ReplicaSet::ReplicaSet(std::vector<ServingEngine*> replicas, int initial_up)
    : replicas_(std::move(replicas)) {
  CHECK(!replicas_.empty());
  CHECK_GE(initial_up, 1);
  CHECK_LE(initial_up, size());
  active_since_.assign(replicas_.size(), 0.0);
  for (int i = 0; i < size(); ++i) {
    replicas_[static_cast<size_t>(i)]->StartExternal();
    if (i >= initial_up) {
      // Provisioned-but-idle capacity: down until the autoscaler (or a scripted
      // scale-up) revives it, and free until then in replica-seconds terms.
      replicas_[static_cast<size_t>(i)]->MarkDown();
      active_since_[static_cast<size_t>(i)] = -1.0;
    }
  }
  peak_up_ = min_up_ = initial_up;
  up_timeline_.push_back(UpSample{0.0, initial_up});
}

int ReplicaSet::NumUp() const {
  int n = 0;
  for (const ServingEngine* r : replicas_) {
    n += r->lifecycle() == ReplicaLifecycle::kUp ? 1 : 0;
  }
  return n;
}

std::vector<ReplicaCandidate> ReplicaSet::LiveCandidates() const {
  std::vector<ReplicaCandidate> live;
  live.reserve(replicas_.size());
  for (int i = 0; i < size(); ++i) {
    const ServingEngine* r = replicas_[static_cast<size_t>(i)];
    if (r->lifecycle() == ReplicaLifecycle::kUp) {
      live.push_back(ReplicaCandidate{i, r->Load()});
    }
  }
  return live;
}

double ReplicaSet::NextEventTime() const {
  double next = std::numeric_limits<double>::infinity();
  for (const ServingEngine* r : replicas_) {
    next = std::min(next, r->NextEventTime());  // down replicas report +inf
  }
  return next;
}

void ReplicaSet::Accrue(int id, double now) {
  double& since = active_since_[static_cast<size_t>(id)];
  if (since >= 0.0) {
    replica_seconds_ += now - since;
    since = -1.0;
  }
}

void ReplicaSet::RecordUpCount(double now) {
  const int n = NumUp();
  peak_up_ = std::max(peak_up_, n);
  min_up_ = std::min(min_up_, n);
  up_timeline_.push_back(UpSample{now, n});
}

bool ReplicaSet::ScaleUp(double now) {
  for (int i = 0; i < size(); ++i) {
    ServingEngine* r = replicas_[static_cast<size_t>(i)];
    if (r->lifecycle() == ReplicaLifecycle::kDown) {
      r->ResumeAt(now);
      active_since_[static_cast<size_t>(i)] = now;
      ++scale_ups_;
      RecordUpCount(now);
      return true;
    }
  }
  return false;
}

bool ReplicaSet::BeginDrain(int id, double now) {
  ServingEngine* r = replicas_[static_cast<size_t>(id)];
  if (r->lifecycle() != ReplicaLifecycle::kUp) {
    return false;
  }
  r->BeginDrain();
  ++scale_downs_;  // drains initiated, scripted or autoscaled
  RecordUpCount(now);
  return true;
}

bool ReplicaSet::DrainHighestUp(double now) {
  for (int i = size() - 1; i >= 0; --i) {
    if (replicas_[static_cast<size_t>(i)]->lifecycle() == ReplicaLifecycle::kUp) {
      return BeginDrain(i, now);
    }
  }
  return false;
}

std::vector<RoundTask> ReplicaSet::Kill(int id, double now) {
  ServingEngine* r = replicas_[static_cast<size_t>(id)];
  if (r->lifecycle() == ReplicaLifecycle::kDown) {
    return {};
  }
  Accrue(id, now);
  std::vector<RoundTask> orphans = r->Kill();
  ++kills_;
  RecordUpCount(now);
  return orphans;
}

int ReplicaSet::SettleDrains(double now) {
  int settled = 0;
  for (int i = 0; i < size(); ++i) {
    ServingEngine* r = replicas_[static_cast<size_t>(i)];
    if (r->lifecycle() == ReplicaLifecycle::kDraining && r->Idle()) {
      r->MarkDown();
      Accrue(i, now);
      ++settled;
    }
  }
  return settled;
}

void ReplicaSet::Seal(double now) {
  for (int i = 0; i < size(); ++i) {
    Accrue(i, now);
  }
}

// ===== shared multi-round-conversation driver =====

ConversationDriveResult DriveConversations(ReplicaSet& fleet, SessionRouter* router,
                                           const ConversationWorkload& workload,
                                           const std::vector<FleetEvent>& events,
                                           Autoscaler* autoscaler, bool parallel_advance) {
  CHECK_GT(fleet.size(), 0);
  const ServingOptions& opts = fleet.replica(0).options();

  // --- workload materialization (identical for any fleet size or elastic schedule,
  // so 1-vs-N and static-vs-elastic comparisons isolate the cluster layer) ---
  ShareGptGenerator gen(workload.seed, opts.max_history_tokens);
  std::unique_ptr<ArrivalProcess> arrivals_gen;
  if (workload.arrivals.kind == ArrivalSpec::Kind::kDiurnal) {
    arrivals_gen = std::make_unique<NonHomogeneousPoissonArrivals>(
        workload.sessions_per_second, workload.arrivals.diurnal, workload.seed ^ 0x5eed);
  } else {
    arrivals_gen = std::make_unique<PoissonArrivals>(workload.sessions_per_second,
                                                     workload.seed ^ 0x5eed);
  }
  struct Session {
    Conversation conv;
    size_t next_round = 0;
    int64_t history = 0;
    int home = -1;  // fleet id holding the session's saved state (-1: none yet)
    // Locality of the round currently in flight (one per session): did it restore
    // state, and from its home replica or across? Tallied when the round actually
    // completes, so dropped (or killed-and-migrated) rounds never count as restores.
    bool inflight_restores = false;
    bool inflight_cross = false;
  };
  std::vector<Session> sessions(static_cast<size_t>(workload.num_sessions));
  int64_t total_rounds = 0;
  for (auto& s : sessions) {
    s.conv = gen.Next();
    total_rounds += static_cast<int64_t>(s.conv.rounds.size());
  }

  struct Arrival {
    double time;
    int64_t session;
    bool operator>(const Arrival& o) const { return time > o.time; }
  };
  std::priority_queue<Arrival, std::vector<Arrival>, std::greater<Arrival>> arrivals;
  for (int64_t i = 0; i < workload.num_sessions; ++i) {
    arrivals.push(Arrival{arrivals_gen->NextArrivalTime(), i});
  }

  std::vector<FleetEvent> script(events);
  std::stable_sort(script.begin(), script.end(),
                   [](const FleetEvent& a, const FleetEvent& b) { return a.time < b.time; });
  size_t next_event = 0;

  ConversationDriveResult result;
  std::vector<RoundCompletion> done;
  int64_t completed = 0;
  double now = 0;
  const bool autoscaling = autoscaler != nullptr && autoscaler->enabled();

  while (completed < total_rounds && now < opts.max_sim_seconds) {
    // --- next global event ---
    // The WORK horizon decides liveness: pending arrivals (only routable while some
    // replica is up — or one can still be revived) and replica-local events. Scripted
    // events and autoscaler evaluations merely refine WHEN the clock stops next; they
    // must never keep a loop alive that can no longer make progress (a static grid
    // ticks forever).
    double work_next = std::numeric_limits<double>::infinity();
    if (!arrivals.empty()) {
      if (fleet.NumUp() > 0) {
        work_next = std::min(work_next, arrivals.top().time);
      } else {
        // Dead fleet with demand: the next revival opportunity is the horizon. The
        // autoscaler's floor repair (min_replicas) fires on its next evaluation.
        if (autoscaling) {
          work_next = std::min(work_next, autoscaler->NextEvaluationTime());
        }
        for (size_t e = next_event; e < script.size(); ++e) {
          if (script[e].kind == FleetEvent::Kind::kScaleUp) {
            work_next = std::min(work_next, std::max(now, script[e].time));
            break;
          }
        }
      }
    }
    work_next = std::min(work_next, fleet.NextEventTime());
    if (!std::isfinite(work_next)) {
      break;  // nothing can ever make progress again
    }
    double next = work_next;
    if (next_event < script.size()) {
      next = std::min(next, std::max(now, script[next_event].time));
    }
    if (autoscaling) {
      next = std::min(next, autoscaler->NextEvaluationTime());
    }
    now = std::max(now, next);

    // --- scripted fleet events due at or before the clock ---
    while (next_event < script.size() && script[next_event].time <= now) {
      const FleetEvent& ev = script[next_event++];
      switch (ev.kind) {
        case FleetEvent::Kind::kScaleUp:
          fleet.ScaleUp(now);
          break;
        case FleetEvent::Kind::kDrain: {
          const int id = ResolveVictim(fleet, ev.replica);
          if (id >= 0) {
            fleet.BeginDrain(id, now);
          }
          break;
        }
        case FleetEvent::Kind::kKill: {
          const int id = ResolveVictim(fleet, ev.replica);
          if (id < 0) {
            break;
          }
          // Fail-stop: the victim's in-flight rounds re-enter the arrival queue at
          // the kill time. The router sends them to survivors, which restore the
          // session's last saved state from the shared tier — the HCache thesis at
          // fleet scale (state outlives the GPU that computed it).
          for (const RoundTask& o : fleet.Kill(id, now)) {
            Session& s = sessions[static_cast<size_t>(o.session)];
            s.inflight_restores = false;
            s.inflight_cross = false;
            arrivals.push(Arrival{now, o.session});
            ++result.migrated_rounds;
          }
          break;
        }
      }
    }

    // --- autoscaler evaluation on its deterministic grid ---
    if (autoscaling && autoscaler->NextEvaluationTime() <= now) {
      const AutoscaleDecision d = autoscaler->Evaluate(now, fleet.LiveCandidates());
      for (int i = 0; i < d.delta; ++i) {
        if (!fleet.ScaleUp(now)) {
          break;  // every provisioned replica is already serving
        }
      }
      if (d.delta < 0) {
        fleet.DrainHighestUp(now);
      }
    }

    // Route and admit due arrivals. The candidate set is re-probed per decision so a
    // burst does not pile onto one replica within a single admission scan — and it
    // contains only kUp replicas, so draining/down replicas cannot be addressed.
    while (fleet.NumUp() > 0 && !arrivals.empty() && arrivals.top().time <= now) {
      const int64_t sid = arrivals.top().session;
      arrivals.pop();
      Session& s = sessions[static_cast<size_t>(sid)];
      const ConversationRound& cr = s.conv.rounds[s.next_round];
      RoundTask r;
      r.session = sid;
      r.history = s.history;
      r.input = cr.input_tokens;
      r.output = cr.output_tokens;
      r.arrival = now;
      r.last_round = s.next_round + 1 == s.conv.rounds.size();
      int target = -1;
      if (router != nullptr) {
        const std::vector<ReplicaCandidate> live = fleet.LiveCandidates();
        int idx = router->Route(r, s.home, live);
        if (idx < 0 || idx >= static_cast<int>(live.size())) {
          idx = 0;  // defensive: a router must not address absent candidates
        }
        target = live[static_cast<size_t>(idx)].id;
      } else {
        // Null router: lowest-id up replica, no load probes (the classic
        // single-replica RunConversations path).
        for (int i = 0; i < fleet.size(); ++i) {
          if (fleet.replica(i).lifecycle() == ReplicaLifecycle::kUp) {
            target = i;
            break;
          }
        }
      }
      // A round only counts toward restore locality when its method actually reads
      // state back through the shared tier (recompute/ideal never do).
      s.inflight_restores = r.history > 0 && MethodNeedsRestorePhase(opts.method) &&
                            opts.state_backend != nullptr;
      s.inflight_cross = s.inflight_restores && target != s.home;
      s.home = target;  // this replica will hold the state saved after this round
      fleet.replica(target).Submit(r);
    }

    // Step every replica to the global clock (down replicas no-op). Serial mode
    // advances them in fixed id order; parallel mode advances them concurrently
    // (replica state is disjoint; only the shared storage backend sees concurrent
    // traffic) and merges per-replica completions in id order, so both schedules
    // produce the same simulation byte-for-byte.
    done.clear();
    if (parallel_advance && fleet.size() > 1) {
      std::vector<std::vector<RoundCompletion>> done_per(
          static_cast<size_t>(fleet.size()));
      ThreadPool::Shared().ParallelFor(
          0, fleet.size(), 1, [&fleet, &done_per, now](int64_t lo, int64_t hi) {
            for (int64_t i = lo; i < hi; ++i) {
              fleet.replica(static_cast<int>(i))
                  .Advance(now, &done_per[static_cast<size_t>(i)]);
            }
          });
      for (const auto& d : done_per) {
        done.insert(done.end(), d.begin(), d.end());
      }
    } else {
      for (int i = 0; i < fleet.size(); ++i) {
        fleet.replica(i).Advance(now, &done);
      }
    }
    for (const RoundCompletion& c : done) {
      Session& s = sessions[static_cast<size_t>(c.session)];
      if (c.dropped) {
        // The replica refused the round outright (and released any stored state);
        // the session cannot continue and its remaining rounds are unreachable.
        s.next_round = s.conv.rounds.size();
        ++result.sessions_dropped;
        continue;
      }
      if (s.inflight_restores) {
        ++(s.inflight_cross ? result.cross_replica_restores : result.affinity_restores);
        s.inflight_restores = false;
      }
      s.history += c.new_tokens;
      ++s.next_round;
      ++completed;
      if (s.next_round < s.conv.rounds.size()) {
        arrivals.push(Arrival{c.finish_time + workload.round_interval_s, c.session});
      } else {
        ++result.sessions_completed;
      }
    }

    // Retire drains that went idle this step (their replica-seconds meter stops at
    // the moment the fleet observes them idle).
    fleet.SettleDrains(now);
  }
  fleet.Seal(now);
  return result;
}

// The classic single-replica entry point runs the SAME driver as the cluster plane
// (defined here so engine.cc stays free of cluster-layer concerns).
ServingReport ServingEngine::RunConversations(double sessions_per_second,
                                              int64_t num_sessions, double round_interval_s,
                                              uint64_t seed) {
  ReplicaSet fleet({this}, /*initial_up=*/1);
  ConversationWorkload workload;
  workload.sessions_per_second = sessions_per_second;
  workload.num_sessions = num_sessions;
  workload.round_interval_s = round_interval_s;
  workload.seed = seed;
  DriveConversations(fleet, /*router=*/nullptr, workload);
  ServingReport report = FinishExternal();
  if (options_.state_backend != nullptr) {
    // A tiered backend may still be write-backing evicted state; settle the
    // background plane so the snapshot below is stable and conserved.
    options_.state_backend->Quiesce();
    report.storage = options_.state_backend->Stats();
  }
  return report;
}

// ===== ClusterEngine =====

double ClusterReport::ReplicaRoundSkew() const {
  if (replicas.empty() || aggregate.rounds_completed == 0) {
    return 1.0;  // a fleet that served nothing is (vacuously) perfectly even
  }
  int64_t max_rounds = 0;
  for (const ServingReport& r : replicas) {
    max_rounds = std::max(max_rounds, r.rounds_completed);
  }
  const double mean = static_cast<double>(aggregate.rounds_completed) /
                      static_cast<double>(replicas.size());
  return mean > 0 ? static_cast<double>(max_rounds) / mean : 1.0;
}

ClusterEngine::ClusterEngine(const Platform& replica_platform, const ModelConfig& cfg,
                             const ClusterOptions& options, StorageBackend* shared_backend)
    : options_(options),
      router_(MakeRouter(options.router, kRouterSeed)),
      shared_backend_(shared_backend) {
  CHECK_GT(options_.num_replicas, 0);
  CHECK_LE(options_.initial_replicas, options_.num_replicas);
  options_.serving.state_backend = shared_backend_;  // every replica shares one tier
  replicas_.reserve(static_cast<size_t>(options_.num_replicas));
  for (int i = 0; i < options_.num_replicas; ++i) {
    replicas_.push_back(
        std::make_unique<ServingEngine>(replica_platform, cfg, options_.serving));
  }
}

ClusterReport ClusterEngine::RunConversations(double sessions_per_second,
                                              int64_t num_sessions,
                                              double round_interval_s, uint64_t seed) {
  ClusterReport report;
  report.router = router_->Name();

  std::vector<ServingEngine*> engines;
  engines.reserve(replicas_.size());
  for (auto& r : replicas_) {
    engines.push_back(r.get());
  }
  const int initial_up =
      options_.initial_replicas > 0 ? options_.initial_replicas : num_replicas();
  ReplicaSet fleet(std::move(engines), initial_up);
  Autoscaler autoscaler(options_.autoscaler, num_replicas());

  ConversationWorkload workload;
  workload.sessions_per_second = sessions_per_second;
  workload.num_sessions = num_sessions;
  workload.round_interval_s = round_interval_s;
  workload.seed = seed;
  workload.arrivals = options_.arrivals;

  const ConversationDriveResult drive =
      DriveConversations(fleet, router_.get(), workload, options_.events, &autoscaler,
                         options_.parallel_advance);
  report.cross_replica_restores = drive.cross_replica_restores;
  report.affinity_restores = drive.affinity_restores;
  report.migrated_rounds = drive.migrated_rounds;
  report.sessions_completed = drive.sessions_completed;
  report.sessions_dropped = drive.sessions_dropped;
  report.scale_ups = fleet.scale_ups();
  report.scale_downs = fleet.scale_downs();
  report.kills = fleet.kills();
  report.peak_replicas_up = fleet.peak_up();
  report.min_replicas_up = fleet.min_up();
  report.replica_seconds = fleet.replica_seconds();
  report.up_timeline = fleet.up_timeline();

  // Seal per-replica reports and merge the fleet view.
  report.replicas.reserve(replicas_.size());
  for (auto& r : replicas_) {
    report.replicas.push_back(r->FinishExternal());
  }
  report.aggregate.state_codec = options_.serving.state_codec;
  for (const ServingReport& r : report.replicas) {
    report.aggregate.ttft.Merge(r.ttft);
    report.aggregate.tbt.Merge(r.tbt);
    report.aggregate.rounds_completed += r.rounds_completed;
    report.aggregate.rounds_submitted += r.rounds_submitted;
    report.aggregate.restore_fallbacks += r.restore_fallbacks;
    report.aggregate.rounds_abandoned += r.rounds_abandoned;
    report.aggregate.state_logical_bytes += r.state_logical_bytes;
    report.aggregate.state_encoded_bytes += r.state_encoded_bytes;
    report.aggregate.makespan = std::max(report.aggregate.makespan, r.makespan);
  }
  if (shared_backend_ != nullptr) {
    // Settle asynchronous eviction write-back before snapshotting, so the fleet
    // counters are conserved (no bytes in flight) and drain depth reads zero unless
    // the tier failed to keep up.
    shared_backend_->Quiesce();
    report.storage = shared_backend_->Stats();
    report.aggregate.storage = report.storage;
  }
  return report;
}

}  // namespace hcache
