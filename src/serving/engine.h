// Iteration-level LLM serving simulator with continuous batching and SplitFuse.
//
// This reproduces the serving-system context HCache is embedded in (§5): requests are
// admitted against a PagedAttention-style KV token budget, an extra *restoration phase*
// precedes prefill for requests whose state was evicted, prefill is chunked and fused
// with decode iterations (SplitFuse), and state saving runs either through the
// two-stage saver or synchronously (the Fig 14 ablation).
//
// Restoration runs asynchronously with decoding: its transmissions use the otherwise
// idle storage path while its compute steals GPU time from concurrent iterations —
// which is exactly why the paper's TBT overhead tracks the restoration method's compute
// cost (≤4% for HCache, §6.1.1).
#ifndef HCACHE_SRC_SERVING_ENGINE_H_
#define HCACHE_SRC_SERVING_ENGINE_H_

#include <cstdint>
#include <deque>
#include <vector>

#include "src/common/histogram.h"
#include "src/core/restorer.h"
#include "src/model/config.h"
#include "src/serving/gpu_kv_cache.h"
#include "src/sim/gpu_timing.h"
#include "src/sim/hardware.h"
#include "src/storage/storage_backend.h"
#include "src/workload/leval.h"
#include "src/workload/sharegpt.h"

namespace hcache {

enum class SaveMode {
  kNone,      // ideal: no state saving
  kTwoStage,  // §4.2.2: snapshot + background chunk flush (off the critical path)
  kDirect,    // Fig 14 ablation: synchronous row-granular writes per layer
};

// Largest decode batch an engine runs per iteration.
inline constexpr int64_t kMaxBatchSize = 32;
// Fixed per-round engine overhead (scheduling, tokenization, API) added to TTFT, in
// seconds.
inline constexpr double kRequestOverheadS = 20e-3;
// FP32-equivalent descriptor bytes per history token that RunConversations writes
// through ServingOptions::state_backend: a scaled stand-in for the
// hidden_dim * sizeof(float) * num_layers real footprint, keeping simulated runs cheap
// while preserving relative context sizes for eviction decisions. The bytes actually
// written — and the bytes the restoration stream is charged for — are this scaled by
// ServingOptions::state_codec.
inline constexpr int64_t kStateBytesPerToken = 8;

struct ServingOptions {
  RestoreMethod method = RestoreMethod::kHCache;
  int64_t prefill_chunk_tokens = 512;  // SplitFuse per-iteration prefill budget
  int64_t kv_capacity_tokens = 0;      // 0 = derive from HBM minus weights (§2.4)
  SaveMode save_mode = SaveMode::kTwoStage;
  // Deployment context cap for conversation traces (histories truncate here; should
  // stay comfortably below kv_capacity_tokens or whales serialize admission).
  int64_t max_history_tokens = 16384;
  double max_sim_seconds = 7200.0;
  // Storage backend the engine registers evicted context state with (must outlive the
  // engine; may be shared across engines). When set, RunConversations writes each
  // completed round's state descriptor through it, reads it back before restoration,
  // and deletes it when the session ends — so a TieredBackend sees the real context
  // reuse pattern and ServingReport can surface per-tier hit ratios. Null = no
  // storage accounting (timing is unaffected either way; the performance plane models
  // transfer time via Platform::storage).
  StorageBackend* state_backend = nullptr;
  // Storage precision of the hidden-state plane. kFp16 is the deployment default (the
  // paper sizes hidden-state IO for FP16 transport); kFp32 models the raw-float
  // strawman at 2x the bytes; kInt8 is the §7 CacheGen-style option. Affects both the
  // restoration timing model and the encoded bytes state_backend sees.
  ChunkCodec state_codec = ChunkCodec::kFp16;
};

struct ServingReport {
  Histogram ttft;  // seconds, one sample per round/request
  Histogram tbt;   // seconds, one sample per generated token after the first
  int64_t rounds_completed = 0;
  int64_t rounds_submitted = 0;
  double makespan = 0;
  double cache_hit_ratio = 0;  // only for RunWithGpuCache
  // Snapshot of ServingOptions::state_backend counters at run end (zeros when no
  // backend was attached). storage.DramHitRatio() is the DRAM-tier hit ratio of the
  // restoration read path; the byte-granular fields (bytes_stored, *_hit_bytes) are
  // *encoded* sizes — the real DRAM/SSD footprint under the configured codec.
  StorageStats storage;
  // Codec accounting for the state the run persisted: encoded bytes written vs their
  // FP32-equivalent logical size.
  ChunkCodec state_codec = ChunkCodec::kFp16;
  int64_t state_logical_bytes = 0;
  int64_t state_encoded_bytes = 0;
  // Rounds whose stored state came back missing or corrupt at restore time and were
  // served by full recomputation instead (detected-corrupt is a fallback, not a miss
  // and never a crash — the durability plane's serving-level contract). The round
  // pays recompute's restoration time, so corruption shows up as a tail-latency
  // penalty rather than a wrong answer.
  int64_t restore_fallbacks = 0;
  // In-flight rounds a Kill() discarded on this replica (fail-stop semantics: no
  // tokens were delivered; the cluster driver re-routes them to survivors, where
  // they restore the session's last *saved* state from the shared tier).
  int64_t rounds_abandoned = 0;

  double StateCompressionRatio() const {
    return state_encoded_bytes > 0
               ? static_cast<double>(state_logical_bytes) /
                     static_cast<double>(state_encoded_bytes)
               : 1.0;
  }

  double RoundsPerSecond() const {
    return makespan > 0 ? static_cast<double>(rounds_completed) / makespan : 0.0;
  }
};

// One conversation round handed to a replica by an external driver (the cluster's
// router, or RunConversations driving its own engine). `arrival` is the submission
// time on the shared simulation clock; `last_round` tells the replica whether to
// persist the grown state (more rounds follow) or drop the context (session over).
struct RoundTask {
  int64_t session = 0;  // globally unique across the cluster (storage context id)
  int64_t history = 0, input = 0, output = 0;
  double arrival = 0;
  bool last_round = false;
};

// Whether `m` actually runs a restoration phase that reads state back through the
// shared tier (recompute rebuilds from tokens; ideal assumes residency). The cluster
// driver uses this to tally restore locality only for rounds that truly restored.
bool MethodNeedsRestorePhase(RestoreMethod m);

// Completion event returned by ServingEngine::Advance: the driver uses it to grow the
// session's history and schedule the next round after think time. `dropped` marks a
// round the replica refused (its KV demand exceeds the pool outright): no tokens were
// produced, the session cannot continue, and any state it had stored was deleted.
struct RoundCompletion {
  int64_t session = 0;
  int64_t new_tokens = 0;  // input + output of the finished round (0 when dropped)
  double finish_time = 0;
  bool dropped = false;
};

// Instantaneous load probes the cluster's routers read. All token counts are KV-pool
// tokens (history + prompt reservations plus pending demand).
struct ReplicaLoad {
  int64_t queued_rounds = 0;   // rounds admitted but not yet completed
  int64_t queued_tokens = 0;   // their total token demand (history+input+output)
  int64_t kv_free_tokens = 0;  // unreserved KV-pool tokens
  int64_t kv_capacity_tokens = 0;

  double KvOccupancy() const {
    return kv_capacity_tokens > 0
               ? 1.0 - static_cast<double>(kv_free_tokens) /
                           static_cast<double>(kv_capacity_tokens)
               : 0.0;
  }
};

// Replica lifecycle (the elastic cluster plane's state machine):
//   kUp       — serving; routable.
//   kDraining — finishing admitted rounds; takes no new admissions. State keeps
//               persisting through the shared tier, so a drained replica's sessions
//               simply restore elsewhere on their next round.
//   kDown     — not serving (drained away, scaled down, or fail-stopped). Scale-up
//               revives a kDown replica via ResumeAt().
enum class ReplicaLifecycle { kUp, kDraining, kDown };

const char* ReplicaLifecycleName(ReplicaLifecycle s);

// One routable replica as the routers and the autoscaler see it: its stable fleet id
// plus a fresh load probe. Candidate lists contain ONLY kUp replicas, so routing to
// a draining or down replica is impossible by construction.
struct ReplicaCandidate {
  int id = 0;
  ReplicaLoad load;
};

class ServingEngine {
 public:
  ServingEngine(const Platform& platform, const ModelConfig& cfg,
                const ServingOptions& options);

  // Fig 9: multi-round conversations. Sessions arrive as a Poisson process at
  // `sessions_per_second`; rounds within a session are spaced by `round_interval_s` of
  // think time; the KV cache is evicted when a round completes (§6.1.1 setup).
  // Implemented as a single-replica driver over the stepped interface below, so the
  // cluster path and the classic path share one simulation core.
  ServingReport RunConversations(double sessions_per_second, int64_t num_sessions,
                                 double round_interval_s, uint64_t seed);

  // --- stepped interface: externally-driven session admission (cluster hooks) ---
  //
  // Lifecycle: StartExternal() resets the simulation; the driver then interleaves
  // Submit() and Advance() calls, using NextEventTime() to order replicas on a global
  // clock; FinishExternal() seals the report. The replica's local clock may overshoot
  // the driver's clock by at most one fused iteration (iterations are indivisible).

  // Resets all simulation state and starts a fresh report.
  void StartExternal();

  // Admits one round. The driver must only submit rounds whose arrival time has been
  // reached on its clock (arrival <= the next Advance() horizon).
  void Submit(const RoundTask& r);

  // Advances the local simulation until the local clock passes `until` or the replica
  // runs out of work. Completed rounds are appended to `done` (state saving and
  // context deletion through options().state_backend happen here).
  void Advance(double until, std::vector<RoundCompletion>* done);

  // Earliest future time this replica can make progress: its local clock while work is
  // runnable, the restoration-finish time while only a restore is in flight, +inf when
  // idle. The driver's global clock is the min over replicas and pending arrivals.
  double NextEventTime() const;

  // Seals and returns the external-mode report. Unlike RunConversations, the storage
  // stats snapshot is left to the caller: a shared backend's counters belong to the
  // cluster, not to any one replica.
  ServingReport FinishExternal();

  // Router probes (valid between Advance calls).
  ReplicaLoad Load() const;

  // --- replica lifecycle (the elastic cluster plane) ---
  //
  // StartExternal() resets the replica to kUp. Submit() CHECK-fails on a replica that
  // is not kUp — the cluster driver builds its candidate lists from kUp replicas only,
  // so a violation is a driver bug, not a load condition.

  ReplicaLifecycle lifecycle() const { return lifecycle_; }

  // Graceful scale-down: stop admissions, let admitted rounds finish. The replica
  // keeps advancing until Idle(), at which point the owner marks it down.
  void BeginDrain();

  // kDraining -> kDown once all in-flight work has completed. CHECK-fails if called
  // on a replica that still holds work.
  void MarkDown();

  // Fail-stop: abandon every in-flight round (pending, restoring, prefilling,
  // decoding — none of them delivered tokens), release the KV pool, and go kDown.
  // Returns the abandoned rounds so the driver can re-route them to survivors; their
  // sessions restore the last state a FinishRound *saved* through the shared tier
  // (never-saved state costs a recompute fallback on the survivor).
  std::vector<RoundTask> Kill();

  // Scale-up revival: kDown -> kUp with the local clock advanced to the fleet time
  // (a revived replica must not report events in the driver's past).
  void ResumeAt(double now);

  // True when no admitted round is pending, restoring, prefilling, or decoding.
  bool Idle() const;

  // Fig 4 / Fig 10: long-context requests served one at a time (batch size 1):
  // TTFT = overhead + restoration(context) + prefill(question).
  ServingReport RunLongContextSerial(const std::vector<LongContextRequest>& requests);

  // Fig 15: serial serving with an LRU GPU KV cache in front of restoration.
  // `context_ids[i]` names the stored context request i reuses.
  ServingReport RunWithGpuCache(const std::vector<LongContextRequest>& requests,
                                const std::vector<int64_t>& context_ids,
                                int64_t cache_capacity_tokens);

  // Fig 14: steady-state TBT for a decode batch where every sequence holds
  // `history_per_seq` context tokens and hidden states are being saved.
  double SteadyStateTbt(int64_t batch_size, int64_t history_per_seq) const;

  // KV tokens the GPU pool can hold: (0.9*HBM - weights)/kv-bytes-per-token, the §2.4
  // arithmetic (~48K tokens for Llama2-7B on A100-40G).
  int64_t DeriveKvCapacityTokens() const;

  const ServingOptions& options() const { return options_; }

 private:
  // Synchronous-save stall added to one iteration (Fig 14 model): per layer, the batch
  // rows are written QD1 per device; any excess over the layer's compute time stalls.
  double DirectSaveStall(int64_t batch_size, double iteration_compute) const;

  double RestoreTime(int64_t history_tokens, double* compute_busy) const;
  // Same timing model under an explicit method — the corrupt-state fallback charges
  // the round recompute's restoration cost whatever options_.method says.
  double RestoreTimeWith(RestoreMethod method, int64_t history_tokens,
                         double* compute_busy) const;

  // --- stepped-simulation internals (state between Advance calls) ---
  struct Active {
    RoundTask r;
    int64_t prefill_remaining = 0;
    int64_t decoded = 0;
    int64_t kv_reserved = 0;
  };
  struct Restoration {
    RoundTask r;
    double start = 0, end = 0;
    double compute_total = 0, charged = 0;
    int64_t kv_reserved = 0;
    bool active = false;
  };

  // Encoded bytes per history token under the configured codec (used by the state
  // registry that persists context descriptors through options_.state_backend).
  int64_t EncodedStateBytesPerToken() const;
  void SaveState(int64_t session, int64_t old_tokens, int64_t new_tokens);
  // Reads the session's state descriptor back from the backend. False when any
  // covering chunk is absent or detected corrupt: the caller must not trust the
  // stored state and falls back to recompute-from-tokens restoration.
  bool LoadState(int64_t session, int64_t tokens);
  void FinishRound(Active& a, std::vector<RoundCompletion>* done);

  Platform platform_;
  ModelConfig cfg_;
  ServingOptions options_;
  GpuTimingModel gpu_;
  Restorer restorer_;

  // Simulation state (reset by StartExternal).
  double now_ = 0;
  int64_t kv_free_ = 0;
  int64_t queued_tokens_ = 0;  // token demand of admitted-but-unfinished rounds
  int64_t queued_rounds_ = 0;
  std::deque<RoundTask> pending_;
  std::deque<Active> prefill_q_;
  std::vector<Active> decode_;
  Restoration restoring_;
  std::vector<char> state_buf_;
  int64_t chunk_capacity_tokens_ = 1;
  ReplicaLifecycle lifecycle_ = ReplicaLifecycle::kUp;
  ServingReport report_;
};

}  // namespace hcache

#endif  // HCACHE_SRC_SERVING_ENGINE_H_
