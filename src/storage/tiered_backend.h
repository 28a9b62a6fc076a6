// Tiered storage backend: a DRAM hot tier with a capacity budget layered over a cold
// backend — the DRAM→SSD hierarchy the paper's storage manager assumes (§4.2). Writes
// land in DRAM and flow to the cold tier lazily (write-back): when the budget is
// exceeded, whole contexts are evicted in LRU order and their dirty chunks flushed
// down. Reads served from DRAM are `dram_hits`; misses fall through to the cold tier
// (`cold_hits`) and promote the chunk back into DRAM when it can actually fit.
//
// Eviction is context-granular, matching the access pattern: restoration streams every
// chunk of one context, so partial-context residency would still pay a cold read on
// the critical path. LRU order advances whenever any chunk of a context is touched.
//
// Concurrency model:
//
//   * The chunk map, the logical index, and the per-context LRU metadata are striped
//     across K lock shards keyed by context_id, so operations on distinct contexts
//     never contend on a lock.
//   * Eviction removes the victim from the hot tier synchronously (deterministic LRU
//     decisions) but hands its dirty chunks to a drain queue that a background
//     drainer flushes to the cold tier — the write-back IO leaves the caller's
//     critical path. Chunks awaiting drain remain readable from DRAM
//     (`drain_rescued_chunks`) and a re-read re-admits them when they fit.
//   * No lock is ever held across cold-tier IO: promotion reads, drain write-backs,
//     and write-through flushes all run with every shard lock released (asserted by
//     the re-entrancy test in tests/storage/tiered_async_test.cc).
//   * Backpressure: writers stall (`writer_stalls`) only when un-drained evicted
//     bytes exceed the high-water mark — the budget is otherwise enforced without
//     ever blocking a reader or writer on another context's IO.
//
// Failure semantics: a cold-tier write error during drain rolls the affected chunks
// back into the hot tier dirty (MRU) and un-counts the eviction — the budget degrades
// to best-effort under cold-tier errors, never a reason to drop dirty data.
#ifndef HCACHE_SRC_STORAGE_TIERED_BACKEND_H_
#define HCACHE_SRC_STORAGE_TIERED_BACKEND_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/storage/storage_backend.h"

namespace hcache {

struct TieredOptions {
  // Lock stripes over context_id. 0 = auto: one stripe per 8 chunks of DRAM budget,
  // clamped to [1, 16] — tiny tiers keep one stripe (and thus one global LRU), big
  // tiers stripe so distinct contexts never contend. The budget divides evenly
  // across stripes; a chunk larger than its stripe's share is never hot-admitted.
  int num_shards = 0;

  enum class Writeback {
    kAsync,  // background drainer flushes evicted dirty chunks (default)
    kSync,   // flush on the evicting caller, shard lock dropped around IO —
             // deterministic stats for single-threaded measurement runs.
             // NOT for concurrent same-key traffic: without the drainer's
             // single-writer/inflight tracking, an overwrite or delete racing
             // a caller-thread flush of the same chunk can strand stale bytes
             // in the cold tier. Concurrent workloads use kAsync.
  };
  Writeback writeback = Writeback::kAsync;
};

// Transient cold-tier write failures (a loaded device, a momentary IO error) are
// retried 3 times before the rollback path re-admits the chunks to DRAM. This is the
// drainer's sleep before retry round N: equal-jitter exponential backoff. The ceiling
// doubles from 500 µs each round, clamps at 8 ms (which bounds shutdown), and the
// sleep is drawn from [ceiling/2, ceiling] by a splitmix64 mix of (seed, round) —
// deterministic (pure in its inputs, no global RNG), so tests can pin exact values,
// yet drainers retrying against the same overloaded cold tier fan out instead of
// thundering in lockstep.
int64_t WritebackBackoffUs(int round, uint64_t seed);

class TieredBackend : public StorageBackend {
 public:
  // `cold` must outlive the backend; it defines chunk_bytes. `dram_capacity_bytes`
  // is the hot-tier budget (0 = write-through: every chunk evicts immediately).
  TieredBackend(StorageBackend* cold, int64_t dram_capacity_bytes,
                const TieredOptions& options = TieredOptions{});
  // Drains any still-queued write-backs before stopping the drainer: destruction
  // without an explicit Quiesce() never drops dirty data on the floor.
  ~TieredBackend() override;

  bool WriteChunk(const ChunkKey& key, const void* data, int64_t bytes) override;
  // Batched read in three phases: (1) per shard, under that shard's lock, serve hot
  // hits and drain-queue rescues and snapshot the misses' write generations; (2) with
  // every lock released, ONE batched cold-tier round trip for all misses — a restore
  // that hits cold pays one submission instead of a per-chunk lock/IO/lock cycle;
  // (3) per shard, gen-checked clean promotion under the lock, eviction tickets
  // dispatched after release. No lock is ever held across cold-tier IO.
  void ReadChunks(std::span<ChunkReadRequest> requests,
                  const BatchCompletion& done = {}) const override;
  // A verified ReadChunks first (DRAM bytes are trusted; a cold hit is verified by
  // the cold backend); only the requests the cold tier rejected as corrupt go to its
  // unverified batched read, so fsck can inspect the damaged bytes.
  void ReadChunksUnverified(std::span<ChunkReadRequest> requests,
                            const BatchCompletion& done = {}) const override;
  int64_t ChunkSize(const ChunkKey& key) const override;
  void DeleteContext(int64_t context_id) override;
  std::vector<std::pair<ChunkKey, int64_t>> ListChunks() const override;
  bool DeleteChunk(const ChunkKey& key) override;
  StorageStats Stats() const override;
  std::string Name() const override { return "tiered(" + cold_->Name() + ")"; }

  // Blocks until the drain queue is empty and no write-back is in flight: every
  // accepted write is durable in its final tier and Stats() is stable.
  void Quiesce() override;

  int64_t dram_capacity_bytes() const { return dram_capacity_bytes_; }
  int64_t dram_bytes() const;  // hot-tier residency (excludes queued-for-drain bytes)
  int num_shards() const { return static_cast<int>(shards_.size()); }

  // True when the chunk currently resides in the hot tier (test/inspection hook).
  bool IsDramResident(const ChunkKey& key) const;
  // True when the chunk sits in the drain queue awaiting write-back (test hook).
  bool IsDrainPending(const ChunkKey& key) const;

  StorageBackend* cold() const { return cold_; }

 private:
  struct HotChunk {
    std::vector<char> data;
    bool dirty = false;  // newer than (or absent from) the cold tier
  };
  struct PendingChunk {
    // Shared so a concurrent rescue read can serve from the payload while the
    // drainer writes it out.
    std::shared_ptr<const std::vector<char>> data;
    uint64_t gen = 0;  // eviction generation; a stale ticket entry is skipped
  };
  struct ContextLru {
    std::list<int64_t>::iterator lru_pos;
  };
  struct IndexEntry {
    int64_t size = 0;
    // Monotonic write generation (global counter): a promotion admits its cold copy
    // only when the generation it snapshotted before the unlocked cold read is still
    // current — otherwise a concurrent write superseded the bytes it holds.
    uint64_t gen = 0;
  };
  struct Shard {
    mutable std::mutex mu;
    std::map<ChunkKey, HotChunk> hot;          // context-major key order
    std::map<ChunkKey, PendingChunk> pending;  // evicted, awaiting drain
    std::map<int64_t, ContextLru> contexts;    // ctx -> LRU handle
    std::list<int64_t> lru;                    // front = coldest context
    std::map<ChunkKey, IndexEntry> index;      // logical contents: key -> size+gen
    int64_t capacity = 0;                      // this stripe's budget share
    int64_t hot_bytes = 0;
    int64_t bytes_stored = 0;  // sum of index sizes
  };
  // One evicted context's dirty chunks, in key order. Write-back is per-ticket: a
  // cold-tier failure rolls the ticket's remaining chunks back into the hot tier.
  struct DrainTicket {
    int64_t context_id = 0;
    size_t shard = 0;
    // True for real evictions (counted in evicted_contexts, un-counted on failure);
    // false for oversized write-through chunks that were never hot-resident.
    bool counted_eviction = false;
    std::vector<std::pair<ChunkKey, uint64_t>> chunks;  // (key, eviction gen)
  };

  size_t ShardOf(int64_t context_id) const {
    return static_cast<size_t>(static_cast<uint64_t>(context_id) % shards_.size());
  }

  // Moves `context_id` to the MRU end of its shard's LRU, creating the entry if new.
  // shard.mu held.
  void TouchLocked(Shard& shard, int64_t context_id) const;
  // Inserts a chunk into the hot tier, adjusting byte accounting. shard.mu held.
  void InsertHotLocked(Shard& shard, const ChunkKey& key, const char* data,
                       int64_t bytes, bool dirty) const;
  // Evicts LRU contexts of this shard until hot_bytes <= capacity, appending one
  // DrainTicket per victim with dirty chunks to `tickets` (clean chunks are dropped
  // outright — the cold tier already holds them). shard.mu held.
  void EvictToBudgetLocked(Shard& shard, std::vector<DrainTicket>* tickets) const;
  // Routes freshly-cut tickets per the writeback mode: enqueue to the drainer
  // (kAsync) or flush inline with the lock dropped (kSync). No shard lock held.
  void DispatchTickets(std::vector<DrainTicket> tickets) const;
  // Flushes one ticket's chunks to the cold tier, taking shard.mu only around map
  // bookkeeping — never across cold_->WriteChunk. Returns false when any chunk
  // failed (those chunks are rolled back into the hot tier).
  bool ProcessTicket(const DrainTicket& ticket) const;
  // Blocks the caller while queued-for-drain bytes sit above the high-water mark.
  void MaybeStallWriter() const;
  // Wakes waiters on the drain plane (stalled writers, Quiesce) after pending bytes
  // were retired outside the drainer — a cancel on overwrite/delete or a rescue.
  void SignalDrainProgress() const;
  void DrainLoop();

  StorageBackend* cold_;
  int64_t dram_capacity_bytes_;
  TieredOptions options_;
  // Async backpressure: writers stall once queued-for-drain bytes exceed the DRAM
  // budget plus 4 chunks (the floor keeps 0-budget write-through tiers from stalling
  // on every write).
  int64_t high_water_bytes_ = 0;

  // Promotion, rescue, and LRU bookkeeping happen on the (const) read path, so the
  // tier is mutable state guarded per shard.
  mutable std::vector<std::unique_ptr<Shard>> shards_;

  // Drain plane (kAsync): guarded by drain_mu_. The drainer holds drain_mu_ only
  // around queue pops and state flips, never across cold-tier IO.
  mutable std::mutex drain_mu_;
  mutable std::condition_variable drain_cv_;    // wakes the drainer
  mutable std::condition_variable drained_cv_;  // wakes stalled writers / Quiesce
  mutable std::deque<DrainTicket> drain_queue_;
  mutable int64_t inflight_context_ = -1;  // context currently being written back
  bool shutting_down_ = false;
  std::thread drainer_;

  mutable std::atomic<uint64_t> evict_gen_{0};
  std::atomic<uint64_t> write_gen_{0};             // stamps IndexEntry::gen
  mutable std::atomic<int64_t> pending_bytes_{0};  // global queued-for-drain bytes

  // Counters (atomics: updated from caller threads and the drainer).
  mutable std::atomic<int64_t> total_writes_{0};
  mutable std::atomic<int64_t> total_reads_{0};
  mutable std::atomic<int64_t> dram_hits_{0};
  mutable std::atomic<int64_t> cold_hits_{0};
  mutable std::atomic<int64_t> dram_hit_bytes_{0};
  mutable std::atomic<int64_t> cold_hit_bytes_{0};
  mutable std::atomic<int64_t> evicted_contexts_{0};
  mutable std::atomic<int64_t> writeback_chunks_{0};
  mutable std::atomic<int64_t> writeback_bytes_{0};
  mutable std::atomic<int64_t> drain_rescued_chunks_{0};
  mutable std::atomic<int64_t> writer_stalls_{0};
  mutable std::atomic<int64_t> writeback_failures_{0};
  mutable std::atomic<int64_t> promotions_skipped_{0};
  mutable std::atomic<int64_t> writeback_retries_{0};
  mutable std::atomic<int64_t> crc_failures_{0};  // cold reads rejected as corrupt
};

}  // namespace hcache

#endif  // HCACHE_SRC_STORAGE_TIERED_BACKEND_H_
