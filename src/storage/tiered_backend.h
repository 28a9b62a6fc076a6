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
//   * One mutex guards the whole tier: the chunk map, the logical index, the one
//     context LRU over the whole budget, and the counters (so Stats() is one
//     consistent snapshot). It is held only for map bookkeeping and memcpy.
//   * Eviction removes the victim from the hot tier under the lock (deterministic
//     LRU decisions) and parks its dirty chunks in the pending map. The caller whose
//     write or promotion caused the eviction then flushes them to the cold tier
//     itself, with the lock released, before it returns. Until a flush retires, its
//     chunks stay readable from DRAM (`drain_rescued_chunks`) and a re-read re-admits
//     them when they fit.
//   * Cold-tier IO of one context is serialized: a flush or a cold delete first claims
//     its context in the `busy` set and waits out any claim already held. Two
//     flushes of one chunk therefore land in eviction order (an older payload never
//     overwrites a newer one), and a delete never races a flush of its context (a
//     deleted context is never written back, and a later write's flush is never
//     deleted).
//   * No lock is ever held across cold-tier IO: promotion reads, flushes, and cold
//     deletes all run with the lock released (asserted by the re-entrancy test in
//     tests/storage/tiered_async_test.cc). Only a context's claim spans its IO, so
//     only that context's next flush or delete waits on it.
//
// Failure semantics: a cold-tier write error during a flush rolls the affected chunks
// back into the hot tier dirty (MRU) and un-counts the eviction; the next eviction of
// that context retries them. The budget degrades to best-effort under cold-tier
// errors, never a reason to drop dirty data.
#ifndef HCACHE_SRC_STORAGE_TIERED_BACKEND_H_
#define HCACHE_SRC_STORAGE_TIERED_BACKEND_H_

#include <condition_variable>
#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/storage/storage_backend.h"

namespace hcache {

class TieredBackend : public StorageBackend {
 public:
  // `cold` must outlive the backend; it defines chunk_bytes. `dram_capacity_bytes`
  // is the hot-tier budget (0 = write-through: every chunk evicts immediately).
  TieredBackend(StorageBackend* cold, int64_t dram_capacity_bytes);

  bool WriteChunk(const ChunkKey& key, const void* data, int64_t bytes) override;
  // Batched read in three phases: (1) under the lock, serve hot hits and pending-flush
  // rescues and snapshot the misses' write generations; (2) with the lock released,
  // ONE batched cold-tier round trip for all misses — a restore that hits cold pays
  // one submission instead of a per-chunk lock/IO/lock cycle; (3) under the lock,
  // gen-checked clean promotion, eviction tickets flushed after release. No lock is
  // ever held across cold-tier IO.
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

  int64_t dram_capacity_bytes() const { return dram_capacity_bytes_; }
  int64_t dram_bytes() const;  // hot-tier residency (excludes pending-flush bytes)

  // True when the chunk currently resides in the hot tier (test/inspection hook).
  bool IsDramResident(const ChunkKey& key) const;
  // True when the chunk was evicted and its flush has not retired (test hook).
  bool IsFlushPending(const ChunkKey& key) const;

  StorageBackend* cold() const { return cold_; }

 private:
  struct HotChunk {
    std::vector<char> data;
    bool dirty = false;  // newer than (or absent from) the cold tier
  };
  struct PendingChunk {
    // Shared so a concurrent rescue read can serve from the payload while a
    // flush writes it out.
    std::shared_ptr<const std::vector<char>> data;
    uint64_t gen = 0;  // eviction generation; a stale ticket entry is skipped
  };
  struct IndexEntry {
    int64_t size = 0;
    // Monotonic write generation: a promotion admits its cold copy only when the
    // generation it snapshotted before the unlocked cold read is still current —
    // otherwise a concurrent write superseded the bytes it holds.
    uint64_t gen = 0;
  };
  // One evicted context's dirty chunks, in key order. Write-back is per-ticket: a
  // cold-tier failure rolls the ticket's failed chunks back into the hot tier.
  struct FlushTicket {
    int64_t context_id = 0;
    // True for real evictions (counted in evicted_contexts, un-counted on failure);
    // false for oversized write-through chunks that were never hot-resident.
    bool counted_eviction = false;
    std::vector<std::pair<ChunkKey, uint64_t>> chunks;  // (key, eviction gen)
  };

  // Moves `context_id` to the MRU end of the LRU, creating the entry if new. mu_ held.
  void TouchLocked(int64_t context_id) const;
  // Drops `context_id` from the LRU if it has an entry. mu_ held.
  void ForgetLocked(int64_t context_id) const;
  // Inserts a chunk into the hot tier, adjusting byte accounting. mu_ held.
  void InsertHotLocked(const ChunkKey& key, const char* data, int64_t bytes,
                       bool dirty) const;
  // Evicts LRU contexts until hot_bytes_ <= dram_capacity_bytes_, appending one
  // FlushTicket per victim with dirty chunks to `tickets` (clean chunks are dropped
  // outright — the cold tier already holds them). mu_ held.
  void EvictToBudgetLocked(std::vector<FlushTicket>* tickets) const;
  // Flushes each ticket's chunks to the cold tier, taking mu_ only around map
  // bookkeeping — never across cold-tier IO. Chunks that fail are rolled back into
  // the hot tier. mu_ not held on entry.
  void FlushTickets(const std::vector<FlushTicket>& tickets) const;
  // Waits until no cold IO of `context_id` is in flight, then claims it; Release
  // ends the claim. Claim: `lock` holds mu_. Release: mu_ not held.
  void ClaimContext(std::unique_lock<std::mutex>& lock, int64_t context_id) const;
  void ReleaseContext(int64_t context_id) const;

  StorageBackend* cold_;
  const int64_t dram_capacity_bytes_;

  // Promotion, rescue, and LRU bookkeeping happen on the (const) read path, so the
  // tier is mutable state, all of it guarded by mu_.
  mutable std::mutex mu_;
  mutable std::condition_variable idle_;  // a context left `busy_`
  mutable std::map<ChunkKey, HotChunk> hot_;          // context-major key order
  mutable std::map<ChunkKey, PendingChunk> pending_;  // evicted, flush not yet retired
  mutable std::map<int64_t, std::list<int64_t>::iterator> lru_pos_;  // ctx -> in lru_
  mutable std::list<int64_t> lru_;                    // front = coldest context
  std::map<ChunkKey, IndexEntry> index_;              // logical contents: size + gen
  mutable std::set<int64_t> busy_;                    // contexts with cold IO in flight
  mutable int64_t hot_bytes_ = 0;
  mutable uint64_t evict_gen_ = 0;
  uint64_t write_gen_ = 0;  // stamps IndexEntry::gen
  // Every counter Stats() reports that this tier owns, bytes_stored included (the sum
  // of index sizes); chunks_stored and the cold-derived fields are filled in by Stats().
  mutable StorageStats stats_;
};

}  // namespace hcache

#endif  // HCACHE_SRC_STORAGE_TIERED_BACKEND_H_
