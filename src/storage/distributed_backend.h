// Distributed cold plane: chunks replicated across N simulated storage nodes —
// the recovery half of the durability story. PR 7's CRC plane *detects* damage
// (kChunkCorrupt, fsck classification); this backend supplies somewhere to recover
// FROM: every chunk lives on R nodes (consistent-hash placement, placement.h), a
// read whose primary is down/missing/corrupt transparently fails over to the next
// replica, and repair restores the replication factor after node failure, write
// degradation, or recovery. Modeled on CERN EOS's mgm/fst split: placement,
// draining, and balancing are mgm-side decisions here (operator verbs on this
// class); each fst-style node is an ordinary StorageBackend wrapped in an
// InstrumentedBackend so tests and benches can make it slow (injected latency),
// flaky (scheduled write failures), corrupting (bit-flip/truncate at rest), or
// fail-stop (SetNodeDown).
//
// Semantics, in contract order:
//
//   * A chunk's home set is the first R writable nodes on its placement walk
//     under the current table and node flags: down, draining and removed nodes are
//     skipped, and so is a full node unless it already holds the chunk's current
//     copy. The home set moves while a node is down; placement does not. A chunk is
//     at home when its home set has min(R, member nodes) nodes and each holds a
//     current-generation copy. Every chunk that is not at home is queued for repair.
//   * Writes replicate to the chunk's home set. >=1 copy landed => success;
//     < R copies => success DEGRADED (`degraded_writes`). 0 copies => false, and
//     the key is left as it was (see StorageBackend::WriteChunk).
//   * Reads consult the logical index first (absent => -1, short buffer => -1
//     with no side effects — the uniform ReadChunks contract), then walk the
//     replicas: a down node is skipped, a miss or CRC-corrupt copy falls through
//     to the next replica (`failover_reads` counts reads a non-first replica
//     served). Wrong bytes are never delivered: if every live copy is corrupt
//     the read returns kChunkCorrupt; if nothing valid is reachable it returns
//     -1 — either way the caller's recompute fallback engages. A read that sees
//     a corrupt or missing home copy queues the chunk for repair.
//   * Repair re-reads a verified copy and rewrites every home node that lacks
//     one (`re_replicated_chunks`), converging the store back to R after failures,
//     degraded writes, or node recovery. Writes, faults and damaged reads only queue
//     keys; only deletes and repair dequeue them. Repair runs on the thread that
//     asks for it (Quiesce, Drain, Balance, RepairChunk), so a single-threaded
//     script replays exactly from its seed.
//   * Drain(node): evacuate while serving — the node leaves the placement (new
//     writes skip it), every chunk it homes is re-replicated onto the survivor
//     set (reads keep failing over to it meanwhile), then its store is emptied
//     and the node removed. Balance(): converge every chunk onto exactly its
//     home set — copy the missing, trim the strays — evening fill after
//     membership or fault churn.
//
// Concurrency: the backend starts no thread. Membership (the placement table) is
// copy-on-write behind a shared pointer — readers pin a snapshot, Drain installs a
// new table; per-chunk state lives in a mutex-guarded logical index. NO lock is
// held across node IO on any path (reads, writes, repair, drain), so a slow or
// hung node never wedges operations on other chunks, and fault hooks may re-enter
// the backend.
#ifndef HCACHE_SRC_STORAGE_DISTRIBUTED_BACKEND_H_
#define HCACHE_SRC_STORAGE_DISTRIBUTED_BACKEND_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <shared_mutex>
#include <string>
#include <vector>

#include "src/storage/instrumented_backend.h"
#include "src/storage/placement.h"
#include "src/storage/storage_backend.h"

namespace hcache {

struct DistributedColdOptions {
  // Replication factor R: home copies per chunk (clamped to the live node count).
  int replication = 2;
};

// Builds one node's backing store. Default: a MemoryBackend per node. Benches and
// fsck pass FileBackend factories to put each node on its own directory tree.
using NodeFactory =
    std::function<std::unique_ptr<StorageBackend>(int node_id, int64_t chunk_bytes)>;

class DistributedColdBackend : public StorageBackend {
 public:
  DistributedColdBackend(int num_nodes, int64_t chunk_bytes,
                         const DistributedColdOptions& options = {},
                         const NodeFactory& factory = {});

  // --- StorageBackend surface ---
  bool WriteChunk(const ChunkKey& key, const void* data, int64_t bytes) override;
  // Batched failover read: requests are grouped per node (each request starts at
  // its primary) and each node serves its group as ONE batched submission; failed
  // requests retry on their next replica in subsequent rounds.
  void ReadChunks(std::span<ChunkReadRequest> requests,
                  const BatchCompletion& done = {}) const override;
  // Failover read minus verification (fsck's damage-inspection path): returns the
  // first copy any replica delivers, corrupt or not.
  void ReadChunksUnverified(std::span<ChunkReadRequest> requests,
                            const BatchCompletion& done = {}) const override;
  bool WriteChunks(std::span<ChunkWriteRequest> requests,
                   const BatchCompletion& done = {}) override;
  int64_t ChunkSize(const ChunkKey& key) const override;
  void DeleteContext(int64_t context_id) override;
  std::vector<std::pair<ChunkKey, int64_t>> ListChunks() const override;
  bool DeleteChunk(const ChunkKey& key) override;
  StorageStats Stats() const override;
  std::string Name() const override;
  // Runs the repair queue to convergence on the calling thread (or until only
  // unrepairable chunks — e.g. all surviving copies on down nodes — remain; those
  // stay queued for the next Quiesce).
  void Quiesce() override;

  // --- fault injection / operator verbs ---

  // Fail-stop: the node serves nothing (reads fail over, writes place around it)
  // until SetNodeUp. Both verbs queue every chunk the flip moves off its home set:
  // down spills home copies onto the next walk nodes, up converges them back.
  // Placement never changes (failure is temporary; drain is the permanent exit).
  // Neither verb does node IO, so fault hooks running inside an IO call may flip
  // node state. Returns false for an unknown/removed node.
  bool SetNodeDown(int node);
  bool SetNodeUp(int node);

  // Evacuate `node` while serving, then remove it from placement. Blocks the
  // caller until every chunk it held is fully replicated on the surviving nodes
  // (reads and writes proceed concurrently throughout). Returns false if the
  // node is unknown/removed/down, it is the last live node, or some chunk could
  // not be re-replicated (the node is then left draining but still serving).
  bool Drain(int node);

  // Converges every chunk onto exactly its home set: copies missing home copies,
  // deletes stray copies outside the home set of a chunk that is at home (fill
  // evens out after drains, recoveries, and degraded intervals). Returns the
  // number of chunk copies moved or trimmed.
  int64_t Balance();

  // --- inspection (tests, fsck, bench) ---

  // Placement-only report: `home` is the first R nodes of the walk, whatever their
  // flags. While one of them is down it differs from the repair's home set, so a
  // chunk correctly spilled past a down node reports missing_copies > 0 and is
  // still not queued.
  struct ReplicationStatus {
    std::vector<int> home;      // first R nodes of the placement walk
    int healthy_copies = 0;     // home copies that verify clean
    int missing_copies = 0;     // home nodes without the chunk (or down)
    int corrupt_copies = 0;     // home copies that exist but fail verification
    std::vector<int> stray;     // non-home nodes also holding a copy
    bool FullyReplicated() const { return missing_copies == 0 && corrupt_copies == 0; }
  };
  // Inspects every home replica of `key` (verified reads; down nodes count as
  // missing). Keys absent from the logical index report empty home.
  ReplicationStatus CheckReplication(const ChunkKey& key) const;
  // Whether `key` is in the repair queue. Reads only the index; no node IO.
  bool RepairQueued(const ChunkKey& key) const;

  // Synchronously restores `key` to full replication from a healthy verified
  // copy (re-writing corrupt home copies too). Returns true when the chunk is at
  // its full home replica count afterwards. The fsck --repair path.
  bool RepairChunk(const ChunkKey& key);

  struct NodeInfo {
    int id = -1;
    bool up = true;
    bool draining = false;
    bool removed = false;
    int64_t chunks = 0;  // physical copies resident on the node
    int64_t bytes = 0;
    int64_t capacity_bytes = 0;  // 0 = unlimited
    bool operator==(const NodeInfo&) const = default;
  };
  std::vector<NodeInfo> NodeTable() const;

  int num_nodes() const { return static_cast<int>(nodes_.size()); }
  int num_live_nodes() const;  // not removed (down nodes still count as members)
  bool IsNodeDown(int node) const;
  // The node's InstrumentedBackend wrapper — inject latency, write failures, or
  // at-rest corruption through it.
  InstrumentedBackend* node_instrument(int node) const;
  // The node's raw store (under the instrumentation).
  StorageBackend* node_store(int node) const;
  // Per-node capacity override (0 = unlimited); tests shape skewed fills with it. A
  // change queues every key whose home set it moves.
  void set_node_capacity(int node, int64_t bytes);
  const DistributedColdOptions& options() const { return options_; }

 private:
  struct Node {
    int id = -1;
    std::unique_ptr<StorageBackend> store;     // the node's own backend
    std::unique_ptr<InstrumentedBackend> io;   // fault-injection wrapper around it
    std::atomic<bool> down{false};
    std::atomic<bool> draining{false};
    std::atomic<bool> removed{false};
    std::atomic<int64_t> capacity_bytes{0};    // 0 = unlimited
  };

  // One logical chunk. `gen` advances on every overwrite; `copies` records which
  // node holds bytes of which generation, so a node that missed an overwrite
  // while down can never serve its stale copy — staleness is a metadata check,
  // not a read-and-compare. `committed` gates visibility: a first write claims
  // its entry (and gen) before any node IO but the key reads as absent until the
  // write lands somewhere.
  struct IndexEntry {
    int64_t size = 0;
    uint64_t gen = 0;
    bool committed = false;
    std::map<int, uint64_t> copies;  // node -> generation of the copy it holds
    // Seqlock against write/repair races: repair (and Balance's trim) bumps
    // `repair_epoch` and holds `repairs_inflight` around its node IO; a writer
    // whose claim→commit window overlaps any repair window (epoch moved or a
    // repair still in flight) REDOES its node writes before committing, so a
    // repairer's old-generation bytes can never end up under a commit that
    // claims the new generation.
    uint64_t repair_epoch = 0;
    int repairs_inflight = 0;
  };

  // Snapshot of the current placement (copy-on-write; Drain installs a new one).
  std::shared_ptr<const PlacementTable> placement() const;
  // Effective replica targets for a write of `bytes`: the first `replication`
  // nodes on the walk that are up, not draining, not removed, and have capacity
  // (or, given `held`, already hold its current copy). May return fewer than R
  // (degraded write). With `held` this is the entry's home set.
  std::vector<int> WriteTargets(const ChunkKey& key, const PlacementTable& table,
                                int64_t bytes, const IndexEntry* held = nullptr) const;
  // The replication factor currently achievable: min(R, member nodes).
  int DesiredReplication(const PlacementTable& table) const;
  // The one "at home" rule (see Semantics): the home set has DesiredReplication
  // nodes and each holds a current-generation copy. Caller holds index_mu_.
  bool AtHomeLocked(const ChunkKey& key, const IndexEntry& e,
                    const PlacementTable& table) const;
  // Queues every committed key that is not at home under the current placement.
  void QueueOffHome();
  // Flips a node's down flag, then queues what the flip moved off its home set.
  bool SetNodeState(int node, bool down);
  // Lands a write of `bytes` on `landed` at the entry's current generation, and
  // queues the key unless it is at home. Never dequeues. Caller holds index_mu_.
  void CommitLocked(const ChunkKey& key, IndexEntry& e, int64_t bytes,
                    const std::vector<int>& landed);
  bool NodeWritable(int node) const;
  bool NodeReadable(int node) const;
  bool NodeHasCapacity(int node, int64_t bytes) const;
  // True when a node holding one of `copies` has a capacity set, so deleting them
  // may move other keys' home sets back onto it.
  bool AnyCapped(const std::map<int, uint64_t>& copies) const;

  // Current-generation copy holders of a snapshot entry, best first: placement
  // walk order, then holders outside the table (a draining node still serving).
  std::vector<int> CandidateHolders(const ChunkKey& key, const PlacementTable& table,
                                    uint64_t gen,
                                    const std::map<int, uint64_t>& copies) const;

  // Shared body of the verified and unverified failover read paths.
  void ReadChunksImpl(std::span<ChunkReadRequest> requests, const BatchCompletion& done,
                      bool verify) const;

  // Restores `key` toward full home replication; returns true when resolved
  // (fully replicated, superseded, or deleted). `copies_written` (optional)
  // accumulates the number of node copies actually written.
  bool RepairChunkInternal(const ChunkKey& key, int64_t* copies_written = nullptr);
  // Repairs queued keys in passes until none is left: every queued key, or with
  // `holder` >= 0 only those holding a current-generation copy on that node (a
  // drain's evacuation set). Returns false once a pass resolves nothing and the
  // set did not shrink — only stalled chunks remain (survivors down or full).
  // Never holds index_mu_ across node IO.
  bool RepairToConvergence(int holder = -1);

  DistributedColdOptions options_;
  std::vector<std::unique_ptr<Node>> nodes_;

  mutable std::mutex placement_mu_;  // guards the shared_ptr swap only
  std::shared_ptr<const PlacementTable> placement_;

  // Write barrier: every WriteChunks call holds this shared for its full
  // claim→IO→commit span. Drain acquires it exclusive (and immediately releases)
  // after swapping the placement table, so no writer that fetched the OLD table
  // can still land bytes on the node being evacuated once the wipe begins.
  std::shared_mutex write_barrier_;

  // Logical contents + repair plane. Never held across node IO.
  mutable std::mutex index_mu_;
  std::map<ChunkKey, IndexEntry> index_;
  // Invariant: every committed key that is not at home (AtHomeLocked) is queued.
  // Anything that changes a key's copies or home set re-checks and inserts; only
  // DeleteContext, DeleteChunk and the repair pass erase, the repair pass only
  // once the key is at home under the current placement. Node capacity is part of
  // the home set too: set_node_capacity, and a delete that frees room on a node
  // with a capacity, re-check every key.
  mutable std::set<ChunkKey> repair_queue_;
  std::condition_variable repaired_cv_;      // a repair window closed (wakes writers)

  mutable std::atomic<int64_t> total_writes_{0};
  mutable std::atomic<int64_t> total_reads_{0};
  mutable std::atomic<int64_t> read_bytes_{0};
  mutable std::atomic<int64_t> failover_reads_{0};
  mutable std::atomic<int64_t> degraded_writes_{0};
  mutable std::atomic<int64_t> re_replicated_chunks_{0};
  mutable std::atomic<int64_t> crc_failures_{0};  // reads where every copy was corrupt
};

}  // namespace hcache

#endif  // HCACHE_SRC_STORAGE_DISTRIBUTED_BACKEND_H_
