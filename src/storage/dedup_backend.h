// Content-addressed deduplication layer under StorageBackend (ROADMAP item 2).
//
// Millions of users put the same system prompt or retrieved document in front of
// their contexts, so the hidden-state chunks of those prefix tokens are byte-identical
// across sessions — yet every logical (context, layer, chunk) key used to store its
// own copy. DedupBackend splits the key space in two:
//
//   logical index   (context_id, layer, chunk_index) -> PhysicalId
//   physical store  PhysicalId -> refcounted chunk bytes in the wrapped backend
//
// A write hashes its content (128-bit composite riding the SIMD CRC/hash dispatch
// tiers — see ContentHash below) and, when a physical chunk with the same hash and
// size already exists, points the logical key at it instead of storing a second copy
// (`dedup_hits` / `dedup_bytes_saved` in StorageStats). Delete and overwrite only
// drop a reference; the bytes leave the wrapped backend when the last referent does.
//
// Correctness before savings: a hash match is treated as a *hint*, not as proof.
// Every dedup hit reads the candidate back and byte-compares it against the incoming
// write; a true collision — however astronomically unlikely at 128 bits — chains to a
// fresh physical slot (`collision_chains`) instead of silently aliasing two users'
// states.
//
// This layer is the one owner of shared bytes. Contexts that begin with the same
// prompt write their own copies of its chunks (SharedPrefixManager recaptures a
// donor's prefix rather than referencing it), and the copies dedup here: no layer
// above keeps a second refcount.
//
// The layer composes with every other plane: it wraps Memory/File/Tiered/Distributed
// (dedup-over-distributed = fleet-wide single-instancing of the replicated cold
// plane) and can itself sit under TieredBackend, or above it — dedup(tiered(...))
// means the DRAM hot tier holds only *unique* chunks, so a popularity-skewed RAG
// working set fits where the duplicated one spilled (bench_ext_dedup measures the
// DRAM-hit lift). The wrapped backend's key namespace belongs exclusively to this
// layer.
//
// fsck speaks dedup: AuditIndex checks the refcount invariants — a physical chunk
// with zero referents is an orphan (repair = delete the bytes), a referent whose
// physical chunk is gone is corrupt (repair = drop the logical entry so reads miss
// and the caller falls back to recompute). RunFsck recognizes a DedupBackend and
// scans the *physical* store (each unique chunk CRC-verified once), then audits.
#ifndef HCACHE_SRC_STORAGE_DEDUP_BACKEND_H_
#define HCACHE_SRC_STORAGE_DEDUP_BACKEND_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "src/storage/storage_backend.h"

namespace hcache {

// 128-bit content hash: two independently seeded 64-bit multiply-mix lanes over the
// payload, with the SIMD-dispatched CRC32C (codec_simd.h's crc32c kernel — the same
// ~24 GB/s/core tier the integrity plane rides) folded into the high lane and the
// length into the low lane. Collision probability between any two distinct chunks is
// ~2^-128 before verification even runs.
struct ContentHash {
  uint64_t hi = 0;
  uint64_t lo = 0;

  friend auto operator<=>(const ContentHash&, const ContentHash&) = default;
};

ContentHash HashChunkContent(const void* data, int64_t bytes);

// One finding of an AuditIndex run (fsck's dedup leg).
struct DedupAuditFinding {
  enum class Kind {
    kOrphanPhysical,    // physical chunk in the wrapped store with no index entry
    kMissingPhysical,   // index entry whose physical chunk is gone from the store
    kRefcountDrift,     // entry refcount != recounted logical referents
  };
  Kind kind = Kind::kOrphanPhysical;
  ChunkKey physical_key;   // key in the WRAPPED backend's namespace
  int64_t bytes = 0;
  int64_t refs_indexed = 0;   // refcount the index carried
  int64_t refs_recounted = 0; // referents actually found in the logical map
  bool repaired = false;
};

struct DedupAuditReport {
  int64_t logical_chunks = 0;
  int64_t unique_chunks = 0;
  int64_t orphan_physical = 0;
  int64_t missing_physical = 0;
  int64_t refcount_drift = 0;
  std::vector<DedupAuditFinding> findings;

  bool Healthy() const {
    return orphan_physical == 0 && missing_physical == 0 && refcount_drift == 0;
  }
};

class DedupBackend : public StorageBackend {
 public:
  // `base` must outlive this backend and is used exclusively by it: every key this
  // layer writes into `base` is a physical-id key, and AuditIndex treats any other
  // resident chunk as an orphan.
  explicit DedupBackend(StorageBackend* base);
  ~DedupBackend() override;

  bool WriteChunk(const ChunkKey& key, const void* data, int64_t bytes) override;
  // Batched read: logical keys translate to physical keys under one index lock,
  // then the whole batch goes to the wrapped backend as ONE submission (duplicate
  // logical keys of one shared chunk become duplicate physical requests, which the
  // ReadChunks contract explicitly allows).
  void ReadChunks(std::span<ChunkReadRequest> requests,
                  const BatchCompletion& done = {}) const override;
  void ReadChunksUnverified(std::span<ChunkReadRequest> requests,
                            const BatchCompletion& done = {}) const override;
  int64_t ChunkSize(const ChunkKey& key) const override;
  void DeleteContext(int64_t context_id) override;
  bool DeleteChunk(const ChunkKey& key) override;
  // The LOGICAL view: every (context, layer, chunk) key with its stored size, shared
  // or not — consumers above the seam must not be able to tell dedup happened.
  std::vector<std::pair<ChunkKey, int64_t>> ListChunks() const override;
  StorageStats Stats() const override;
  std::string Name() const override;
  void Quiesce() override;

  // --- dedup-specific surface (fsck, benches, tests) ---

  StorageBackend* base() const { return base_; }

  // Physical footprint: encoded bytes the wrapped backend actually holds for the
  // current logical set (== logical bytes minus sharing).
  int64_t PhysicalBytes() const;

  // Physical (wrapped-namespace) keys with sizes — what a physical scan walks.
  std::vector<std::pair<ChunkKey, int64_t>> ListPhysicalChunks() const;

  // Verifies the refcount invariant (fsck's dedup leg): every physical chunk has
  // >= 1 referent and exists in the wrapped store, and every index refcount equals
  // the recounted referents. With `repair`: orphans are deleted from the wrapped
  // store, entries with missing physicals are dropped (their logical keys then read
  // as misses -> recompute fallback), drifted refcounts are reset to the recount.
  DedupAuditReport AuditIndex(bool repair = false);

  // True hash collisions caught by the byte compare and diverted to chain slots.
  int64_t collision_chains() const;

  // Test hook: overrides the content hash so two distinct payloads can be forced
  // onto one hash and the byte-compare collision chain exercised. nullptr restores
  // the production hash. Not thread-safe against in-flight writes.
  void SetContentHashForTest(std::function<ContentHash(const void*, int64_t)> fn) {
    content_hash_for_test_ = std::move(fn);
  }

 private:
  struct PhysId {
    ContentHash hash;
    int64_t chain = 0;  // collision-chain slot; 0 for every non-colliding chunk

    friend auto operator<=>(const PhysId&, const PhysId&) = default;
  };

  enum class PhysState { kWriting, kReady, kDeleting };

  struct PhysEntry {
    int64_t bytes = 0;
    int64_t refs = 0;  // logical referents
    int64_t pins = 0;  // in-flight reads; deletion defers until the last unpin
    PhysState state = PhysState::kWriting;
  };

  struct LogicalEntry {
    PhysId phys;
    int64_t bytes = 0;
  };

  static ChunkKey PhysicalKey(const PhysId& id);

  // Drops one reference; when the last referent and pin are gone, deletes the
  // physical chunk from the wrapped backend (releasing mu_ around the IO).
  void DecrefLocked(std::unique_lock<std::mutex>& lock, const PhysId& id);
  void MaybeDeletePhysicalLocked(std::unique_lock<std::mutex>& lock, const PhysId& id);
  void UnpinLocked(std::unique_lock<std::mutex>& lock, const PhysId& id);

  // Shared body of the verified / unverified batched reads.
  void ReadChunksImpl(std::span<ChunkReadRequest> requests, const BatchCompletion& done,
                      bool verify) const;

  StorageBackend* base_;

  mutable std::mutex mu_;
  mutable std::condition_variable cv_;  // signals kWriting/kDeleting transitions
  std::map<ChunkKey, LogicalEntry> logical_;
  std::map<PhysId, PhysEntry> phys_;
  int64_t logical_bytes_ = 0;
  int64_t physical_bytes_ = 0;
  int64_t total_writes_ = 0;
  int64_t dedup_hits_ = 0;
  int64_t dedup_bytes_saved_ = 0;
  int64_t collision_chains_ = 0;  // true hash collisions caught by the byte compare
  std::function<ContentHash(const void*, int64_t)> content_hash_for_test_;
};

}  // namespace hcache

#endif  // HCACHE_SRC_STORAGE_DEDUP_BACKEND_H_
