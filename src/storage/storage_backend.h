// Abstract storage backend — the seam under the paper's storage manager (§4.2).
//
// Everything above this interface (the two-stage saver, the restoration read path,
// the functional engine, the serving engine's state registry) speaks in fixed-size
// chunks keyed by (context, layer, chunk_index). Everything below it decides where
// the bytes live. Six backends implement it, and they compose:
//
//   MemoryBackend          — DRAM-resident chunks (the paper's host-memory tier,
//                            §6.2.1; also the fast path for tests).
//   FileBackend            — one append-only log segment per context and device,
//                            chunks striped round-robin across N device
//                            directories (the paper's NVMe array, §4.2.1).
//   TieredBackend          — DRAM over a cold backend with a capacity budget,
//                            context-granular LRU eviction and write-back (the
//                            DRAM→SSD hierarchy the storage manager assumes).
//   DistributedColdBackend — chunks replicated across N storage nodes, with
//                            failover reads and re-replication on the caller.
//   DedupBackend           — content-addressed single-instancing over any backend.
//   InstrumentedBackend    — a forwarding wrapper that injects latency, failures
//                            and corruption for tests and benches.
//
// One read path. The storage manager restores state as batched, layer-at-a-time
// chunk reads, so `ReadChunks` is the only read a backend implements (plus
// `ReadChunksUnverified` if it verifies). The single-chunk entry points are base
// forwards that submit a one-request batch, so a single read and a batch of one
// cannot disagree.
//
// Restoration speed is bounded by how fast a backend streams chunks back, so each
// backend exposes uniform stats — including per-tier hit counts — that serving
// reports surface.
#ifndef HCACHE_SRC_STORAGE_STORAGE_BACKEND_H_
#define HCACHE_SRC_STORAGE_STORAGE_BACKEND_H_

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <utility>
#include <vector>

namespace hcache {

struct ChunkKey {
  int64_t context_id = 0;
  int64_t layer = 0;
  int64_t chunk_index = 0;

  friend auto operator<=>(const ChunkKey&, const ChunkKey&) = default;
};

// Read-path status for a chunk whose stored bytes FAILED integrity verification
// (ChunkHeader payload-CRC mismatch, or a header that contradicts itself).
// Distinct from -1 (absent / short buffer): a corrupt chunk EXISTS — callers must
// not retry the read or treat the key as free, they must fall back to recompute
// (and fsck can quarantine it). Returned in a ReadChunks request's `result`.
inline constexpr int64_t kChunkCorrupt = -2;

// One read of a batched ReadChunks submission. The caller owns `buf` (capacity
// `buf_bytes`) and keeps it alive until the batch's completion has run; `result` is
// written by the backend: the chunk's byte count on success, -1 when the chunk is
// absent or the buffer too small, kChunkCorrupt when it fails verification.
struct ChunkReadRequest {
  ChunkKey key;
  void* buf = nullptr;
  int64_t buf_bytes = 0;
  int64_t result = -1;
};

// One write of a batched WriteChunks submission (the tiered backend's eviction
// write-back path). `ok` is written by the backend, mirroring WriteChunk's return value.
struct ChunkWriteRequest {
  ChunkKey key;
  const void* data = nullptr;
  int64_t bytes = 0;
  bool ok = false;
};

// Invoked exactly once when every request of a batch has its result/ok field set.
using BatchCompletion = std::function<void()>;

// Uniform counters every backend maintains. Tier fields stay zero for single-tier
// backends; for TieredBackend a read is either a `dram_hits` (hot tier) or a
// `cold_hits` (served by the backing store).
//
// Hit counters come in chunks AND bytes: chunks are uniform only before the precision
// codec — an FP16 chunk occupies half the DRAM of an FP32 one — so capacity budgeting
// and tier-traffic accounting must read the byte-granular fields (`bytes_stored` and
// `*_hit_bytes` are *encoded* sizes, the real DRAM/SSD footprint).
struct StorageStats {
  int64_t chunks_stored = 0;
  int64_t bytes_stored = 0;  // encoded bytes currently resident
  int64_t total_writes = 0;
  int64_t total_reads = 0;

  int64_t dram_hits = 0;
  int64_t cold_hits = 0;
  int64_t dram_hit_bytes = 0;     // encoded bytes served from the hot tier
  int64_t cold_hit_bytes = 0;     // encoded bytes served from the cold tier
  int64_t evicted_contexts = 0;   // contexts pushed out of the hot tier
  int64_t writeback_chunks = 0;   // dirty chunks flushed to the cold tier
  int64_t writeback_bytes = 0;

  // Write-back plane (TieredBackend only; zero elsewhere).
  int64_t drain_rescued_chunks = 0;  // reads of evicted chunks whose flush had not
                                     // retired, served from DRAM (DRAM hits)
  int64_t writeback_failures = 0;    // evictions rolled back on cold-tier write error
  int64_t promotions_skipped = 0;    // cold reads not admitted (chunk can't fit)

  // Integrity plane (ChunkHeader CRC32C verification on the read paths).
  int64_t crc_failures = 0;       // reads rejected on checksum mismatch (kChunkCorrupt)
  int64_t crc_checked_bytes = 0;  // payload bytes CRC-verified on successful reads

  // Distributed cold plane (DistributedColdBackend only; zero elsewhere).
  int64_t failover_reads = 0;           // reads served by a non-primary replica
  int64_t nodes_down = 0;               // storage nodes currently marked down
  int64_t under_replicated_chunks = 0;  // keys queued for repair (Quiesce runs it)
  int64_t degraded_writes = 0;          // writes that reached >=1 but < R nodes
  int64_t re_replicated_chunks = 0;     // replica copies restored by repair

  // Content-addressed dedup plane (DedupBackend only; zero elsewhere — TieredBackend
  // surfaces its cold tier's figures when dedup sits below it). `chunks_stored` /
  // `bytes_stored` stay LOGICAL for a dedup backend (consumers above the seam cannot
  // tell dedup happened); these three expose the physical reality.
  int64_t dedup_hits = 0;         // writes resolved by pointing at an existing chunk
  int64_t dedup_bytes_saved = 0;  // cumulative bytes those writes did NOT store
  int64_t unique_chunks = 0;      // physical chunks backing the logical set

  // Fraction of reads served from DRAM (1.0 for MemoryBackend, 0.0 for FileBackend).
  double DramHitRatio() const {
    const int64_t total = dram_hits + cold_hits;
    return total > 0 ? static_cast<double>(dram_hits) / static_cast<double>(total) : 0.0;
  }

  // Fraction of read *bytes* served from DRAM — the ratio that matters once chunks
  // are codec-mixed and no longer uniform in size.
  double DramHitByteRatio() const {
    const int64_t total = dram_hit_bytes + cold_hit_bytes;
    return total > 0 ? static_cast<double>(dram_hit_bytes) / static_cast<double>(total)
                     : 0.0;
  }

  int64_t ReadBytes() const { return dram_hit_bytes + cold_hit_bytes; }

  bool operator==(const StorageStats&) const = default;
};

class StorageBackend {
 public:
  explicit StorageBackend(int64_t chunk_bytes);
  virtual ~StorageBackend() = default;

  StorageBackend(const StorageBackend&) = delete;
  StorageBackend& operator=(const StorageBackend&) = delete;

  // Durably stores a chunk (<= chunk_bytes). Overwrites any existing chunk at `key`.
  // Returns false on IO failure. A failed write leaves the key as it was: a first
  // write leaves it absent, and a failed overwrite leaves the previous bytes readable
  // wherever they still were. Concurrent writers on distinct chunks are safe.
  virtual bool WriteChunk(const ChunkKey& key, const void* data, int64_t bytes) = 0;

  // Batched read: one submission for a whole layer's (or batch's) chunks. This is
  // the one read a backend implements; every other read entry point forwards here.
  //
  // Contract (uniform across every backend, pinned by
  // tests/storage/read_chunks_test.cc):
  //
  //   * Results: each request's `result` is the chunk's byte count on success (`buf`
  //     then holds the chunk bytes), -1 when the chunk is absent or `buf_bytes` is
  //     too small, or kChunkCorrupt when the stored bytes exist but fail integrity
  //     verification (CRC mismatch: counted in Stats().crc_failures, no data
  //     delivered). Requests may be serviced in any order and concurrently;
  //     duplicate keys in one batch are allowed (each is served independently).
  //   * Per-request failure: an absent chunk or short buffer fails ONLY its own
  //     request (result = -1, nothing written to `buf`, no read or hit bytes
  //     counted, no side effects — a tiered backend does no cold-tier IO, promotion
  //     or LRU update for it). It never poisons the rest of the batch. Callers tell
  //     "absent" from "too small" with ChunkSize.
  //   * Completion thread: every `result` is written before `done` runs; `done` is
  //     invoked exactly once, on the calling thread, and ReadChunks returns only
  //     after it — the call is a submission barrier. (Asynchrony is layered above:
  //     the pipelined restorer overlaps whole-batch submissions with compute.)
  //   * Stats: counters advance exactly as the same requests submitted one at a
  //     time would (hit tiering included), so dram_hit_bytes + cold_hit_bytes
  //     equals the bytes actually delivered.
  //
  // Backends batch for throughput (FileBackend: pread fan-out grouped per device;
  // MemoryBackend: one lock acquisition; TieredBackend: DRAM hits inline + ONE
  // batched cold round trip; DistributedColdBackend: one submission per node).
  virtual void ReadChunks(std::span<ChunkReadRequest> requests,
                          const BatchCompletion& done = {}) const = 0;

  // ReadChunks minus verification: returns whatever bytes are stored, corrupt or
  // not, so fsck can inspect damage the verified path refuses to deliver, and so a
  // bench can measure exactly what verification costs. Production restores use
  // ReadChunks. Default: ReadChunks, which is correct for backends that never verify.
  virtual void ReadChunksUnverified(std::span<ChunkReadRequest> requests,
                                    const BatchCompletion& done = {}) const {
    ReadChunks(requests, done);
  }

  // Single-chunk conveniences: a one-request ReadChunks / ReadChunksUnverified,
  // returning that request's `result`. Backends do not override these; they stay
  // virtual only because bench/serve's TimedBackend decorator intercepts every
  // entry point to count the calls crossing one seam.
  virtual int64_t ReadChunk(const ChunkKey& key, void* buf, int64_t buf_bytes) const;
  virtual int64_t ReadChunkUnverified(const ChunkKey& key, void* buf,
                                      int64_t buf_bytes) const;

  // Batched write: the tiered backend's eviction flushes land a whole ticket in one
  // submission. Each request's `ok` mirrors WriteChunk's return value; failures are
  // per-request. Returns true iff every request succeeded. Same completion-before-
  // return barrier semantics as ReadChunks.
  virtual bool WriteChunks(std::span<ChunkWriteRequest> requests,
                           const BatchCompletion& done = {});

  virtual int64_t ChunkSize(const ChunkKey& key) const = 0;  // -1 when absent
  // Virtual for the same decorator reason as ReadChunk; backends do not override it.
  virtual bool HasChunk(const ChunkKey& key) const { return ChunkSize(key) >= 0; }

  // Removes every chunk belonging to a context (session ended / state dropped).
  virtual void DeleteContext(int64_t context_id) = 0;

  // --- inspection / repair surface (hcache-fsck and recovery tooling) ---

  // Every resident (key, stored bytes) pair, in unspecified order — a scan
  // snapshot, not a consistency point. Default: empty (backend not enumerable).
  virtual std::vector<std::pair<ChunkKey, int64_t>> ListChunks() const { return {}; }

  // Removes one chunk (fsck quarantine of a corrupt chunk so the context reads as
  // incomplete and falls back to recompute). Returns true if the key was resident.
  // Default: unsupported.
  virtual bool DeleteChunk(const ChunkKey& key) { (void)key; return false; }

  virtual StorageStats Stats() const = 0;
  virtual std::string Name() const = 0;

  // Runs deferred work on the calling thread (DistributedColdBackend's queued
  // re-replication). No backend defers work to a thread of its own, so on return
  // every accepted write is durable in its final tier and, with no concurrent
  // callers, Stats() is stable. Backends with nothing deferred keep the no-op.
  virtual void Quiesce() {}

  int64_t chunk_bytes() const { return chunk_bytes_; }

  // --- stat accessors shared by tests and benches ---
  int64_t chunks_stored() const { return Stats().chunks_stored; }
  int64_t bytes_stored() const { return Stats().bytes_stored; }
  int64_t total_writes() const { return Stats().total_writes; }
  int64_t total_reads() const { return Stats().total_reads; }

 private:
  int64_t chunk_bytes_;
};

}  // namespace hcache

#endif  // HCACHE_SRC_STORAGE_STORAGE_BACKEND_H_
