// Offline integrity checker for chunk stores (the `hcache-fsck` tool's engine).
//
// Walks every chunk a backend can enumerate (ListChunks), reads it back UNVERIFIED,
// and classifies it:
//
//   kClean      — valid header, payload CRC32C matches (bit-exact as written).
//   kUnverified — opaque bytes with no chunk magic, like the serving plane's
//                 descriptor chunks. Nothing to verify against; counted so operators
//                 can see how much of the store is not in the chunk format.
//   kPartial    — the header parses (codec.h's ParseChunkHeader) and claims more
//                 payload than the chunk holds: a torn/truncated write (lost tail).
//   kCorrupt    — chunk bears the magic but fails its header or payload CRC (or is
//                 internally inconsistent): a media fault or bit rot.
//
// With `repair` set, corrupt and partial chunks are *quarantined* — deleted from the
// backend so the read path reports them absent (-1) instead of corrupt (-2), which
// turns a per-read CRC failure into an ordinary recompute-from-tokens miss.
// Unverified chunks are never touched: no checksum means no evidence of damage.
//
// Against a DistributedColdBackend the scan goes deeper: every node's store is
// walked separately (per-node counts in the report), and a logical pass flags
// chunks below their home replica count (kUnderReplicated). There `repair` does
// better than quarantine — damaged copies are deleted, then the chunk is
// re-replicated from a surviving healthy copy (RepairChunk), so fsck restores R
// instead of merely amputating.
//
// Against a DedupBackend the scan walks the PHYSICAL store (each unique chunk
// CRC-classified once, however many logical keys share it) and then audits the
// refcount invariant: a physical chunk with zero referents is an orphan
// (kDedupOrphan; repair deletes the bytes), a referent whose physical chunk is
// gone is corrupt (kDedupMissing; repair drops the logical entries so reads miss
// and callers fall back to recompute), and an index refcount that disagrees with
// the recounted referents is drift (kDedupDrift; repair resets it). A corrupt
// physical chunk quarantined by the scan is then surfaced as kDedupMissing by the
// audit in the same run — quarantine composes with the recompute fallback.
//
// Against a FileBackend opened with sweep_temp_files off, the scan also counts each
// torn segment tail — a record a crash cut short at the end of its segment — as one
// kPartial finding; repair truncates it, which is what a sweeping open does. A damaged
// segment (a bad frame with more than one record after it, or a file that would not
// open) is one kCorrupt finding that repair leaves in place.
//
// `scan_dirs` additionally sweeps filesystem directories for orphaned `*.tmp` files —
// the residue of a FileBackend compaction that died before its rename. They never
// hold the only copy of a chunk (the segment they were replacing is intact), so
// repair unlinks them.
//
// Pure library; examples/hcache_fsck.cpp wraps it in a CLI.
#ifndef HCACHE_SRC_STORAGE_FSCK_H_
#define HCACHE_SRC_STORAGE_FSCK_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/storage/layout.h"
#include "src/storage/storage_backend.h"

namespace hcache {

enum class FsckClass {
  kClean = 0,
  kUnverified = 1,
  kPartial = 2,
  kCorrupt = 3,
  // Distributed only: the chunk's bytes may be fine somewhere, but it sits below
  // its home replica count (missing or corrupt home copies).
  kUnderReplicated = 4,
  // Dedup only (see the header comment): refcount-invariant violations.
  kDedupOrphan = 5,   // physical chunk with zero logical referents
  kDedupMissing = 6,  // logical referents whose physical chunk is gone
  kDedupDrift = 7,    // index refcount != recounted referents
};

const char* FsckClassName(FsckClass c);

struct FsckOptions {
  // Quarantine damaged chunks (delete corrupt/partial from the backend), truncate
  // torn segment tails and unlink orphaned temp files found under scan_dirs.
  // Off = report-only.
  bool repair = false;
  // Filesystem directories to sweep for `*.tmp` orphans (a FileBackend's device
  // dirs, typically — pass FileBackend::device_dirs()). Walked recursively.
  std::vector<std::string> scan_dirs;
};

// One damaged (or swept) object, for the report's detail listing.
struct FsckFinding {
  ChunkKey key;            // zeroed for orphaned temp files and torn segment tails
  int64_t bytes = 0;       // stored size
  FsckClass klass = FsckClass::kCorrupt;
  bool repaired = false;   // deleted/unlinked/re-replicated by this run
  std::string detail;      // human-readable cause (or the orphan's path)
  int node = -1;           // owning storage node (distributed scans only)
};

// Per-node tallies of a distributed scan (one JSON object per node under "nodes").
struct FsckNodeReport {
  int node = -1;
  bool up = true;
  bool draining = false;
  bool removed = false;
  int64_t chunks = 0;   // physical copies resident after the scan (and any repair)
  int64_t bytes = 0;
  int64_t corrupt = 0;  // damaged copies found on this node by this scan
};

struct FsckReport {
  int64_t chunks_scanned = 0;
  int64_t bytes_scanned = 0;
  int64_t clean = 0;
  int64_t unverified = 0;
  int64_t partial = 0;
  int64_t corrupt = 0;
  int64_t orphaned_temp_files = 0;
  int64_t under_replicated = 0;  // distributed scans: chunks below home replica count
  // Dedup scans: refcount-invariant violations (see FsckClass).
  int64_t dedup_orphans = 0;
  int64_t dedup_missing = 0;
  int64_t dedup_drift = 0;
  int64_t repaired = 0;  // quarantined chunks + unlinked orphans + re-replications
  std::vector<FsckFinding> findings;   // damaged chunks and orphans only
  std::vector<FsckNodeReport> nodes;   // distributed scans: per-node counts

  bool Healthy() const {
    return partial == 0 && corrupt == 0 && orphaned_temp_files == 0 &&
           under_replicated == 0 && dedup_orphans == 0 && dedup_missing == 0 &&
           dedup_drift == 0;
  }

  // Machine-readable single-object JSON (stable key order, findings inlined) —
  // what `hcache-fsck --json` prints for dashboards/CI to parse.
  std::string ToJson() const;
};

// Scans `backend` (and `options.scan_dirs`) and returns the classification report.
// Requires a backend whose ListChunks/ReadChunkUnverified are functional (memory,
// file, tiered, or an instrumented wrapper of those). A DistributedColdBackend is
// recognized (dynamic_cast) and gets the per-node + replication scan described
// above; a DedupBackend gets the physical scan + refcount audit (recursively
// distributed-aware when dedup wraps the replicated plane).
FsckReport RunFsck(StorageBackend* backend, const FsckOptions& options = {});

}  // namespace hcache

#endif  // HCACHE_SRC_STORAGE_FSCK_H_
