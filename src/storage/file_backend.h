// File-backed storage backend — the functional realization of §4.2's SSD tier.
//
// Chunks are fixed-size objects keyed by (context, layer, chunk_index) and striped
// round-robin across N "devices" (directories — each stands in for one NVMe namespace;
// pointing them at distinct mounts gives real multi-device striping). One chunk maps to
// one file under a per-context subdirectory: the paper's design point that chunk
// allocation is incremental (no reservation at max context length, §4.2.1) falls out
// naturally, and DeleteContext can unlink the whole directory so long serving runs do
// not leak empty dirs.
//
// Thread safety: concurrent writers on distinct chunks are safe (the two-stage saver's
// flush threads rely on this); the in-memory index is mutex-guarded. Reads are
// positioned pread calls on a small refcounted fd cache — pread never touches the fd's
// file position, so any number of threads can read the same chunk (even sharing one
// cached fd) concurrently without seek/read interleaving races.
#ifndef HCACHE_SRC_STORAGE_FILE_BACKEND_H_
#define HCACHE_SRC_STORAGE_FILE_BACKEND_H_

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

// Durability knobs. The defaults are the crash-consistent configuration; tests and
// tools relax them to observe intermediate states.
struct FileBackendOptions {
  // fsync the temp file before the rename publishes it. With it, a published chunk
  // survives power loss; without it, only process crashes (the rename is still
  // atomic either way). Benches on tmpfs can turn it off — fsync there is ~free but
  // the syscalls are not.
  bool fsync_writes = true;
  // Rebuild the in-memory index from the chunk files already present in the device
  // dirs (a previous process's chunks become readable again after a crash/restart).
  bool recover_index = true;
  // Unlink orphaned `*.tmp` files left by a writer that died mid-write. fsck turns
  // this off so it can classify the orphans instead.
  bool sweep_temp_files = true;
};

class FileBackend : public StorageBackend {
 public:
  // `device_dirs` are created if absent. `chunk_bytes` is the sealed-chunk capacity;
  // the final chunk of a layer may be smaller.
  FileBackend(std::vector<std::string> device_dirs, int64_t chunk_bytes);
  FileBackend(std::vector<std::string> device_dirs, int64_t chunk_bytes,
              const FileBackendOptions& options);

  // Publishes via write-temp + fsync + rename(2): a reader (or a crash) never
  // observes a half-written chunk — at worst an orphaned `<path>.tmp` remains,
  // which the startup recovery scan (or hcache-fsck) sweeps.
  bool WriteChunk(const ChunkKey& key, const void* data, int64_t bytes) override;
  // Batched submission: one index pass resolves every request, then the preads fan
  // out grouped per device so each stripe streams its own queue (the whole point of
  // striping, §4.2.1). Only devices with work join the fan-out, so a one-request
  // read runs inline on the caller. Stats land in one update per batch.
  void ReadChunks(std::span<ChunkReadRequest> requests,
                  const BatchCompletion& done = {}) const override;
  void ReadChunksUnverified(std::span<ChunkReadRequest> requests,
                            const BatchCompletion& done = {}) const override;
  bool WriteChunks(std::span<ChunkWriteRequest> requests,
                   const BatchCompletion& done = {}) override;
  int64_t ChunkSize(const ChunkKey& key) const override;
  void DeleteContext(int64_t context_id) override;
  std::vector<std::pair<ChunkKey, int64_t>> ListChunks() const override;
  bool DeleteChunk(const ChunkKey& key) override;
  StorageStats Stats() const override;
  std::string Name() const override { return "file"; }

  // Orphaned temp files the startup recovery scan removed (0 unless recover_index).
  int64_t swept_temp_files() const { return swept_temp_files_; }

  // Device a chunk is striped onto (round-robin by chunk index — §4.2.1's bandwidth
  // aggregation scheme).
  int DeviceOf(const ChunkKey& key) const;

  int num_devices() const { return static_cast<int>(device_dirs_.size()); }
  const std::vector<std::string>& device_dirs() const { return device_dirs_; }

 private:
  std::string ContextDir(int device, int64_t context_id) const;
  std::string PathFor(const ChunkKey& key) const;
  // Ensures the per-context directory exists on `device` (memoized; mkdir is not on
  // the per-write fast path after the first chunk of a context lands on a device).
  bool EnsureContextDir(int device, int64_t context_id);
  // Startup pass: re-registers surviving chunk files in the index and (optionally)
  // sweeps orphaned temp files a crashed writer left behind.
  void RecoverFromDisk();
  // Shared body of the verified and unverified read paths.
  void ReadChunksImpl(std::span<ChunkReadRequest> requests, const BatchCompletion& done,
                      bool verify) const;

  // Owns one O_RDONLY fd; closes it on destruction. Refcounted so an eviction (or
  // DeleteContext) never closes an fd another thread is mid-pread on.
  struct FdHolder;
  // Returns the cached read fd for `key`, opening (outside any lock) and inserting it
  // on miss; nullptr when the file cannot be opened. LRU-bounded.
  std::shared_ptr<FdHolder> AcquireFd(const ChunkKey& key) const;
  void DropCachedFd(const ChunkKey& key);
  void DropContextFds(int64_t context_id);

  std::vector<std::string> device_dirs_;
  FileBackendOptions options_;
  int64_t swept_temp_files_ = 0;  // written once during construction

  // fd cache state, guarded separately from the index so preads in flight never
  // contend with index lookups.
  mutable std::mutex fd_mu_;
  mutable std::list<ChunkKey> fd_lru_;  // front = most recently used
  mutable std::map<ChunkKey,
                   std::pair<std::shared_ptr<FdHolder>, std::list<ChunkKey>::iterator>>
      fd_cache_;

  mutable std::mutex mu_;
  std::map<ChunkKey, int64_t> index_;  // key -> stored size
  std::set<std::pair<int64_t, int>> context_dirs_;  // (context, device) dirs created
  int64_t bytes_stored_ = 0;           // sum of index_ sizes
  int64_t total_writes_ = 0;
  mutable int64_t total_reads_ = 0;    // successful reads only
  mutable int64_t read_bytes_ = 0;     // encoded bytes served by successful reads
  mutable int64_t crc_failures_ = 0;
  mutable int64_t crc_checked_bytes_ = 0;
};

// The storage layer's historical name for the file tier; kept so call sites reading
// the paper's terminology ("chunk store") still resolve.
using ChunkStore = FileBackend;

}  // namespace hcache

#endif  // HCACHE_SRC_STORAGE_FILE_BACKEND_H_
