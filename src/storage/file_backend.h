// File-backed storage backend — the functional realization of §4.2's SSD tier.
//
// Chunks are fixed-size objects keyed by (context, layer, chunk_index) and striped
// round-robin across N "devices" (directories — each stands in for one NVMe namespace;
// pointing them at distinct mounts gives real multi-device striping). Each device holds
// one append-only log segment per context, `ctx<id>.seg`. A write appends a record: a
// 40-byte frame {magic, frame CRC, context, layer, chunk, bytes} and then the chunk's
// bytes unchanged. An in-memory index maps each key to (segment, offset, size), so a
// write is one positioned write into an open file and allocation stays incremental
// (no reservation at max context length, §4.2.1). A rewrite appends (the later record
// wins), DeleteChunk appends a tombstone (bytes == 0), and DeleteContext unlinks the
// context's segments. Once a segment's dead bytes exceed its live bytes plus one
// chunk_bytes, its live records are copied into a fresh `<segment>.<n>.tmp`, which is
// renamed over it; a segment with no live record left is unlinked. At most 128
// segments keep an fd open; the least recently used is closed and reopened on use.
//
// Opening a backend over existing device dirs replays every segment's frames, so a
// previous process's chunks read back after a crash or restart. The frame CRC covers
// the frame alone; a sealed chunk's own CRCs cover its bytes on every verified read.
// Replay stops at the first frame that does not parse or whose bytes run past the end
// of the file. Less than one whole record after it is a torn tail, which is truncated
// (see FileBackendOptions::sweep_temp_files); more is damage, which is logged, left in
// place for fsck and makes appends to that segment fail, as does a segment that will
// not open.
//
// Thread safety: any number of threads may write, read and delete concurrently. A
// per-segment mutex serializes appends, so the index changes in log order. Reads are
// pread calls on the segment's refcounted fd, which keeps the inode a reader indexed
// alive across a compaction or an LRU close.
#ifndef HCACHE_SRC_STORAGE_FILE_BACKEND_H_
#define HCACHE_SRC_STORAGE_FILE_BACKEND_H_

#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "src/storage/storage_backend.h"

namespace hcache {

// Durability knobs. The defaults are the crash-consistent configuration; tests and
// tools relax them to observe intermediate states.
struct FileBackendOptions {
  // fdatasync a segment after each append (and a compacted segment before its rename).
  // With it, a written chunk survives power loss; without it, only process crashes.
  // Benches on tmpfs or the page cache turn it off.
  bool fsync_writes = true;
  // On open, truncate torn segment tails and unlink orphaned `*.tmp` files a
  // compaction that died left behind. fsck turns this off so it can report them
  // (see TornTails) instead.
  bool sweep_temp_files = true;
};

class FileBackend : public StorageBackend {
 public:
  // `device_dirs` are created if absent. `chunk_bytes` is the sealed-chunk capacity;
  // the final chunk of a layer may be smaller.
  FileBackend(std::vector<std::string> device_dirs, int64_t chunk_bytes);
  FileBackend(std::vector<std::string> device_dirs, int64_t chunk_bytes,
              const FileBackendOptions& options);

  // Appends one record. A failed append truncates the segment back to its previous
  // length, so a reader (or a crash) never observes a half-written record past the
  // index.
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

  // A record a crash cut short at the end of a segment, left in place by an open
  // with sweep_temp_files off until the segment's next append, or a damaged segment.
  // TornTails lists them and, with `truncate`, cuts the torn ones off as a sweeping
  // open does.
  struct TornTail {
    std::string path;
    int64_t offset = 0;      // where the torn record starts (the segment's valid length)
    int64_t bytes = 0;       // bytes past `offset`
    bool truncated = false;  // cut off by this call
    bool damaged = false;    // a bad frame with more than one record after it, or a
                             // segment that would not open: never truncated
  };
  std::vector<TornTail> TornTails(bool truncate = false);

  // Device a chunk is striped onto (round-robin by chunk index — §4.2.1's bandwidth
  // aggregation scheme).
  int DeviceOf(const ChunkKey& key) const;

  int num_devices() const { return static_cast<int>(device_dirs_.size()); }
  const std::vector<std::string>& device_dirs() const { return device_dirs_; }

 private:
  struct Fd;       // owns one fd; refcounted so a pread never races its close
  struct Segment;  // one (context, device) log
  struct Location {
    Segment* seg;    // owned by segments_; entries die with their segment
    int64_t offset;  // of the record's frame
    int64_t bytes;   // payload bytes after the frame
  };
  using SegmentId = std::pair<int64_t, int>;  // (context, device)

  // Returns the segment of (context, device), creating its file when `create`;
  // nullptr when absent or when the file cannot be opened. Caller holds mu_.
  std::shared_ptr<Segment> SegmentLocked(SegmentId id, bool create);
  // Returns `seg`'s open fd, reopening it by path when closed, or installs `fd` as it,
  // and marks it most recently used; closes the least recently used segment past
  // kMaxOpenFds. nullptr when the reopen fails. Caller holds mu_.
  std::shared_ptr<Fd> FdLocked(Segment* seg, std::shared_ptr<Fd> fd = nullptr) const;
  // Appends a record (a tombstone when bytes == 0) and publishes it in the index.
  bool Append(const ChunkKey& key, const void* data, int64_t bytes);
  // Indexes the record at `offset` of `seg` (a tombstone drops `key`). Holds mu_.
  void PublishLocked(Segment* seg, const ChunkKey& key, int64_t offset, int64_t bytes);
  // Rewrites `seg`'s live records into a fresh file. Caller holds seg->append_mu.
  void Compact(Segment* seg);
  // Drops `seg` from the map and unlinks its file. Caller holds mu_.
  void UnlinkLocked(Segment* seg);
  // Startup pass: rebuilds the index from the segments' frames.
  void RecoverFromDisk();
  void RecoverSegment(SegmentId id, const std::string& path);
  // Shared body of the verified and unverified read paths.
  void ReadChunksImpl(std::span<ChunkReadRequest> requests, const BatchCompletion& done,
                      bool verify) const;

  std::vector<std::string> device_dirs_;
  FileBackendOptions options_;

  mutable std::mutex mu_;
  std::map<ChunkKey, Location> index_;
  std::map<SegmentId, std::shared_ptr<Segment>> segments_;
  mutable std::list<Segment*> open_;  // segments with an open fd, most recent first
  int64_t compactions_ = 0;           // numbers each compaction's temp file
  int64_t bytes_stored_ = 0;           // sum of index_ sizes
  int64_t total_writes_ = 0;
  mutable int64_t total_reads_ = 0;    // successful reads only
  mutable int64_t read_bytes_ = 0;     // encoded bytes served by successful reads
  mutable int64_t crc_failures_ = 0;
  mutable int64_t crc_checked_bytes_ = 0;
};

}  // namespace hcache

#endif  // HCACHE_SRC_STORAGE_FILE_BACKEND_H_
