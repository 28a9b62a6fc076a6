#include "src/storage/file_backend.h"

#include <fcntl.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <limits>
#include <list>

#include "src/common/logging.h"
#include "src/common/thread_pool.h"
#include "src/storage/codec_simd.h"
#include "src/storage/integrity.h"

namespace hcache {

namespace fs = std::filesystem;

struct FileBackend::Fd {
  explicit Fd(int fd_in) : fd(fd_in) {}
  ~Fd() { ::close(fd); }
  Fd(const Fd&) = delete;  // one owner closes the fd
  const int fd;
};

struct FileBackend::Segment {
  const SegmentId id;
  const std::string path;
  // Guarded by mu_. `fd` is null while the segment is closed; FdLocked reopens it.
  std::shared_ptr<Fd> fd;
  std::list<Segment*>::iterator lru;  // its entry in open_ while `fd` is set
  std::mutex append_mu;  // serializes appends and compaction of this segment
  int64_t end = 0;       // length of the whole records; the next append lands here (append_mu)
  int64_t live = 0;       // frame + payload bytes of the records the index points at
  int64_t torn = 0;       // bytes past `end` that an open left in place
  bool damaged = false;   // those bytes are not a torn last record, or the file would not
                          // open: appends fail and nothing cuts them
  bool unlinked = false;  // its file is gone (DeleteContext, or no live record left)
};

namespace {

constexpr int64_t kMinKey = std::numeric_limits<int64_t>::min();
constexpr size_t kMaxOpenFds = 128;  // segments kept open; the rest reopen on use

// The frame in front of every record. The chunk bytes after it are stored exactly as
// the caller handed them over, so a sealed chunk keeps its own v2 header and CRCs.
struct Frame {
  uint32_t magic;
  uint32_t crc;  // CRC32C of the frame with this field zeroed
  int64_t context_id;
  int64_t layer;
  int64_t chunk_index;
  int64_t bytes;  // payload bytes that follow; 0 marks a tombstone
};
static_assert(sizeof(Frame) == 40, "the frame layout is part of the segment format");
constexpr uint32_t kFrameMagic = 0x474c4348;  // "HCLG" little-endian
constexpr int64_t kFrameBytes = sizeof(Frame);

uint32_t FrameCrc(Frame frame) {
  frame.crc = 0;
  return Crc32c(&frame, kFrameBytes);
}

std::string SegmentName(int64_t context_id) {
  return "ctx" + std::to_string(context_id) + ".seg";
}

Frame MakeFrame(const ChunkKey& key, int64_t bytes) {
  Frame frame{kFrameMagic, 0, key.context_id, key.layer, key.chunk_index, bytes};
  frame.crc = FrameCrc(frame);
  return frame;
}

// Reads [offset, offset + size) from `fd` in one pread, which never moves the fd's
// file position, so concurrent readers sharing one fd cannot interleave. A regular
// file reads short only at its end, i.e. when it is shorter than the index claims.
bool PreadAll(int fd, void* buf, int64_t size, int64_t offset) {
  ssize_t got = 0;
  do {
    got = ::pread(fd, buf, static_cast<size_t>(size), static_cast<off_t>(offset));
  } while (got < 0 && errno == EINTR);
  return got == size;
}

// Writes `frame` and then `bytes` of `data` at `offset` in one call. A short write
// (file-size limit, full disk) fails it; the caller cuts what landed.
bool PwriteRecord(int fd, const Frame& frame, const void* data, int64_t bytes,
                  int64_t offset) {
  const iovec iov[2] = {{const_cast<Frame*>(&frame), sizeof(Frame)},
                        {const_cast<void*>(data), static_cast<size_t>(bytes)}};
  ssize_t put = 0;
  do {
    put = ::pwritev(fd, iov, 2, static_cast<off_t>(offset));
  } while (put < 0 && errno == EINTR);
  return put == kFrameBytes + bytes;
}

}  // namespace

FileBackend::FileBackend(std::vector<std::string> device_dirs, int64_t chunk_bytes)
    : FileBackend(std::move(device_dirs), chunk_bytes, FileBackendOptions{}) {}

FileBackend::FileBackend(std::vector<std::string> device_dirs, int64_t chunk_bytes,
                         const FileBackendOptions& options)
    : StorageBackend(chunk_bytes), device_dirs_(std::move(device_dirs)), options_(options) {
  CHECK(!device_dirs_.empty());
  for (const auto& dir : device_dirs_) {
    std::error_code ec;
    fs::create_directories(dir, ec);
    CHECK(!ec) << "cannot create device dir " << dir << ": " << ec.message();
  }
  RecoverFromDisk();
}

void FileBackend::RecoverFromDisk() {
  std::lock_guard<std::mutex> lock(mu_);
  for (int device = 0; device < num_devices(); ++device) {
    std::error_code ec;
    for (const auto& entry :
         fs::directory_iterator(device_dirs_[static_cast<size_t>(device)], ec)) {
      const std::string name = entry.path().filename().string();
      long long context_id = 0;
      if (entry.path().extension() == ".tmp") {
        // A compaction died before its rename; the segment it was replacing is intact.
        if (options_.sweep_temp_files) {
          ::unlink(entry.path().c_str());
        }
      } else if (std::sscanf(name.c_str(), "ctx%lld.seg", &context_id) == 1 &&
                 name == SegmentName(context_id)) {
        RecoverSegment({context_id, device}, entry.path().string());
      }
    }
  }
}

void FileBackend::RecoverSegment(SegmentId id, const std::string& path) {
  auto seg = segments_.emplace(id, std::make_shared<Segment>(id, path)).first->second;
  const int fd = ::open(path.c_str(), O_RDWR | O_CLOEXEC);
  if (fd < 0) {
    // Never treat it as absent: a later append would create the file over it.
    HCACHE_LOG_ERROR << "cannot open segment " << path << ": " << std::strerror(errno)
                     << "; its chunks stay unindexed and appends to it fail";
    seg->damaged = true;
    return;
  }
  const auto file = FdLocked(seg.get(), std::make_shared<Fd>(fd));
  const int64_t size = std::max<int64_t>(::lseek(fd, 0, SEEK_END), 0);
  int64_t off = 0;
  int64_t foreign = 0;
  for (Frame f{}; off + kFrameBytes <= size && PreadAll(fd, &f, kFrameBytes, off);
       off += kFrameBytes + f.bytes) {
    if (f.magic != kFrameMagic || f.crc != FrameCrc(f) || f.bytes < 0 ||
        off + kFrameBytes + f.bytes > size) {
      break;
    }
    const ChunkKey key{f.context_id, f.layer, f.chunk_index};
    if (key.context_id == id.first && DeviceOf(key) == id.second && f.bytes <= chunk_bytes()) {
      PublishLocked(seg.get(), key, off, f.bytes);
    } else {
      ++foreign;  // whole, but written under another device count or chunk_bytes
    }
  }
  if (foreign > 0) {
    HCACHE_LOG_WARN << "segment " << path << ": " << foreign << " records not indexed";
  }
  seg->end = off;
  seg->torn = size - off;
  // A crash cuts short at most the last record. More than a whole record after a bad
  // frame is damage: left in place for fsck, and no append may land on top of it.
  seg->damaged = seg->torn >= kFrameBytes + chunk_bytes();
  if (seg->damaged) {
    HCACHE_LOG_ERROR << "segment " << path << ": bad frame at offset " << off << " with "
                     << seg->torn << " bytes after it; left in place, appends to it fail";
  } else if (seg->torn > 0 && options_.sweep_temp_files && ::ftruncate(file->fd, off) == 0) {
    HCACHE_LOG_WARN << "segment " << path << ": cut a torn last record at offset " << off;
    seg->torn = 0;
  }
}

int FileBackend::DeviceOf(const ChunkKey& key) const {
  return static_cast<int>(key.chunk_index % static_cast<int64_t>(device_dirs_.size()));
}

std::shared_ptr<FileBackend::Segment> FileBackend::SegmentLocked(SegmentId id, bool create) {
  const auto it = segments_.find(id);
  if (it != segments_.end() || !create) {
    return it != segments_.end() ? it->second : nullptr;
  }
  const std::string path = device_dirs_[static_cast<size_t>(id.second)] + "/" +
                           SegmentName(id.first);
  const int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_EXCL | O_CLOEXEC, 0644);
  if (fd < 0) {
    HCACHE_LOG_ERROR << "cannot create segment " << path << ": " << std::strerror(errno);
    return nullptr;
  }
  auto seg = segments_.emplace(id, std::make_shared<Segment>(id, path)).first->second;
  FdLocked(seg.get(), std::make_shared<Fd>(fd));
  return seg;
}

std::shared_ptr<FileBackend::Fd> FileBackend::FdLocked(Segment* seg,
                                                       std::shared_ptr<Fd> fd) const {
  if (fd == nullptr && seg->fd != nullptr) {
    open_.splice(open_.begin(), open_, seg->lru);
    return seg->fd;
  }
  if (fd == nullptr) {
    const int raw = ::open(seg->path.c_str(), O_RDWR | O_CLOEXEC);
    if (raw < 0) {
      HCACHE_LOG_ERROR << "cannot reopen segment " << seg->path << ": " << std::strerror(errno);
      return nullptr;
    }
    fd = std::make_shared<Fd>(raw);
  }
  if (seg->fd != nullptr) {
    open_.erase(seg->lru);
  }
  seg->fd = std::move(fd);
  seg->lru = open_.insert(open_.begin(), seg);
  if (open_.size() > kMaxOpenFds) {
    open_.back()->fd.reset();  // closes once its in-flight readers drop it
    open_.pop_back();
  }
  return seg->fd;
}

void FileBackend::PublishLocked(Segment* seg, const ChunkKey& key, int64_t offset,
                                int64_t bytes) {
  const auto it = index_.find(key);
  if (it != index_.end()) {
    seg->live -= kFrameBytes + it->second.bytes;
    bytes_stored_ -= it->second.bytes;
    index_.erase(it);
  }
  if (bytes > 0) {
    index_.emplace(key, Location{seg, offset, bytes});
    seg->live += kFrameBytes + bytes;
    bytes_stored_ += bytes;
  }
}

void FileBackend::UnlinkLocked(Segment* seg) {
  seg->unlinked = true;
  if (seg->fd != nullptr) {
    open_.erase(seg->lru);
    seg->fd.reset();
  }
  ::unlink(seg->path.c_str());
  segments_.erase(seg->id);  // may destroy *seg
}

bool FileBackend::WriteChunk(const ChunkKey& key, const void* data, int64_t bytes) {
  CHECK_GT(bytes, 0);
  CHECK_LE(bytes, chunk_bytes());
  return Append(key, data, bytes);
}

bool FileBackend::Append(const ChunkKey& key, const void* data, int64_t bytes) {
  for (;;) {
    std::shared_ptr<Segment> seg;
    {
      std::lock_guard<std::mutex> lock(mu_);
      seg = SegmentLocked({key.context_id, DeviceOf(key)}, /*create=*/bytes > 0);
    }
    if (seg == nullptr) {
      return false;
    }
    std::lock_guard<std::mutex> append_lock(seg->append_mu);
    int64_t torn = 0;
    std::shared_ptr<Fd> file;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (seg->unlinked) {
        continue;  // emptied or deleted while we waited: append to its successor
      }
      file = seg->damaged ? nullptr : FdLocked(seg.get());
      if (file == nullptr) {
        HCACHE_LOG_ERROR << "append refused: " << seg->path << " is damaged or unopenable";
        return false;
      }
      torn = std::exchange(seg->torn, 0);
    }
    const int fd = file->fd;
    const int64_t offset = seg->end;
    if (torn > 0) {
      (void)::ftruncate(fd, offset);  // a tail left anyway reads as torn again
    }
    bool ok = PwriteRecord(fd, MakeFrame(key, bytes), data, bytes, offset);
    if (ok && options_.fsync_writes) {
      ok = ::fdatasync(fd) == 0;
    }
    if (!ok) {
      HCACHE_LOG_ERROR << "append failed: " << seg->path << ": " << std::strerror(errno);
      // Cut whatever part of the record landed, so the segment holds whole records only.
      (void)::ftruncate(fd, offset);
      return false;
    }
    seg->end = offset + kFrameBytes + bytes;
    bool compact = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      total_writes_ += bytes > 0 ? 1 : 0;
      if (seg->unlinked) {
        return true;  // DeleteContext ran during the append: it deletes this write too
      }
      PublishLocked(seg.get(), key, offset, bytes);
      if (seg->live == 0) {
        UnlinkLocked(seg.get());
      } else {
        compact = seg->end - seg->live > seg->live + chunk_bytes();
      }
    }
    if (compact) {
      Compact(seg.get());
    }
    return true;
  }
}

void FileBackend::Compact(Segment* seg) {
  std::vector<std::pair<ChunkKey, Location>> records;
  std::shared_ptr<Fd> from;
  std::string tmp;  // unique, so a compaction of a deleted incarnation never shares it
  {
    std::lock_guard<std::mutex> lock(mu_);
    from = FdLocked(seg);
    tmp = seg->path + "." + std::to_string(++compactions_) + ".tmp";
    for (auto it = index_.lower_bound(ChunkKey{seg->id.first, kMinKey, kMinKey});
         it != index_.end() && it->first.context_id == seg->id.first; ++it) {
      if (it->second.seg == seg) {
        records.emplace_back(*it);
      }
    }
  }
  // Appends to this segment wait on append_mu meanwhile; reads go on against `from`.
  const int fd =
      from == nullptr ? -1 : ::open(tmp.c_str(), O_RDWR | O_CREAT | O_EXCL | O_CLOEXEC, 0644);
  if (fd < 0) {
    return;
  }
  auto to = std::make_shared<Fd>(fd);
  std::vector<char> buf;
  int64_t end = 0;
  bool ok = true;
  for (auto& [key, loc] : records) {
    buf.resize(static_cast<size_t>(loc.bytes));
    ok = PreadAll(from->fd, buf.data(), loc.bytes, loc.offset + kFrameBytes) &&
         PwriteRecord(fd, MakeFrame(key, loc.bytes), buf.data(), loc.bytes, end);
    if (!ok) {
      break;
    }
    loc.offset = end;
    end += kFrameBytes + loc.bytes;
  }
  ok = ok && (!options_.fsync_writes || ::fdatasync(fd) == 0);
  // Rename under mu_, as DeleteContext unlinks under it: a compaction never brings
  // back a segment that was deleted while it copied.
  std::lock_guard<std::mutex> lock(mu_);
  if (!ok || seg->unlinked || ::rename(tmp.c_str(), seg->path.c_str()) != 0) {
    ::unlink(tmp.c_str());
    return;
  }
  FdLocked(seg, std::move(to));
  for (const auto& [key, loc] : records) {
    index_.find(key)->second.offset = loc.offset;
  }
  seg->end = end;
}

void FileBackend::ReadChunks(std::span<ChunkReadRequest> requests,
                             const BatchCompletion& done) const {
  ReadChunksImpl(requests, done, /*verify=*/true);
}

void FileBackend::ReadChunksUnverified(std::span<ChunkReadRequest> requests,
                                       const BatchCompletion& done) const {
  ReadChunksImpl(requests, done, /*verify=*/false);
}

void FileBackend::ReadChunksImpl(std::span<ChunkReadRequest> requests,
                                 const BatchCompletion& done, bool verify) const {
  struct Job {
    ChunkReadRequest* req;
    std::shared_ptr<Fd> fd;
    int64_t offset;  // of the payload
    int64_t size;
  };
  std::vector<std::vector<Job>> per_device(device_dirs_.size());
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (ChunkReadRequest& req : requests) {
      req.result = -1;
      const auto it = index_.find(req.key);
      if (it == index_.end() || it->second.bytes > req.buf_bytes) {
        continue;  // absent / short buffer: fails only this request
      }
      const Location& loc = it->second;
      auto fd = FdLocked(loc.seg);
      if (fd != nullptr) {
        per_device[static_cast<size_t>(DeviceOf(req.key))].push_back(
            Job{&req, std::move(fd), loc.offset + kFrameBytes, loc.bytes});
      }
    }
  }
  // Fan out over the device groups that have work only: a batch touching one
  // device (a single-chunk read in particular) runs inline, off the thread pool.
  std::vector<const std::vector<Job>*> groups;
  groups.reserve(per_device.size());
  for (const std::vector<Job>& jobs : per_device) {
    if (!jobs.empty()) {
      groups.push_back(&jobs);
    }
  }
  ParallelFor(0, static_cast<int64_t>(groups.size()), 1, [&](int64_t lo, int64_t hi) {
    for (int64_t g = lo; g < hi; ++g) {
      int64_t reads = 0;
      int64_t bytes = 0;
      int64_t fails = 0;
      int64_t checked_total = 0;
      for (const Job& job : *groups[static_cast<size_t>(g)]) {
        if (!PreadAll(job.fd->fd, job.req->buf, job.size, job.offset)) {
          continue;
        }
        if (verify) {
          int64_t checked = 0;
          if (VerifyChunkBytes(job.req->buf, job.size, &checked) ==
              ChunkVerdict::kCorrupt) {
            job.req->result = kChunkCorrupt;  // fails only this request
            ++fails;
            continue;
          }
          checked_total += checked;
        }
        job.req->result = job.size;
        ++reads;
        bytes += job.size;
      }
      std::lock_guard<std::mutex> lock(mu_);  // one stats update per device group
      total_reads_ += reads;
      read_bytes_ += bytes;
      crc_failures_ += fails;
      crc_checked_bytes_ += checked_total;
    }
  });
  if (done) {
    done();
  }
}

bool FileBackend::WriteChunks(std::span<ChunkWriteRequest> requests,
                              const BatchCompletion& done) {
  std::vector<std::vector<ChunkWriteRequest*>> per_device(device_dirs_.size());
  for (ChunkWriteRequest& req : requests) {
    per_device[static_cast<size_t>(DeviceOf(req.key))].push_back(&req);
  }
  std::atomic<bool> all_ok{true};
  ParallelFor(0, static_cast<int64_t>(per_device.size()), 1, [&](int64_t lo, int64_t hi) {
    for (int64_t d = lo; d < hi; ++d) {
      for (ChunkWriteRequest* req : per_device[static_cast<size_t>(d)]) {
        req->ok = WriteChunk(req->key, req->data, req->bytes);
        if (!req->ok) {
          all_ok.store(false, std::memory_order_relaxed);
        }
      }
    }
  });
  if (done) {
    done();
  }
  return all_ok.load(std::memory_order_relaxed);
}

int64_t FileBackend::ChunkSize(const ChunkKey& key) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = index_.find(key);
  return it == index_.end() ? -1 : it->second.bytes;
}

std::vector<std::pair<ChunkKey, int64_t>> FileBackend::ListChunks() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<ChunkKey, int64_t>> out;
  out.reserve(index_.size());
  for (const auto& [key, loc] : index_) {
    out.emplace_back(key, loc.bytes);
  }
  return out;
}

bool FileBackend::DeleteChunk(const ChunkKey& key) {
  return ChunkSize(key) >= 0 && Append(key, nullptr, 0);
}

void FileBackend::DeleteContext(int64_t context_id) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = index_.lower_bound(ChunkKey{context_id, kMinKey, kMinKey});
       it != index_.end() && it->first.context_id == context_id;) {
    bytes_stored_ -= it->second.bytes;
    it = index_.erase(it);
  }
  for (auto it = segments_.lower_bound({context_id, 0});
       it != segments_.end() && it->first.first == context_id;) {
    UnlinkLocked((it++)->second.get());
  }
}

std::vector<FileBackend::TornTail> FileBackend::TornTails(bool truncate) {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<TornTail> out;
  for (const auto& [id, seg] : segments_) {
    // No append has reached such a segment since the open, so `end` holds.
    if (seg->torn > 0 || seg->damaged) {
      const auto file = truncate && !seg->damaged ? FdLocked(seg.get()) : nullptr;
      const bool cut = file != nullptr && ::ftruncate(file->fd, seg->end) == 0;
      out.push_back(TornTail{seg->path, seg->end, seg->torn, cut, seg->damaged});
      seg->torn = cut ? 0 : seg->torn;
    }
  }
  return out;
}

StorageStats FileBackend::Stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  StorageStats s;
  s.chunks_stored = static_cast<int64_t>(index_.size());
  s.bytes_stored = bytes_stored_;
  s.total_writes = total_writes_;
  s.total_reads = total_reads_;
  s.cold_hits = total_reads_;  // every read is served by the file tier
  s.cold_hit_bytes = read_bytes_;
  s.crc_failures = crc_failures_;
  s.crc_checked_bytes = crc_checked_bytes_;
  return s;
}

}  // namespace hcache
