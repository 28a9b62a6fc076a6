#include "src/storage/file_backend.h"

#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>

#include "src/common/logging.h"
#include "src/common/thread_pool.h"
#include "src/storage/integrity.h"

namespace hcache {

namespace fs = std::filesystem;

struct FileBackend::FdHolder {
  explicit FdHolder(int fd_in) : fd(fd_in) {}
  ~FdHolder() {
    if (fd >= 0) {
      ::close(fd);
    }
  }
  FdHolder(const FdHolder&) = delete;
  FdHolder& operator=(const FdHolder&) = delete;

  int fd = -1;
};

namespace {

// Enough for several concurrent restores' working sets without nearing default
// RLIMIT_NOFILE budgets (a 32-chunk context touches 32 files).
constexpr size_t kMaxCachedFds = 128;

// Reads exactly [0, size) from `fd` at absolute offsets, retrying EINTR and short
// reads. pread never moves the fd's file position, so concurrent readers sharing one
// cached fd cannot interleave.
bool PreadAll(int fd, void* buf, int64_t size) {
  char* dst = static_cast<char*>(buf);
  int64_t off = 0;
  while (off < size) {
    const ssize_t got =
        ::pread(fd, dst + off, static_cast<size_t>(size - off), static_cast<off_t>(off));
    if (got < 0) {
      if (errno == EINTR) {
        continue;
      }
      return false;
    }
    if (got == 0) {  // file shorter than the index claims
      return false;
    }
    off += got;
  }
  return true;
}

// Writes exactly [0, size) to `fd`, retrying EINTR and short writes.
bool WriteAll(int fd, const void* buf, int64_t size) {
  const char* src = static_cast<const char*>(buf);
  int64_t off = 0;
  while (off < size) {
    const ssize_t put = ::write(fd, src + off, static_cast<size_t>(size - off));
    if (put < 0) {
      if (errno == EINTR) {
        continue;
      }
      return false;
    }
    off += put;
  }
  return true;
}

// Parses "L<layer>_C<chunk>.bin"; false for anything else (incl. "*.tmp").
bool ParseChunkFileName(const std::string& name, int64_t* layer, int64_t* chunk) {
  long long l = 0;
  long long c = 0;
  int consumed = 0;
  if (std::sscanf(name.c_str(), "L%lld_C%lld.bin%n", &l, &c, &consumed) != 2 ||
      static_cast<size_t>(consumed) != name.size()) {
    return false;
  }
  *layer = l;
  *chunk = c;
  return true;
}

bool IsTempFileName(const std::string& name) {
  constexpr const char kSuffix[] = ".tmp";
  return name.size() > sizeof(kSuffix) - 1 &&
         name.compare(name.size() - (sizeof(kSuffix) - 1), sizeof(kSuffix) - 1,
                      kSuffix) == 0;
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
  if (options_.recover_index) {
    RecoverFromDisk();
  }
}

void FileBackend::RecoverFromDisk() {
  for (int device = 0; device < num_devices(); ++device) {
    const fs::path dev_dir(device_dirs_[static_cast<size_t>(device)]);
    std::error_code ec;
    for (const auto& ctx_entry : fs::directory_iterator(dev_dir, ec)) {
      if (!ctx_entry.is_directory()) {
        continue;
      }
      long long context_id = 0;
      int consumed = 0;
      const std::string ctx_name = ctx_entry.path().filename().string();
      if (std::sscanf(ctx_name.c_str(), "ctx%lld%n", &context_id, &consumed) != 1 ||
          static_cast<size_t>(consumed) != ctx_name.size()) {
        continue;
      }
      bool saw_chunk = false;
      std::error_code ec2;
      for (const auto& entry : fs::directory_iterator(ctx_entry.path(), ec2)) {
        if (!entry.is_regular_file()) {
          continue;
        }
        const std::string name = entry.path().filename().string();
        if (IsTempFileName(name)) {
          // A writer died between creating the temp and the rename: the chunk was
          // never published, so the temp is garbage by construction.
          if (options_.sweep_temp_files) {
            std::error_code rm_ec;
            fs::remove(entry.path(), rm_ec);
            ++swept_temp_files_;
          }
          continue;
        }
        int64_t layer = 0;
        int64_t chunk = 0;
        if (!ParseChunkFileName(name, &layer, &chunk)) {
          continue;
        }
        const ChunkKey key{context_id, layer, chunk};
        if (DeviceOf(key) != device) {
          continue;  // misplaced file (foreign dir contents); never index it
        }
        std::error_code sz_ec;
        const auto size = static_cast<int64_t>(fs::file_size(entry.path(), sz_ec));
        if (sz_ec || size <= 0 || size > chunk_bytes()) {
          continue;  // unreadable or impossible size: leave it for fsck
        }
        auto& indexed = index_[key];
        bytes_stored_ += size - indexed;
        indexed = size;
        saw_chunk = true;
      }
      if (saw_chunk) {
        context_dirs_.insert({context_id, device});
      }
    }
  }
}

int FileBackend::DeviceOf(const ChunkKey& key) const {
  return static_cast<int>(key.chunk_index % static_cast<int64_t>(device_dirs_.size()));
}

std::string FileBackend::ContextDir(int device, int64_t context_id) const {
  char name[32];
  std::snprintf(name, sizeof(name), "ctx%lld", static_cast<long long>(context_id));
  return device_dirs_[static_cast<size_t>(device)] + "/" + name;
}

std::string FileBackend::PathFor(const ChunkKey& key) const {
  char name[64];
  std::snprintf(name, sizeof(name), "L%lld_C%lld.bin", static_cast<long long>(key.layer),
                static_cast<long long>(key.chunk_index));
  return ContextDir(DeviceOf(key), key.context_id) + "/" + name;
}

bool FileBackend::EnsureContextDir(int device, int64_t context_id) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (context_dirs_.count({context_id, device}) != 0) {
      return true;
    }
  }
  std::error_code ec;
  fs::create_directories(ContextDir(device, context_id), ec);
  if (ec) {
    HCACHE_LOG_ERROR << "cannot create context dir for ctx " << context_id << ": "
                     << ec.message();
    return false;
  }
  std::lock_guard<std::mutex> lock(mu_);
  context_dirs_.insert({context_id, device});
  return true;
}

std::shared_ptr<FileBackend::FdHolder> FileBackend::AcquireFd(const ChunkKey& key) const {
  {
    std::lock_guard<std::mutex> lock(fd_mu_);
    const auto it = fd_cache_.find(key);
    if (it != fd_cache_.end()) {
      fd_lru_.splice(fd_lru_.begin(), fd_lru_, it->second.second);
      return it->second.first;
    }
  }
  // Open outside the lock: a slow open (cold dentry, loaded device) must not
  // serialize every other reader behind it.
  const int fd = ::open(PathFor(key).c_str(), O_RDONLY);
  if (fd < 0) {
    return nullptr;
  }
  auto holder = std::make_shared<FdHolder>(fd);
  std::lock_guard<std::mutex> lock(fd_mu_);
  const auto it = fd_cache_.find(key);
  if (it != fd_cache_.end()) {
    // Lost the open race; keep the incumbent (ours closes when `holder` dies).
    fd_lru_.splice(fd_lru_.begin(), fd_lru_, it->second.second);
    return it->second.first;
  }
  fd_lru_.push_front(key);
  fd_cache_.emplace(key, std::make_pair(holder, fd_lru_.begin()));
  while (fd_cache_.size() > kMaxCachedFds) {
    const ChunkKey victim = fd_lru_.back();
    fd_lru_.pop_back();
    fd_cache_.erase(victim);  // in-flight readers keep the fd alive via shared_ptr
  }
  return holder;
}

void FileBackend::DropCachedFd(const ChunkKey& key) {
  std::lock_guard<std::mutex> lock(fd_mu_);
  const auto it = fd_cache_.find(key);
  if (it != fd_cache_.end()) {
    fd_lru_.erase(it->second.second);
    fd_cache_.erase(it);
  }
}

void FileBackend::DropContextFds(int64_t context_id) {
  std::lock_guard<std::mutex> lock(fd_mu_);
  for (auto it = fd_cache_.lower_bound(ChunkKey{context_id, 0, 0});
       it != fd_cache_.end() && it->first.context_id == context_id;) {
    fd_lru_.erase(it->second.second);
    it = fd_cache_.erase(it);
  }
}

bool FileBackend::WriteChunk(const ChunkKey& key, const void* data, int64_t bytes) {
  CHECK_GT(bytes, 0);
  CHECK_LE(bytes, chunk_bytes());
  if (!EnsureContextDir(DeviceOf(key), key.context_id)) {
    return false;
  }
  // Write-temp + fsync + atomic rename: the final path either holds the complete
  // old chunk or the complete new one, never a torn mix — and a failure at any step
  // (short write, full disk, crash) leaves at worst a `.tmp` the recovery scan
  // sweeps. The fd is closed on EVERY path (a short write used to short-circuit
  // past fclose and leak it) and the partial temp is unlinked before returning.
  const std::string path = PathFor(key);
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    HCACHE_LOG_ERROR << "open failed: " << tmp;
    return false;
  }
  bool ok = WriteAll(fd, data, bytes);
  if (ok && options_.fsync_writes) {
    ok = ::fsync(fd) == 0;
  }
  ok = (::close(fd) == 0) && ok;
  if (ok) {
    ok = ::rename(tmp.c_str(), path.c_str()) == 0;
  }
  if (!ok) {
    HCACHE_LOG_ERROR << "write failed: " << path << " (" << std::strerror(errno) << ")";
    ::unlink(tmp.c_str());
    return false;
  }
  // The rename swapped the inode under the final path; a cached fd still maps the
  // OLD bytes and must be dropped.
  DropCachedFd(key);
  std::lock_guard<std::mutex> lock(mu_);
  auto& indexed = index_[key];
  bytes_stored_ += bytes - indexed;
  indexed = bytes;
  ++total_writes_;
  return true;
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
  // One index pass resolves every request, then the preads fan out per device.
  struct Job {
    ChunkReadRequest* req;
    int64_t size;
  };
  std::vector<std::vector<Job>> per_device(device_dirs_.size());
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (ChunkReadRequest& req : requests) {
      req.result = -1;
      const auto it = index_.find(req.key);
      if (it == index_.end() || it->second > req.buf_bytes) {
        continue;  // absent / short buffer: fails only this request
      }
      per_device[static_cast<size_t>(DeviceOf(req.key))].push_back(Job{&req, it->second});
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
  std::atomic<int64_t> ok_reads{0};
  std::atomic<int64_t> ok_bytes{0};
  std::atomic<int64_t> crc_fails{0};
  std::atomic<int64_t> crc_bytes{0};
  ParallelFor(0, static_cast<int64_t>(groups.size()), 1, [&](int64_t lo, int64_t hi) {
    for (int64_t g = lo; g < hi; ++g) {
      int64_t reads = 0;
      int64_t bytes = 0;
      int64_t fails = 0;
      int64_t checked_total = 0;
      for (const Job& job : *groups[static_cast<size_t>(g)]) {
        const std::shared_ptr<FdHolder> fd = AcquireFd(job.req->key);
        if (fd == nullptr || !PreadAll(fd->fd, job.req->buf, job.size)) {
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
      ok_reads.fetch_add(reads, std::memory_order_relaxed);
      ok_bytes.fetch_add(bytes, std::memory_order_relaxed);
      crc_fails.fetch_add(fails, std::memory_order_relaxed);
      crc_bytes.fetch_add(checked_total, std::memory_order_relaxed);
    }
  });
  {
    // One stats update with the totals of every request in the batch.
    std::lock_guard<std::mutex> lock(mu_);
    total_reads_ += ok_reads.load(std::memory_order_relaxed);
    read_bytes_ += ok_bytes.load(std::memory_order_relaxed);
    crc_failures_ += crc_fails.load(std::memory_order_relaxed);
    crc_checked_bytes_ += crc_bytes.load(std::memory_order_relaxed);
  }
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
  return it == index_.end() ? -1 : it->second;
}

std::vector<std::pair<ChunkKey, int64_t>> FileBackend::ListChunks() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<ChunkKey, int64_t>> out;
  out.reserve(index_.size());
  for (const auto& [key, size] : index_) {
    out.emplace_back(key, size);
  }
  return out;
}

bool FileBackend::DeleteChunk(const ChunkKey& key) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = index_.find(key);
    if (it == index_.end()) {
      return false;
    }
    bytes_stored_ -= it->second;
    index_.erase(it);
  }
  DropCachedFd(key);
  std::error_code ec;
  fs::remove(PathFor(key), ec);
  return true;
}

void FileBackend::DeleteContext(int64_t context_id) {
  DropContextFds(context_id);
  std::vector<int> devices;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto it = index_.lower_bound(ChunkKey{context_id, 0, 0});
         it != index_.end() && it->first.context_id == context_id;) {
      bytes_stored_ -= it->second;
      it = index_.erase(it);
    }
    for (auto it = context_dirs_.lower_bound({context_id, 0});
         it != context_dirs_.end() && it->first == context_id;) {
      devices.push_back(it->second);
      it = context_dirs_.erase(it);
    }
  }
  // Unlink the per-context directory on each device — removing the chunks AND the
  // now-empty directory, so long serving runs don't accumulate thousands of them.
  for (const int device : devices) {
    std::error_code ec;
    fs::remove_all(ContextDir(device, context_id), ec);
  }
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
