#include "src/storage/memory_backend.h"

#include <atomic>
#include <cstring>
#include <vector>

#include "src/common/logging.h"
#include "src/common/thread_pool.h"
#include "src/storage/integrity.h"

namespace hcache {

MemoryBackend::MemoryBackend(int64_t chunk_bytes) : StorageBackend(chunk_bytes) {}

bool MemoryBackend::WriteChunk(const ChunkKey& key, const void* data, int64_t bytes) {
  CHECK_GT(bytes, 0);
  CHECK_LE(bytes, chunk_bytes());
  const char* src = static_cast<const char*>(data);
  std::lock_guard<std::mutex> lock(mu_);
  auto& chunk = chunks_[key];
  bytes_stored_ += bytes - static_cast<int64_t>(chunk.size());
  chunk.assign(src, src + bytes);
  ++total_writes_;
  return true;
}

void MemoryBackend::ReadChunks(std::span<ChunkReadRequest> requests,
                               const BatchCompletion& done) const {
  ReadChunksImpl(requests, done, /*verify=*/true);
}

void MemoryBackend::ReadChunksUnverified(std::span<ChunkReadRequest> requests,
                                         const BatchCompletion& done) const {
  ReadChunksImpl(requests, done, /*verify=*/false);
}

void MemoryBackend::ReadChunksImpl(std::span<ChunkReadRequest> requests,
                                   const BatchCompletion& done, bool verify) const {
  struct Job {
    ChunkReadRequest* req;
    const char* src;
    int64_t size;
  };
  std::vector<Job> jobs;
  jobs.reserve(requests.size());
  int64_t total_bytes = 0;
  std::lock_guard<std::mutex> lock(mu_);
  for (ChunkReadRequest& req : requests) {
    req.result = -1;
    const auto it = chunks_.find(req.key);
    if (it == chunks_.end()) {
      continue;
    }
    const int64_t size = static_cast<int64_t>(it->second.size());
    if (size > req.buf_bytes) {
      continue;  // short buffer fails only this request, no bytes / no stats
    }
    jobs.push_back(Job{&req, it->second.data(), size});
    total_bytes += size;
  }
  // mu_ stays held across the copies (the map values must not move), which is safe to
  // combine with ParallelFor: the subranges below never touch mu_, and the caller
  // participates in the loop, so a pool worker blocked elsewhere cannot stall us.
  // Verification rides inside the loop via the fused verify+copy kernel, so the CRC
  // sweep is spread across the same threads that move the bytes.
  std::atomic<int64_t> ok_reads{0};
  std::atomic<int64_t> ok_bytes{0};
  std::atomic<int64_t> checked_bytes{0};
  std::atomic<int64_t> failures{0};
  ParallelFor(0, static_cast<int64_t>(jobs.size()),
              total_bytes >= (1 << 20) ? 1 : static_cast<int64_t>(jobs.size()),
              [&](int64_t lo, int64_t hi) {
                int64_t my_reads = 0, my_bytes = 0, my_checked = 0, my_failures = 0;
                for (int64_t i = lo; i < hi; ++i) {
                  const Job& job = jobs[static_cast<size_t>(i)];
                  if (verify) {
                    int64_t checked = 0;
                    if (VerifyAndCopyChunk(job.src, job.size, job.req->buf, &checked) ==
                        ChunkVerdict::kCorrupt) {
                      // Fails only this request.
                      job.req->result = kChunkCorrupt;
                      ++my_failures;
                      continue;
                    }
                    my_checked += checked;
                  } else {
                    std::memcpy(job.req->buf, job.src, static_cast<size_t>(job.size));
                  }
                  job.req->result = job.size;
                  ++my_reads;
                  my_bytes += job.size;
                }
                ok_reads.fetch_add(my_reads, std::memory_order_relaxed);
                ok_bytes.fetch_add(my_bytes, std::memory_order_relaxed);
                checked_bytes.fetch_add(my_checked, std::memory_order_relaxed);
                failures.fetch_add(my_failures, std::memory_order_relaxed);
              });
  total_reads_ += ok_reads.load(std::memory_order_relaxed);
  read_bytes_ += ok_bytes.load(std::memory_order_relaxed);
  crc_checked_bytes_ += checked_bytes.load(std::memory_order_relaxed);
  crc_failures_ += failures.load(std::memory_order_relaxed);
  if (done) {
    done();
  }
}

int64_t MemoryBackend::ChunkSize(const ChunkKey& key) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = chunks_.find(key);
  return it == chunks_.end() ? -1 : static_cast<int64_t>(it->second.size());
}

std::vector<std::pair<ChunkKey, int64_t>> MemoryBackend::ListChunks() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<ChunkKey, int64_t>> out;
  out.reserve(chunks_.size());
  for (const auto& [key, data] : chunks_) {
    out.emplace_back(key, static_cast<int64_t>(data.size()));
  }
  return out;
}

bool MemoryBackend::DeleteChunk(const ChunkKey& key) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = chunks_.find(key);
  if (it == chunks_.end()) {
    return false;
  }
  bytes_stored_ -= static_cast<int64_t>(it->second.size());
  chunks_.erase(it);
  return true;
}

void MemoryBackend::DeleteContext(int64_t context_id) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = chunks_.lower_bound(ChunkKey{context_id, 0, 0});
       it != chunks_.end() && it->first.context_id == context_id;) {
    bytes_stored_ -= static_cast<int64_t>(it->second.size());
    it = chunks_.erase(it);
  }
}

StorageStats MemoryBackend::Stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  StorageStats s;
  s.chunks_stored = static_cast<int64_t>(chunks_.size());
  s.bytes_stored = bytes_stored_;
  s.total_writes = total_writes_;
  s.total_reads = total_reads_;
  s.dram_hits = total_reads_;  // every read is served from DRAM
  s.dram_hit_bytes = read_bytes_;
  s.crc_failures = crc_failures_;
  s.crc_checked_bytes = crc_checked_bytes_;
  return s;
}

}  // namespace hcache
