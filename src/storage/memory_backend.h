// DRAM-resident storage backend — the paper's host-memory tier (§6.2.1, the cloud
// -server configuration where hidden states live in pinned host DRAM), and the fast
// backend for tests. Also serves as TieredBackend's hot tier building block.
#ifndef HCACHE_SRC_STORAGE_MEMORY_BACKEND_H_
#define HCACHE_SRC_STORAGE_MEMORY_BACKEND_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "src/storage/storage_backend.h"

namespace hcache {

class MemoryBackend : public StorageBackend {
 public:
  explicit MemoryBackend(int64_t chunk_bytes);

  bool WriteChunk(const ChunkKey& key, const void* data, int64_t bytes) override;
  // Batched read: one lock acquisition resolves the whole batch (N serial calls pay
  // N lock round trips); large batches work-share the memcpys across the pool.
  void ReadChunks(std::span<ChunkReadRequest> requests,
                  const BatchCompletion& done = {}) const override;
  void ReadChunksUnverified(std::span<ChunkReadRequest> requests,
                            const BatchCompletion& done = {}) const override;
  int64_t ChunkSize(const ChunkKey& key) const override;
  void DeleteContext(int64_t context_id) override;
  std::vector<std::pair<ChunkKey, int64_t>> ListChunks() const override;
  bool DeleteChunk(const ChunkKey& key) override;
  StorageStats Stats() const override;
  std::string Name() const override { return "memory"; }

 private:
  // Shared body of the verified and unverified read paths.
  void ReadChunksImpl(std::span<ChunkReadRequest> requests, const BatchCompletion& done,
                      bool verify) const;

  mutable std::mutex mu_;
  std::map<ChunkKey, std::vector<char>> chunks_;
  int64_t bytes_stored_ = 0;
  int64_t total_writes_ = 0;
  mutable int64_t total_reads_ = 0;
  mutable int64_t read_bytes_ = 0;
  mutable int64_t crc_failures_ = 0;
  mutable int64_t crc_checked_bytes_ = 0;
};

}  // namespace hcache

#endif  // HCACHE_SRC_STORAGE_MEMORY_BACKEND_H_
