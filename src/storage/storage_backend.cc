#include "src/storage/storage_backend.h"

#include "src/common/logging.h"

namespace hcache {

StorageBackend::StorageBackend(int64_t chunk_bytes) : chunk_bytes_(chunk_bytes) {
  CHECK_GT(chunk_bytes_, 0);
}

int64_t StorageBackend::ReadChunk(const ChunkKey& key, void* buf,
                                  int64_t buf_bytes) const {
  ChunkReadRequest req{key, buf, buf_bytes, -1};
  ReadChunks({&req, 1});
  return req.result;
}

int64_t StorageBackend::ReadChunkUnverified(const ChunkKey& key, void* buf,
                                            int64_t buf_bytes) const {
  ChunkReadRequest req{key, buf, buf_bytes, -1};
  ReadChunksUnverified({&req, 1});
  return req.result;
}

bool StorageBackend::WriteChunks(std::span<ChunkWriteRequest> requests,
                                 const BatchCompletion& done) {
  bool all_ok = true;
  for (ChunkWriteRequest& req : requests) {
    req.ok = WriteChunk(req.key, req.data, req.bytes);
    all_ok &= req.ok;
  }
  if (done) {
    done();
  }
  return all_ok;
}

}  // namespace hcache
