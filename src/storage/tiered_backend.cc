#include "src/storage/tiered_backend.h"

#include <cstring>

#include "src/common/logging.h"

namespace hcache {

TieredBackend::TieredBackend(StorageBackend* cold, int64_t dram_capacity_bytes)
    : StorageBackend(cold->chunk_bytes()),
      cold_(cold),
      dram_capacity_bytes_(dram_capacity_bytes) {
  CHECK(cold != nullptr);
  CHECK_GE(dram_capacity_bytes_, 0);
}

void TieredBackend::TouchLocked(int64_t context_id) const {
  const auto it = lru_pos_.find(context_id);
  if (it == lru_pos_.end()) {
    lru_.push_back(context_id);
    lru_pos_.emplace(context_id, std::prev(lru_.end()));
  } else {
    lru_.splice(lru_.end(), lru_, it->second);
  }
}

void TieredBackend::ForgetLocked(int64_t context_id) const {
  const auto it = lru_pos_.find(context_id);
  if (it != lru_pos_.end()) {
    lru_.erase(it->second);
    lru_pos_.erase(it);
  }
}

void TieredBackend::InsertHotLocked(const ChunkKey& key, const char* data, int64_t bytes,
                                    bool dirty) const {
  auto& chunk = hot_[key];
  const int64_t delta = bytes - static_cast<int64_t>(chunk.data.size());
  chunk.data.assign(data, data + bytes);
  chunk.dirty = dirty;
  hot_bytes_ += delta;
}

void TieredBackend::EvictToBudgetLocked(std::vector<FlushTicket>* tickets) const {
  while (hot_bytes_ > dram_capacity_bytes_ && !lru_.empty()) {
    const int64_t victim = lru_.front();
    FlushTicket ticket;
    ticket.context_id = victim;
    ticket.counted_eviction = true;
    // Move the victim's chunks out of the hot tier NOW (the LRU decision stays
    // deterministic and the budget is restored immediately); dirty payloads park in
    // the pending map until the evicting caller flushes them with the lock released.
    // Clean chunks already exist in the cold tier and are simply dropped.
    bool held_chunks = false;
    auto it = hot_.lower_bound(ChunkKey{victim, 0, 0});
    while (it != hot_.end() && it->first.context_id == victim) {
      held_chunks = true;
      const int64_t bytes = static_cast<int64_t>(it->second.data.size());
      if (it->second.dirty) {
        const uint64_t gen = ++evict_gen_;
        auto& pending = pending_[it->first];
        pending.data =
            std::make_shared<const std::vector<char>>(std::move(it->second.data));
        pending.gen = gen;
        ticket.chunks.emplace_back(it->first, gen);
      }
      hot_bytes_ -= bytes;
      it = hot_.erase(it);
    }
    ForgetLocked(victim);
    if (held_chunks) {  // an emptied-out LRU entry is not an eviction
      ++stats_.evicted_contexts;
    }
    if (!ticket.chunks.empty()) {
      tickets->push_back(std::move(ticket));
    }
  }
}

void TieredBackend::ClaimContext(std::unique_lock<std::mutex>& lock,
                                 int64_t context_id) const {
  idle_.wait(lock, [&] { return busy_.count(context_id) == 0; });
  busy_.insert(context_id);
}

void TieredBackend::ReleaseContext(int64_t context_id) const {
  {
    std::lock_guard<std::mutex> lock(mu_);
    busy_.erase(context_id);
  }
  idle_.notify_all();
}

void TieredBackend::FlushTickets(const std::vector<FlushTicket>& tickets) const {
  for (const FlushTicket& ticket : tickets) {
    // Snapshot every still-current payload under ONE lock hold, then land the whole
    // ticket in ONE batched cold-tier submission with no lock held — on a striped
    // file cold tier the writes fan out per device instead of trickling one at a
    // time. The claim keeps an older flush of these chunks from landing after ours.
    struct Flush {
      ChunkKey key;
      uint64_t gen = 0;
      std::shared_ptr<const std::vector<char>> data;
    };
    std::vector<Flush> flushes;
    std::vector<ChunkWriteRequest> writes;
    {
      std::unique_lock<std::mutex> lock(mu_);
      ClaimContext(lock, ticket.context_id);
      for (const auto& [key, gen] : ticket.chunks) {
        const auto it = pending_.find(key);
        if (it == pending_.end() || it->second.gen != gen) {
          continue;  // rescued, superseded by a newer write, or deleted
        }
        flushes.push_back(Flush{key, gen, it->second.data});
        writes.push_back(ChunkWriteRequest{key, it->second.data->data(),
                                           static_cast<int64_t>(it->second.data->size()),
                                           /*ok=*/false});
      }
    }
    if (!writes.empty()) {
      cold_->WriteChunks(writes);  // no lock held
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      bool all_ok = true;
      for (size_t i = 0; i < flushes.size(); ++i) {
        const Flush& f = flushes[i];
        const auto it = pending_.find(f.key);
        if (it == pending_.end() || it->second.gen != f.gen) {
          continue;  // superseded while the write was in flight; its bytes moved on
        }
        pending_.erase(it);
        const int64_t bytes = static_cast<int64_t>(f.data->size());
        if (writes[i].ok) {
          ++stats_.writeback_chunks;
          stats_.writeback_bytes += bytes;
          continue;
        }
        all_ok = false;
        HCACHE_LOG_ERROR << "tiered write-back failed: ctx=" << f.key.context_id
                         << " L=" << f.key.layer << " C=" << f.key.chunk_index
                         << "; re-admitting to DRAM";
        InsertHotLocked(f.key, f.data->data(), bytes, /*dirty=*/true);
        TouchLocked(f.key.context_id);
      }
      if (!all_ok) {
        // The context is (at least partially) resident again: the eviction did not
        // stick, so roll its count back (write-through tickets never counted one) and
        // surface the failure instead. Its next eviction retries the flush.
        ++stats_.writeback_failures;
        if (ticket.counted_eviction) {
          --stats_.evicted_contexts;
        }
      }
    }
    ReleaseContext(ticket.context_id);
  }
}

bool TieredBackend::WriteChunk(const ChunkKey& key, const void* data, int64_t bytes) {
  CHECK_GT(bytes, 0);
  CHECK_LE(bytes, chunk_bytes());
  std::vector<FlushTicket> tickets;
  {
    std::lock_guard<std::mutex> lock(mu_);
    // A pending flush of this chunk is superseded: cancel it (a flush already in
    // flight lands before this version's, which waits for its context's claim).
    pending_.erase(key);
    auto& indexed = index_[key];
    stats_.bytes_stored += bytes - indexed.size;
    indexed.size = bytes;
    indexed.gen = ++write_gen_;
    ++stats_.total_writes;
    if (bytes > dram_capacity_bytes_) {
      // A chunk that can never be hot-resident within the budget is flushed straight
      // through (write-through), instead of being admitted and then flushing every
      // other resident on its way back out.
      const auto hot_it = hot_.find(key);
      if (hot_it != hot_.end()) {  // a smaller resident version is superseded
        hot_bytes_ -= static_cast<int64_t>(hot_it->second.data.size());
        hot_.erase(hot_it);
        // If that was the context's last hot chunk, retire its LRU entry too — an
        // empty resident would be popped by a later eviction round as a phantom.
        const auto next = hot_.lower_bound(ChunkKey{key.context_id, 0, 0});
        if (next == hot_.end() || next->first.context_id != key.context_id) {
          ForgetLocked(key.context_id);
        }
      }
      const char* src = static_cast<const char*>(data);
      const uint64_t gen = ++evict_gen_;
      auto& pending = pending_[key];
      pending.data = std::make_shared<const std::vector<char>>(src, src + bytes);
      pending.gen = gen;
      FlushTicket ticket;
      ticket.context_id = key.context_id;
      ticket.chunks.emplace_back(key, gen);
      tickets.push_back(std::move(ticket));
    } else {
      TouchLocked(key.context_id);
      InsertHotLocked(key, static_cast<const char*>(data), bytes, /*dirty=*/true);
      // The chunk is durably in the hot tier at this point; write-back concerns
      // *other* contexts and must not fail this write.
      EvictToBudgetLocked(&tickets);
    }
  }
  FlushTickets(tickets);
  return true;
}

void TieredBackend::ReadChunks(std::span<ChunkReadRequest> requests,
                               const BatchCompletion& done) const {
  struct Miss {
    ChunkReadRequest* req;
    uint64_t read_gen;  // write generation the unlocked cold read will serve
  };
  // Phase 1 — under the lock: serve hot hits and pending-flush rescues, and snapshot
  // each miss's write generation. Short buffers fail with no side effects.
  std::vector<Miss> misses;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (ChunkReadRequest& req : requests) {
      req.result = -1;
      const ChunkKey& key = req.key;
      const auto hot_it = hot_.find(key);
      if (hot_it != hot_.end()) {
        const int64_t size = static_cast<int64_t>(hot_it->second.data.size());
        if (size > req.buf_bytes) {
          continue;
        }
        std::memcpy(req.buf, hot_it->second.data.data(), static_cast<size_t>(size));
        TouchLocked(key.context_id);
        ++stats_.total_reads;
        ++stats_.dram_hits;
        stats_.dram_hit_bytes += size;
        req.result = size;
        continue;
      }
      const auto pit = pending_.find(key);
      if (pit != pending_.end()) {
        // Rescue: the chunk was evicted but its flush has not retired — the payload
        // is still in DRAM, so serve it from the pending map (a DRAM hit). Re-admit
        // it (still dirty; its pending flush is cancelled by the erase) only when it
        // fits the budget's FREE space: a rescue must never trigger an eviction, or
        // alternating reads of a context bigger than the budget would cycle
        // rescue→re-admit→evict→re-flush and double the cold-tier write IO.
        const std::shared_ptr<const std::vector<char>> data = pit->second.data;
        const int64_t size = static_cast<int64_t>(data->size());
        if (size > req.buf_bytes) {
          continue;
        }
        std::memcpy(req.buf, data->data(), static_cast<size_t>(size));
        ++stats_.total_reads;
        ++stats_.dram_hits;
        stats_.dram_hit_bytes += size;
        ++stats_.drain_rescued_chunks;
        if (size <= dram_capacity_bytes_ - hot_bytes_) {
          pending_.erase(pit);
          InsertHotLocked(key, data->data(), size, /*dirty=*/true);
          TouchLocked(key.context_id);
        }
        req.result = size;
        continue;
      }
      const auto iit = index_.find(key);
      if (iit == index_.end() || iit->second.size > req.buf_bytes) {
        continue;  // absent or short buffer: no IO, no stats, no side effects
      }
      misses.push_back(Miss{&req, iit->second.gen});
    }
  }
  if (!misses.empty()) {
    // Phase 2 — lock released: ONE batched cold round trip for all misses, reading
    // straight into the callers' buffers. Other contexts — and other chunks of
    // these — proceed concurrently.
    std::vector<ChunkReadRequest> cold_reqs;
    cold_reqs.reserve(misses.size());
    for (const Miss& m : misses) {
      cold_reqs.push_back(ChunkReadRequest{m.req->key, m.req->buf, m.req->buf_bytes,
                                           /*result=*/-1});
    }
    cold_->ReadChunks(cold_reqs);
    // Phase 3 — under the lock again: stats, then clean promotion — a restored
    // context is likely to be restored again soon (the §6.2.1 caching argument), and
    // a clean chunk re-evicts for free. Promotion is skipped when the chunk can never
    // fit the budget (a 0-budget write-through tier would otherwise evict-and-churn on
    // every read), or when the bytes read are stale: a concurrent write bumps the
    // index generation (even if its own copy has already been flushed to the cold
    // tier), and a delete removes the entry — either way this copy must not be
    // re-admitted over newer durable data. One eviction pass; tickets flushed after
    // release.
    std::vector<FlushTicket> tickets;
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (size_t i = 0; i < misses.size(); ++i) {
        ChunkReadRequest& req = *misses[i].req;
        const int64_t got = cold_reqs[i].result;
        if (got == kChunkCorrupt) {
          // Detected at the cold tier: surface the distinct status (the chunk EXISTS,
          // callers must fall back to recompute, not re-read); never promote damage.
          req.result = kChunkCorrupt;
          ++stats_.crc_failures;
          continue;
        }
        if (got < 0) {
          continue;  // vanished from the cold tier too (deleted mid-flight)
        }
        ++stats_.total_reads;
        ++stats_.cold_hits;
        stats_.cold_hit_bytes += got;
        req.result = got;
        const auto iit = index_.find(req.key);
        const bool current = iit != index_.end() && iit->second.gen == misses[i].read_gen;
        const bool displaced = hot_.count(req.key) != 0 || pending_.count(req.key) != 0;
        if (current && !displaced) {
          if (got <= dram_capacity_bytes_) {
            InsertHotLocked(req.key, static_cast<const char*>(req.buf), got,
                            /*dirty=*/false);
            TouchLocked(req.key.context_id);
          } else {
            ++stats_.promotions_skipped;
          }
        }
      }
      EvictToBudgetLocked(&tickets);
    }
    FlushTickets(tickets);
  }
  if (done) {
    done();
  }
}

int64_t TieredBackend::ChunkSize(const ChunkKey& key) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = index_.find(key);
  return it == index_.end() ? -1 : it->second.size;
}

void TieredBackend::DeleteContext(int64_t context_id) {
  {
    std::unique_lock<std::mutex> lock(mu_);
    // The claim waits out an in-flight flush of this context (it would re-create a
    // chunk in the cold tier after our delete) and holds off later flushes until the
    // cold delete is done (it would remove their chunks).
    ClaimContext(lock, context_id);
    for (auto it = hot_.lower_bound(ChunkKey{context_id, 0, 0});
         it != hot_.end() && it->first.context_id == context_id;) {
      hot_bytes_ -= static_cast<int64_t>(it->second.data.size());
      it = hot_.erase(it);
    }
    for (auto it = pending_.lower_bound(ChunkKey{context_id, 0, 0});
         it != pending_.end() && it->first.context_id == context_id;) {
      it = pending_.erase(it);
    }
    ForgetLocked(context_id);
    for (auto it = index_.lower_bound(ChunkKey{context_id, 0, 0});
         it != index_.end() && it->first.context_id == context_id;) {
      stats_.bytes_stored -= it->second.size;
      it = index_.erase(it);
    }
  }
  cold_->DeleteContext(context_id);
  ReleaseContext(context_id);
}

std::vector<std::pair<ChunkKey, int64_t>> TieredBackend::ListChunks() const {
  std::vector<std::pair<ChunkKey, int64_t>> out;
  std::lock_guard<std::mutex> lock(mu_);
  out.reserve(index_.size());
  for (const auto& [key, entry] : index_) {
    out.emplace_back(key, entry.size);
  }
  return out;
}

void TieredBackend::ReadChunksUnverified(std::span<ChunkReadRequest> requests,
                                         const BatchCompletion& done) const {
  // DRAM hits are trusted and a verified cold hit is already vetted, so only the
  // requests the cold tier rejected as corrupt need its unverified bytes.
  ReadChunks(requests);
  std::vector<ChunkReadRequest> corrupt;
  std::vector<ChunkReadRequest*> origin;
  for (ChunkReadRequest& req : requests) {
    if (req.result == kChunkCorrupt) {
      corrupt.push_back(ChunkReadRequest{req.key, req.buf, req.buf_bytes, -1});
      origin.push_back(&req);
    }
  }
  if (!corrupt.empty()) {
    cold_->ReadChunksUnverified(corrupt);
    for (size_t i = 0; i < corrupt.size(); ++i) {
      origin[i]->result = corrupt[i].result;
    }
  }
  if (done) {
    done();
  }
}

bool TieredBackend::DeleteChunk(const ChunkKey& key) {
  bool was_indexed = false;
  {
    std::unique_lock<std::mutex> lock(mu_);
    ClaimContext(lock, key.context_id);  // same rule as DeleteContext
    const auto hot_it = hot_.find(key);
    if (hot_it != hot_.end()) {
      hot_bytes_ -= static_cast<int64_t>(hot_it->second.data.size());
      hot_.erase(hot_it);
    }
    pending_.erase(key);
    const auto iit = index_.find(key);
    if (iit != index_.end()) {
      stats_.bytes_stored -= iit->second.size;
      index_.erase(iit);
      was_indexed = true;
    }
  }
  const bool cold_deleted = cold_->DeleteChunk(key);
  ReleaseContext(key.context_id);
  return was_indexed || cold_deleted;
}

int64_t TieredBackend::dram_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return hot_bytes_;
}

bool TieredBackend::IsDramResident(const ChunkKey& key) const {
  std::lock_guard<std::mutex> lock(mu_);
  return hot_.count(key) != 0;
}

bool TieredBackend::IsFlushPending(const ChunkKey& key) const {
  std::lock_guard<std::mutex> lock(mu_);
  return pending_.count(key) != 0;
}

StorageStats TieredBackend::Stats() const {
  StorageStats s;
  {
    std::lock_guard<std::mutex> lock(mu_);  // one consistent snapshot of this tier
    s = stats_;
    s.chunks_stored = static_cast<int64_t>(index_.size());
  }
  // This tier's crc_failures counts the cold rejections it propagated (DRAM bytes
  // are trusted); the cold backend is where payloads are actually CRC-checked, so
  // surface its verified-byte figure as the stack's.
  const StorageStats cold = cold_->Stats();
  s.crc_checked_bytes = cold.crc_checked_bytes;
  // Same pattern for the dedup plane: when the cold tier is content-addressed its
  // sharing figures are the stack's.
  s.dedup_hits = cold.dedup_hits;
  s.dedup_bytes_saved = cold.dedup_bytes_saved;
  s.unique_chunks = cold.unique_chunks;
  return s;
}

}  // namespace hcache
