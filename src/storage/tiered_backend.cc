#include "src/storage/tiered_backend.h"

#include <algorithm>
#include <cstring>

#include "src/common/logging.h"

namespace hcache {

namespace {

int AutoShards(int64_t capacity_bytes, int64_t chunk_bytes) {
  const int64_t stripes = capacity_bytes / (8 * chunk_bytes);
  return static_cast<int>(std::clamp<int64_t>(stripes, 1, 16));
}

}  // namespace

TieredBackend::TieredBackend(StorageBackend* cold, int64_t dram_capacity_bytes,
                             const TieredOptions& options)
    : StorageBackend(cold->chunk_bytes()),
      cold_(cold),
      dram_capacity_bytes_(dram_capacity_bytes) {
  CHECK(cold != nullptr);
  CHECK_GE(dram_capacity_bytes_, 0);
  const int num_shards = options.num_shards > 0
                             ? options.num_shards
                             : AutoShards(dram_capacity_bytes_, chunk_bytes());
  shards_.reserve(static_cast<size_t>(num_shards));
  const int64_t base = dram_capacity_bytes_ / num_shards;
  const int64_t rem = dram_capacity_bytes_ % num_shards;
  for (int i = 0; i < num_shards; ++i) {
    auto shard = std::make_unique<Shard>();
    shard->capacity = base + (i < rem ? 1 : 0);
    shards_.push_back(std::move(shard));
  }
}

void TieredBackend::TouchLocked(Shard& shard, int64_t context_id) const {
  auto it = shard.contexts.find(context_id);
  if (it == shard.contexts.end()) {
    shard.lru.push_back(context_id);
    shard.contexts[context_id] = ContextLru{std::prev(shard.lru.end())};
  } else {
    shard.lru.splice(shard.lru.end(), shard.lru, it->second.lru_pos);
  }
}

void TieredBackend::InsertHotLocked(Shard& shard, const ChunkKey& key, const char* data,
                                    int64_t bytes, bool dirty) const {
  auto& chunk = shard.hot[key];
  const int64_t delta = bytes - static_cast<int64_t>(chunk.data.size());
  chunk.data.assign(data, data + bytes);
  chunk.dirty = dirty;
  shard.hot_bytes += delta;
}

void TieredBackend::EvictToBudgetLocked(Shard& shard,
                                        std::vector<FlushTicket>* tickets) const {
  while (shard.hot_bytes > shard.capacity && !shard.lru.empty()) {
    const int64_t victim = shard.lru.front();
    FlushTicket ticket;
    ticket.context_id = victim;
    ticket.shard = ShardOf(victim);
    ticket.counted_eviction = true;
    // Move the victim's chunks out of the hot tier NOW (the LRU decision stays
    // deterministic and the budget is restored immediately); dirty payloads park in
    // the pending map until the evicting caller flushes them with no shard lock
    // held. Clean chunks already exist in the cold tier and are simply dropped.
    bool held_chunks = false;
    auto it = shard.hot.lower_bound(ChunkKey{victim, 0, 0});
    while (it != shard.hot.end() && it->first.context_id == victim) {
      held_chunks = true;
      const int64_t bytes = static_cast<int64_t>(it->second.data.size());
      if (it->second.dirty) {
        const uint64_t gen = ++evict_gen_;
        auto& pending = shard.pending[it->first];
        pending.data =
            std::make_shared<const std::vector<char>>(std::move(it->second.data));
        pending.gen = gen;
        ticket.chunks.emplace_back(it->first, gen);
      }
      shard.hot_bytes -= bytes;
      it = shard.hot.erase(it);
    }
    shard.lru.pop_front();
    shard.contexts.erase(victim);
    if (held_chunks) {  // an emptied-out LRU entry is not an eviction
      ++evicted_contexts_;
    }
    if (!ticket.chunks.empty()) {
      tickets->push_back(std::move(ticket));
    }
  }
}

void TieredBackend::ClaimContext(Shard& shard, std::unique_lock<std::mutex>& lock,
                                 int64_t context_id) {
  shard.idle.wait(lock, [&] { return shard.busy.count(context_id) == 0; });
  shard.busy.insert(context_id);
}

void TieredBackend::ReleaseContext(Shard& shard, int64_t context_id) {
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    shard.busy.erase(context_id);
  }
  shard.idle.notify_all();
}

void TieredBackend::FlushTickets(const std::vector<FlushTicket>& tickets) const {
  for (const FlushTicket& ticket : tickets) {
    Shard& shard = *shards_[ticket.shard];
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
      std::unique_lock<std::mutex> lock(shard.mu);
      ClaimContext(shard, lock, ticket.context_id);
      for (const auto& [key, gen] : ticket.chunks) {
        const auto it = shard.pending.find(key);
        if (it == shard.pending.end() || it->second.gen != gen) {
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
    bool all_ok = true;
    {
      std::lock_guard<std::mutex> lock(shard.mu);
      for (size_t i = 0; i < flushes.size(); ++i) {
        const Flush& f = flushes[i];
        const auto it = shard.pending.find(f.key);
        if (it == shard.pending.end() || it->second.gen != f.gen) {
          continue;  // superseded while the write was in flight; its bytes moved on
        }
        shard.pending.erase(it);
        const int64_t bytes = static_cast<int64_t>(f.data->size());
        if (writes[i].ok) {
          ++writeback_chunks_;
          writeback_bytes_ += bytes;
          continue;
        }
        all_ok = false;
        HCACHE_LOG_ERROR << "tiered write-back failed: ctx=" << f.key.context_id
                         << " L=" << f.key.layer << " C=" << f.key.chunk_index
                         << "; re-admitting to DRAM";
        InsertHotLocked(shard, f.key, f.data->data(), bytes, /*dirty=*/true);
        TouchLocked(shard, f.key.context_id);
      }
    }
    ReleaseContext(shard, ticket.context_id);
    if (!all_ok) {
      // The context is (at least partially) resident again: the eviction did not
      // stick, so roll its count back (write-through tickets never counted one) and
      // surface the failure instead. Its next eviction retries the flush.
      ++writeback_failures_;
      if (ticket.counted_eviction) {
        --evicted_contexts_;
      }
    }
  }
}

bool TieredBackend::WriteChunk(const ChunkKey& key, const void* data, int64_t bytes) {
  CHECK_GT(bytes, 0);
  CHECK_LE(bytes, chunk_bytes());
  Shard& shard = *shards_[ShardOf(key.context_id)];
  std::vector<FlushTicket> tickets;
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    // A pending flush of this chunk is superseded: cancel it (a flush already in
    // flight lands before this version's, which waits for its context's claim).
    shard.pending.erase(key);
    auto& indexed = shard.index[key];
    shard.bytes_stored += bytes - indexed.size;
    indexed.size = bytes;
    indexed.gen = ++write_gen_;
    ++total_writes_;
    if (bytes > shard.capacity) {
      // A chunk that can never be hot-resident within its stripe's share is flushed
      // straight through (write-through), instead of being admitted and
      // then flushing every other resident of the stripe on its way back out.
      const auto hot_it = shard.hot.find(key);
      if (hot_it != shard.hot.end()) {  // a smaller resident version is superseded
        shard.hot_bytes -= static_cast<int64_t>(hot_it->second.data.size());
        shard.hot.erase(hot_it);
        // If that was the context's last hot chunk, retire its LRU entry too — an
        // empty resident would be popped by a later eviction round as a phantom.
        const auto next = shard.hot.lower_bound(ChunkKey{key.context_id, 0, 0});
        if (next == shard.hot.end() || next->first.context_id != key.context_id) {
          const auto ctx_it = shard.contexts.find(key.context_id);
          if (ctx_it != shard.contexts.end()) {
            shard.lru.erase(ctx_it->second.lru_pos);
            shard.contexts.erase(ctx_it);
          }
        }
      }
      const char* src = static_cast<const char*>(data);
      const uint64_t gen = ++evict_gen_;
      auto& pending = shard.pending[key];
      pending.data = std::make_shared<const std::vector<char>>(src, src + bytes);
      pending.gen = gen;
      FlushTicket ticket;
      ticket.context_id = key.context_id;
      ticket.shard = ShardOf(key.context_id);
      ticket.chunks.emplace_back(key, gen);
      tickets.push_back(std::move(ticket));
    } else {
      TouchLocked(shard, key.context_id);
      InsertHotLocked(shard, key, static_cast<const char*>(data), bytes,
                      /*dirty=*/true);
      // The chunk is durably in the hot tier at this point; write-back concerns
      // *other* contexts and must not fail this write.
      EvictToBudgetLocked(shard, &tickets);
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
  std::vector<std::vector<ChunkReadRequest*>> by_shard(shards_.size());
  for (ChunkReadRequest& req : requests) {
    req.result = -1;
    by_shard[ShardOf(req.key.context_id)].push_back(&req);
  }
  // Phase 1 — per shard, under that shard's lock: serve hot hits and pending-flush
  // rescues, and snapshot each miss's write generation. Short buffers fail with no
  // side effects.
  std::vector<std::vector<Miss>> miss_by_shard(shards_.size());
  size_t num_misses = 0;
  for (size_t s = 0; s < shards_.size(); ++s) {
    if (by_shard[s].empty()) {
      continue;
    }
    Shard& shard = *shards_[s];
    std::lock_guard<std::mutex> lock(shard.mu);
    for (ChunkReadRequest* req : by_shard[s]) {
      const ChunkKey& key = req->key;
      const auto hot_it = shard.hot.find(key);
      if (hot_it != shard.hot.end()) {
        const int64_t size = static_cast<int64_t>(hot_it->second.data.size());
        if (size > req->buf_bytes) {
          continue;
        }
        std::memcpy(req->buf, hot_it->second.data.data(), static_cast<size_t>(size));
        TouchLocked(shard, key.context_id);
        ++total_reads_;
        ++dram_hits_;
        dram_hit_bytes_ += size;
        req->result = size;
        continue;
      }
      const auto pit = shard.pending.find(key);
      if (pit != shard.pending.end()) {
        // Rescue: the chunk was evicted but its flush has not retired — the payload
        // is still in DRAM, so serve it from the pending map (a DRAM hit). Re-admit
        // it (still dirty; its pending flush is cancelled by the erase) only
        // when it fits the stripe's FREE space: a rescue must never trigger an
        // eviction, or alternating reads of a context bigger than its stripe would
        // cycle rescue→re-admit→evict→re-flush and double the cold-tier write IO.
        const std::shared_ptr<const std::vector<char>> data = pit->second.data;
        const int64_t size = static_cast<int64_t>(data->size());
        if (size > req->buf_bytes) {
          continue;
        }
        std::memcpy(req->buf, data->data(), static_cast<size_t>(size));
        ++total_reads_;
        ++dram_hits_;
        dram_hit_bytes_ += size;
        ++drain_rescued_chunks_;
        if (size <= shard.capacity - shard.hot_bytes) {
          shard.pending.erase(pit);
          InsertHotLocked(shard, key, data->data(), size, /*dirty=*/true);
          TouchLocked(shard, key.context_id);
        }
        req->result = size;
        continue;
      }
      const auto iit = shard.index.find(key);
      if (iit == shard.index.end() || iit->second.size > req->buf_bytes) {
        continue;  // absent or short buffer: no IO, no stats, no side effects
      }
      miss_by_shard[s].push_back(Miss{req, iit->second.gen});
      ++num_misses;
    }
  }
  if (num_misses > 0) {
    // Phase 2 — every shard lock released: ONE batched cold round trip for all
    // misses, reading straight into the callers' buffers. Other contexts — and
    // other chunks of these — proceed concurrently.
    std::vector<ChunkReadRequest> cold_reqs;
    cold_reqs.reserve(num_misses);
    for (const auto& misses : miss_by_shard) {
      for (const Miss& m : misses) {
        cold_reqs.push_back(ChunkReadRequest{m.req->key, m.req->buf, m.req->buf_bytes,
                                             /*result=*/-1});
      }
    }
    cold_->ReadChunks(cold_reqs);
    // Phase 3 — per shard, under the lock again: stats, then clean promotion — a
    // restored context is likely to be restored again soon (the §6.2.1 caching
    // argument), and a clean chunk re-evicts for free. Promotion is skipped when the
    // chunk can never fit its stripe's budget (a 0-budget write-through tier would
    // otherwise evict-and-churn on every read), or when the bytes read are stale: a
    // concurrent write bumps the index generation (even if its own copy has already
    // been flushed to the cold tier), and a delete removes the entry — either way
    // this copy must not be re-admitted over newer durable data. One eviction pass
    // per shard; tickets flushed after release.
    std::vector<FlushTicket> tickets;
    size_t j = 0;
    for (size_t s = 0; s < shards_.size(); ++s) {
      if (miss_by_shard[s].empty()) {
        continue;
      }
      Shard& shard = *shards_[s];
      std::lock_guard<std::mutex> lock(shard.mu);
      for (const Miss& m : miss_by_shard[s]) {
        const int64_t got = cold_reqs[j++].result;
        if (got == kChunkCorrupt) {
          // Detected at the cold tier: surface the distinct status (the chunk EXISTS,
          // callers must fall back to recompute, not re-read); never promote damage.
          m.req->result = kChunkCorrupt;
          ++crc_failures_;
          continue;
        }
        if (got < 0) {
          continue;  // vanished from the cold tier too (deleted mid-flight)
        }
        ++total_reads_;
        ++cold_hits_;
        cold_hit_bytes_ += got;
        m.req->result = got;
        const auto iit = shard.index.find(m.req->key);
        const bool current = iit != shard.index.end() && iit->second.gen == m.read_gen;
        const bool displaced =
            shard.hot.count(m.req->key) != 0 || shard.pending.count(m.req->key) != 0;
        if (current && !displaced) {
          if (got <= shard.capacity) {
            InsertHotLocked(shard, m.req->key, static_cast<const char*>(m.req->buf),
                            got, /*dirty=*/false);
            TouchLocked(shard, m.req->key.context_id);
          } else {
            ++promotions_skipped_;
          }
        }
      }
      EvictToBudgetLocked(shard, &tickets);
    }
    FlushTickets(tickets);
  }
  if (done) {
    done();
  }
}

int64_t TieredBackend::ChunkSize(const ChunkKey& key) const {
  Shard& shard = *shards_[ShardOf(key.context_id)];
  std::lock_guard<std::mutex> lock(shard.mu);
  const auto it = shard.index.find(key);
  return it == shard.index.end() ? -1 : it->second.size;
}

void TieredBackend::DeleteContext(int64_t context_id) {
  Shard& shard = *shards_[ShardOf(context_id)];
  {
    std::unique_lock<std::mutex> lock(shard.mu);
    // The claim waits out an in-flight flush of this context (it would re-create a
    // chunk in the cold tier after our delete) and holds off later flushes until the
    // cold delete is done (it would remove their chunks).
    ClaimContext(shard, lock, context_id);
    for (auto it = shard.hot.lower_bound(ChunkKey{context_id, 0, 0});
         it != shard.hot.end() && it->first.context_id == context_id;) {
      shard.hot_bytes -= static_cast<int64_t>(it->second.data.size());
      it = shard.hot.erase(it);
    }
    for (auto it = shard.pending.lower_bound(ChunkKey{context_id, 0, 0});
         it != shard.pending.end() && it->first.context_id == context_id;) {
      it = shard.pending.erase(it);
    }
    const auto ctx_it = shard.contexts.find(context_id);
    if (ctx_it != shard.contexts.end()) {
      shard.lru.erase(ctx_it->second.lru_pos);
      shard.contexts.erase(ctx_it);
    }
    for (auto it = shard.index.lower_bound(ChunkKey{context_id, 0, 0});
         it != shard.index.end() && it->first.context_id == context_id;) {
      shard.bytes_stored -= it->second.size;
      it = shard.index.erase(it);
    }
  }
  cold_->DeleteContext(context_id);
  ReleaseContext(shard, context_id);
}

std::vector<std::pair<ChunkKey, int64_t>> TieredBackend::ListChunks() const {
  std::vector<std::pair<ChunkKey, int64_t>> out;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    for (const auto& [key, entry] : shard->index) {
      out.emplace_back(key, entry.size);
    }
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
  Shard& shard = *shards_[ShardOf(key.context_id)];
  bool was_indexed = false;
  {
    std::unique_lock<std::mutex> lock(shard.mu);
    ClaimContext(shard, lock, key.context_id);  // same rule as DeleteContext
    const auto hot_it = shard.hot.find(key);
    if (hot_it != shard.hot.end()) {
      shard.hot_bytes -= static_cast<int64_t>(hot_it->second.data.size());
      shard.hot.erase(hot_it);
    }
    shard.pending.erase(key);
    const auto iit = shard.index.find(key);
    if (iit != shard.index.end()) {
      shard.bytes_stored -= iit->second.size;
      shard.index.erase(iit);
      was_indexed = true;
    }
  }
  const bool cold_deleted = cold_->DeleteChunk(key);
  ReleaseContext(shard, key.context_id);
  return was_indexed || cold_deleted;
}

int64_t TieredBackend::dram_bytes() const {
  int64_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    total += shard->hot_bytes;
  }
  return total;
}

bool TieredBackend::IsDramResident(const ChunkKey& key) const {
  Shard& shard = *shards_[ShardOf(key.context_id)];
  std::lock_guard<std::mutex> lock(shard.mu);
  return shard.hot.count(key) != 0;
}

bool TieredBackend::IsFlushPending(const ChunkKey& key) const {
  Shard& shard = *shards_[ShardOf(key.context_id)];
  std::lock_guard<std::mutex> lock(shard.mu);
  return shard.pending.count(key) != 0;
}

StorageStats TieredBackend::Stats() const {
  StorageStats s;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    s.chunks_stored += static_cast<int64_t>(shard->index.size());
    s.bytes_stored += shard->bytes_stored;
  }
  s.total_writes = total_writes_.load();
  s.total_reads = total_reads_.load();
  s.dram_hits = dram_hits_.load();
  s.cold_hits = cold_hits_.load();
  s.dram_hit_bytes = dram_hit_bytes_.load();
  s.cold_hit_bytes = cold_hit_bytes_.load();
  s.evicted_contexts = evicted_contexts_.load();
  s.writeback_chunks = writeback_chunks_.load();
  s.writeback_bytes = writeback_bytes_.load();
  s.drain_rescued_chunks = drain_rescued_chunks_.load();
  s.writeback_failures = writeback_failures_.load();
  s.promotions_skipped = promotions_skipped_.load();
  // This tier's crc_failures_ counts the cold rejections it propagated (DRAM bytes
  // are trusted); the cold backend is where payloads are actually CRC-checked, so
  // surface its verified-byte figure as the stack's.
  s.crc_failures = crc_failures_.load();
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
