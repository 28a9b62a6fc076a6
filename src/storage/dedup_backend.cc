#include "src/storage/dedup_backend.h"

#include <cstring>
#include <optional>
#include <utility>

#include "src/common/logging.h"
#include "src/storage/codec_simd.h"

namespace hcache {

namespace {

// splitmix64 finalizer — full-avalanche 64-bit mix.
inline uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// One 64-bit multiply-mix lane over the payload: 8-byte little-endian words through
// a seeded multiply-xorshift accumulator, scalar tail folded in by byte. Two lanes
// with independent seeds give 128 effectively independent bits on non-adversarial
// data (and the byte compare on every dedup hit covers the adversarial case).
uint64_t HashLane(const uint8_t* p, int64_t n, uint64_t seed) {
  uint64_t h = Mix64(seed ^ static_cast<uint64_t>(n));
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    uint64_t w;
    std::memcpy(&w, p + i, sizeof(w));
    h = Mix64(h ^ w);
  }
  uint64_t tail = 0;
  for (int64_t j = i; j < n; ++j) {
    tail = (tail << 8) | p[j];
  }
  return Mix64(h ^ tail);
}

}  // namespace

ContentHash HashChunkContent(const void* data, int64_t bytes) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  // The CRC rides the SIMD dispatch tiers (crc32q on SSE4.2+, table fallback) and
  // contributes 32 bits the multiply lanes cannot produce (different algebra).
  const uint32_t crc = Crc32c(data, bytes);
  ContentHash h;
  h.hi = HashLane(p, bytes, 0xa5b35705c91f3e41ull) ^ (static_cast<uint64_t>(crc) << 32);
  h.lo = HashLane(p, bytes, 0x27d4eb2f165667c5ull) ^ static_cast<uint64_t>(bytes);
  return h;
}

ChunkKey DedupBackend::PhysicalKey(const PhysId& id) {
  // The wrapped backend's whole key namespace is ours; spread the 128 hash bits over
  // (context_id, chunk_index) and keep the collision-chain slot in layer. Hash bits in
  // chunk_index stripe physical chunks across a FileBackend's devices (it places a
  // chunk on device chunk_index % devices; the chain slot is 0 for nearly every
  // chunk). The sign bit is masked off both hash fields — file-backed stores name
  // segments after context ids, and negative ids would be needlessly ugly there.
  return ChunkKey{static_cast<int64_t>(id.hash.hi & 0x7fffffffffffffffull), id.chain,
                  static_cast<int64_t>(id.hash.lo & 0x7fffffffffffffffull)};
}

DedupBackend::DedupBackend(StorageBackend* base)
    : StorageBackend(base->chunk_bytes()), base_(base) {
  CHECK(base != nullptr);
}

DedupBackend::~DedupBackend() = default;

void DedupBackend::MaybeDeletePhysicalLocked(std::unique_lock<std::mutex>& lock,
                                             const PhysId& id) {
  auto it = phys_.find(id);
  if (it == phys_.end() || it->second.refs > 0 || it->second.pins > 0 ||
      it->second.state != PhysState::kReady) {
    return;
  }
  it->second.state = PhysState::kDeleting;
  const int64_t bytes = it->second.bytes;
  const ChunkKey pkey = PhysicalKey(id);
  lock.unlock();  // never hold the index lock across wrapped-backend IO
  base_->DeleteChunk(pkey);
  lock.lock();
  it = phys_.find(id);
  CHECK(it != phys_.end() && it->second.state == PhysState::kDeleting);
  phys_.erase(it);
  physical_bytes_ -= bytes;
  cv_.notify_all();
}

void DedupBackend::DecrefLocked(std::unique_lock<std::mutex>& lock, const PhysId& id) {
  auto it = phys_.find(id);
  CHECK(it != phys_.end());
  CHECK_GT(it->second.refs, 0);
  --it->second.refs;
  MaybeDeletePhysicalLocked(lock, id);
}

void DedupBackend::UnpinLocked(std::unique_lock<std::mutex>& lock, const PhysId& id) {
  auto it = phys_.find(id);
  CHECK(it != phys_.end());
  CHECK_GT(it->second.pins, 0);
  --it->second.pins;
  MaybeDeletePhysicalLocked(lock, id);
}

bool DedupBackend::WriteChunk(const ChunkKey& key, const void* data, int64_t bytes) {
  CHECK_GT(bytes, 0);
  CHECK_LE(bytes, chunk_bytes());
  const ContentHash hash = content_hash_for_test_ ? content_hash_for_test_(data, bytes)
                                                  : HashChunkContent(data, bytes);

  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    // Walk the collision chain for this hash, re-seating the map iterator by chain
    // slot after any section that drops the lock (the verify read invalidates
    // iterators). Entries mid-publish or mid-delete are waited out (bounded by one
    // wrapped-backend IO) so two concurrent writers of the same new content
    // converge on one physical copy.
    bool must_wait = false;
    bool rescan = false;
    std::optional<PhysId> match;
    int64_t next_chain = 0;
    for (;;) {
      const auto it = phys_.lower_bound(PhysId{hash, next_chain});
      if (it == phys_.end() || it->first.hash != hash) {
        break;
      }
      const PhysId id = it->first;
      next_chain = id.chain + 1;
      PhysEntry& entry = it->second;
      if (entry.state != PhysState::kReady) {
        must_wait = true;
        continue;
      }
      if (entry.bytes != bytes) {
        continue;  // same hash, different size: a collision by construction
      }
      // Pin the candidate and compare bytes outside the lock. A mismatch is a
      // true 128-bit collision: chain past it instead of aliasing.
      ++entry.pins;
      lock.unlock();
      std::vector<uint8_t> stored(static_cast<size_t>(bytes));
      const int64_t got = base_->ReadChunkUnverified(PhysicalKey(id), stored.data(), bytes);
      const bool same =
          got == bytes && std::memcmp(stored.data(), data, static_cast<size_t>(bytes)) == 0;
      lock.lock();
      UnpinLocked(lock, id);
      if (phys_.find(id) == phys_.end()) {
        rescan = true;  // candidate vanished while we compared; restart the walk
        break;
      }
      if (!same) {
        ++collision_chains_;
        continue;
      }
      match = id;
      break;
    }
    if (rescan) {
      continue;
    }
    if (match) {
      ++total_writes_;
      ++dedup_hits_;
      dedup_bytes_saved_ += bytes;
      const auto [old, inserted] = logical_.try_emplace(key, LogicalEntry{*match, bytes});
      if (inserted) {
        ++phys_.at(*match).refs;
        logical_bytes_ += bytes;
      } else if (old->second.phys != *match) {
        ++phys_.at(*match).refs;
        logical_bytes_ += bytes - old->second.bytes;
        const PhysId prev = old->second.phys;
        old->second = LogicalEntry{*match, bytes};
        DecrefLocked(lock, prev);
      }
      // Else a re-write of identical content at the same key: refcounts unchanged.
      return true;
    }
    if (must_wait) {
      cv_.wait(lock);
      continue;
    }

    // First copy of this content: claim a chain slot, publish outside the lock.
    const PhysId id{hash, next_chain};
    PhysEntry fresh;
    fresh.bytes = bytes;
    fresh.refs = 1;
    fresh.state = PhysState::kWriting;
    CHECK(phys_.emplace(id, fresh).second);
    lock.unlock();
    const bool ok = base_->WriteChunk(PhysicalKey(id), data, bytes);
    lock.lock();
    auto it = phys_.find(id);
    CHECK(it != phys_.end());
    if (!ok) {
      // Failed IO: withdraw the claim; any prior mapping at `key` stays intact
      // (WriteChunk's contract only promises the old chunk survives a failed
      // overwrite attempt).
      phys_.erase(it);
      cv_.notify_all();
      return false;
    }
    it->second.state = PhysState::kReady;
    physical_bytes_ += bytes;
    auto old = logical_.find(key);
    if (old != logical_.end()) {
      logical_bytes_ -= old->second.bytes;
      const PhysId prev = old->second.phys;
      old->second = LogicalEntry{id, bytes};
      logical_bytes_ += bytes;
      ++total_writes_;
      cv_.notify_all();
      DecrefLocked(lock, prev);
      return true;
    }
    logical_[key] = LogicalEntry{id, bytes};
    logical_bytes_ += bytes;
    ++total_writes_;
    cv_.notify_all();
    return true;
  }
}

void DedupBackend::ReadChunksImpl(std::span<ChunkReadRequest> requests,
                                  const BatchCompletion& done, bool verify) const {
  auto* self = const_cast<DedupBackend*>(this);
  // Translate logical -> physical under one lock hold, pinning every target so a
  // concurrent Delete cannot reclaim a chunk mid-batch.
  std::vector<ChunkReadRequest> inner;
  std::vector<PhysId> pinned;
  std::vector<size_t> origin;  // inner[i] serves requests[origin[i]]
  inner.reserve(requests.size());
  pinned.reserve(requests.size());
  origin.reserve(requests.size());
  {
    std::unique_lock<std::mutex> lock(self->mu_);
    for (size_t i = 0; i < requests.size(); ++i) {
      ChunkReadRequest& req = requests[i];
      req.result = -1;
      const auto it = logical_.find(req.key);
      if (it == logical_.end() || it->second.bytes > req.buf_bytes) {
        continue;  // absent or short buffer: fails only this request
      }
      const PhysId id = it->second.phys;
      ++self->phys_.at(id).pins;
      pinned.push_back(id);
      origin.push_back(i);
      inner.push_back(ChunkReadRequest{PhysicalKey(id), req.buf, req.buf_bytes, -1});
    }
  }
  if (!inner.empty()) {
    if (verify) {
      base_->ReadChunks(inner);
    } else {
      base_->ReadChunksUnverified(inner);
    }
  }
  for (size_t i = 0; i < inner.size(); ++i) {
    requests[origin[i]].result = inner[i].result;
  }
  {
    std::unique_lock<std::mutex> lock(self->mu_);
    for (const PhysId& id : pinned) {
      self->UnpinLocked(lock, id);
    }
  }
  if (done) {
    done();
  }
}

void DedupBackend::ReadChunks(std::span<ChunkReadRequest> requests,
                              const BatchCompletion& done) const {
  ReadChunksImpl(requests, done, /*verify=*/true);
}

void DedupBackend::ReadChunksUnverified(std::span<ChunkReadRequest> requests,
                                        const BatchCompletion& done) const {
  ReadChunksImpl(requests, done, /*verify=*/false);
}

int64_t DedupBackend::ChunkSize(const ChunkKey& key) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = logical_.find(key);
  return it == logical_.end() ? -1 : it->second.bytes;
}

bool DedupBackend::DeleteChunk(const ChunkKey& key) {
  std::unique_lock<std::mutex> lock(mu_);
  const auto it = logical_.find(key);
  if (it == logical_.end()) {
    return false;
  }
  const PhysId id = it->second.phys;
  logical_bytes_ -= it->second.bytes;
  logical_.erase(it);
  DecrefLocked(lock, id);
  return true;
}

void DedupBackend::DeleteContext(int64_t context_id) {
  std::unique_lock<std::mutex> lock(mu_);
  auto it = logical_.lower_bound(ChunkKey{context_id, 0, 0});
  while (it != logical_.end() && it->first.context_id == context_id) {
    const PhysId id = it->second.phys;
    logical_bytes_ -= it->second.bytes;
    it = logical_.erase(it);
    // Decref may release the lock to delete the physical chunk; the iterator is
    // re-seated afterwards since the logical map may have changed under us.
    const ChunkKey resume = it != logical_.end() ? it->first : ChunkKey{context_id + 1, 0, 0};
    DecrefLocked(lock, id);
    it = logical_.lower_bound(resume);
  }
}

std::vector<std::pair<ChunkKey, int64_t>> DedupBackend::ListChunks() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<ChunkKey, int64_t>> out;
  out.reserve(logical_.size());
  for (const auto& [key, entry] : logical_) {
    out.emplace_back(key, entry.bytes);
  }
  return out;
}

std::vector<std::pair<ChunkKey, int64_t>> DedupBackend::ListPhysicalChunks() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<ChunkKey, int64_t>> out;
  out.reserve(phys_.size());
  for (const auto& [id, entry] : phys_) {
    out.emplace_back(PhysicalKey(id), entry.bytes);
  }
  return out;
}

int64_t DedupBackend::PhysicalBytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return physical_bytes_;
}

int64_t DedupBackend::collision_chains() const {
  std::lock_guard<std::mutex> lock(mu_);
  return collision_chains_;
}

StorageStats DedupBackend::Stats() const {
  // Read-side counters (tier hits, CRC verification, distributed failovers) come
  // from the wrapped backend — reads pass through 1:1, and pre-checked failures
  // (absent key, short buffer) never reach it, so its totals are exactly the
  // logical totals. Write-side and residency counters must be the dedup layer's
  // own: the wrapped backend only sees first-copy writes.
  StorageStats s = base_->Stats();
  std::lock_guard<std::mutex> lock(mu_);
  s.chunks_stored = static_cast<int64_t>(logical_.size());
  s.bytes_stored = logical_bytes_;
  s.total_writes = total_writes_;
  s.dedup_hits = dedup_hits_;
  s.dedup_bytes_saved = dedup_bytes_saved_;
  s.unique_chunks = static_cast<int64_t>(phys_.size());
  return s;
}

std::string DedupBackend::Name() const { return "dedup(" + base_->Name() + ")"; }

void DedupBackend::Quiesce() { base_->Quiesce(); }

DedupAuditReport DedupBackend::AuditIndex(bool repair) {
  // Offline invariant check — assumes no concurrent writers (fsck runs quiesced).
  DedupAuditReport report;
  std::unique_lock<std::mutex> lock(mu_);
  report.logical_chunks = static_cast<int64_t>(logical_.size());
  report.unique_chunks = static_cast<int64_t>(phys_.size());

  // Recount referents from the logical map.
  std::map<PhysId, int64_t> recount;
  for (const auto& [key, entry] : logical_) {
    ++recount[entry.phys];
  }
  for (auto& [id, entry] : phys_) {
    const auto rc = recount.find(id);
    const int64_t actual = rc == recount.end() ? 0 : rc->second;
    if (entry.refs != actual) {
      ++report.refcount_drift;
      DedupAuditFinding f;
      f.kind = DedupAuditFinding::Kind::kRefcountDrift;
      f.physical_key = PhysicalKey(id);
      f.bytes = entry.bytes;
      f.refs_indexed = entry.refs;
      f.refs_recounted = actual;
      if (repair) {
        entry.refs = actual;
        f.repaired = true;
      }
      report.findings.push_back(f);
    }
  }

  // Index entries whose physical bytes are gone: their referents can never read.
  // Snapshot the ids first — HasChunk runs without the lock, and map iterators must
  // not straddle that.
  std::vector<PhysId> snapshot;
  snapshot.reserve(phys_.size());
  for (const auto& [id, entry] : phys_) {
    snapshot.push_back(id);
  }
  std::vector<PhysId> missing;
  lock.unlock();
  for (const PhysId& id : snapshot) {
    if (!base_->HasChunk(PhysicalKey(id))) {
      missing.push_back(id);
    }
  }
  lock.lock();
  for (const PhysId& id : missing) {
    const auto it = phys_.find(id);
    if (it == phys_.end()) {
      continue;
    }
    ++report.missing_physical;
    DedupAuditFinding f;
    f.kind = DedupAuditFinding::Kind::kMissingPhysical;
    f.physical_key = PhysicalKey(id);
    f.bytes = it->second.bytes;
    f.refs_indexed = it->second.refs;
    if (repair) {
      // Drop every referent so its reads report absent (-1) and the caller falls
      // back to recompute-from-tokens, then retire the dead entry.
      for (auto lit = logical_.begin(); lit != logical_.end();) {
        if (lit->second.phys == id) {
          logical_bytes_ -= lit->second.bytes;
          lit = logical_.erase(lit);
        } else {
          ++lit;
        }
      }
      physical_bytes_ -= it->second.bytes;
      phys_.erase(it);
      f.repaired = true;
    }
    report.findings.push_back(f);
  }

  // Physical chunks in the wrapped store that no index entry claims.
  std::map<ChunkKey, PhysId> known;
  for (const auto& [id, entry] : phys_) {
    known.emplace(PhysicalKey(id), id);
  }
  lock.unlock();
  for (const auto& [key, bytes] : base_->ListChunks()) {
    if (known.count(key) != 0) {
      continue;
    }
    ++report.orphan_physical;
    DedupAuditFinding f;
    f.kind = DedupAuditFinding::Kind::kOrphanPhysical;
    f.physical_key = key;
    f.bytes = bytes;
    if (repair && base_->DeleteChunk(key)) {
      f.repaired = true;
    }
    report.findings.push_back(f);
  }
  lock.lock();
  report.logical_chunks = static_cast<int64_t>(logical_.size());
  report.unique_chunks = static_cast<int64_t>(phys_.size());
  return report;
}

}  // namespace hcache
