#include "src/storage/distributed_backend.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <utility>

#include "src/common/logging.h"
#include "src/storage/memory_backend.h"

namespace hcache {

DistributedColdBackend::DistributedColdBackend(int num_nodes, int64_t chunk_bytes,
                                               const DistributedColdOptions& options,
                                               const NodeFactory& factory)
    : StorageBackend(chunk_bytes), options_(options) {
  CHECK_GT(num_nodes, 0);
  CHECK_GT(options_.replication, 0);
  nodes_.reserve(static_cast<size_t>(num_nodes));
  std::vector<int> ids;
  ids.reserve(static_cast<size_t>(num_nodes));
  for (int i = 0; i < num_nodes; ++i) {
    auto node = std::make_unique<Node>();
    node->id = i;
    node->store = factory ? factory(i, chunk_bytes)
                          : std::make_unique<MemoryBackend>(chunk_bytes);
    CHECK(node->store != nullptr);
    node->io = std::make_unique<InstrumentedBackend>(node->store.get());
    nodes_.push_back(std::move(node));
    ids.push_back(i);
  }
  placement_ = std::make_shared<const PlacementTable>(std::move(ids));

  // Adopt whatever the node stores already hold (FileBackend nodes recover their
  // on-disk indexes at construction): rebuild the logical index from the physical
  // copies — all at generation 0 — then queue anything under its home replica
  // count. This is what lets fsck open a distributed store cold.
  for (const auto& node : nodes_) {
    for (const auto& [key, size] : node->store->ListChunks()) {
      IndexEntry& e = index_[key];
      e.committed = true;
      e.size = std::max(e.size, size);  // a torn copy is the shorter one
      e.copies[node->id] = e.gen;
    }
  }
  if (!index_.empty()) {
    for (const auto& [key, e] : index_) {
      int have = 0;
      for (const int n : placement_->ReplicasFor(key, options_.replication)) {
        auto it = e.copies.find(n);
        if (it != e.copies.end() && it->second == e.gen) {
          ++have;
        }
      }
      if (have < DesiredReplication(*placement_)) {
        repair_queue_.insert(key);
      }
    }
    repair_dirty_ = !repair_queue_.empty();
  }

  if (options_.background_repair) {
    repair_worker_ = std::thread([this] { RepairLoop(); });
  }
}

DistributedColdBackend::~DistributedColdBackend() {
  {
    std::lock_guard<std::mutex> lk(index_mu_);
    shutting_down_ = true;
  }
  repair_cv_.notify_all();
  if (repair_worker_.joinable()) {
    repair_worker_.join();
  }
}

std::shared_ptr<const PlacementTable> DistributedColdBackend::placement() const {
  std::lock_guard<std::mutex> lk(placement_mu_);
  return placement_;
}

bool DistributedColdBackend::NodeWritable(int node) const {
  const Node& n = *nodes_[static_cast<size_t>(node)];
  return !n.down.load() && !n.draining.load() && !n.removed.load();
}

bool DistributedColdBackend::NodeReadable(int node) const {
  const Node& n = *nodes_[static_cast<size_t>(node)];
  return !n.down.load() && !n.removed.load();
}

bool DistributedColdBackend::NodeHasCapacity(int node, int64_t bytes) const {
  const Node& n = *nodes_[static_cast<size_t>(node)];
  const int64_t cap = n.capacity_bytes.load(std::memory_order_relaxed);
  if (cap <= 0) {
    return true;
  }
  return n.store->Stats().bytes_stored + bytes <= cap;
}

std::vector<int> DistributedColdBackend::WriteTargets(const ChunkKey& key,
                                                      const PlacementTable& table,
                                                      int64_t bytes) const {
  std::vector<int> targets;
  for (const int n : table.WalkOrder(key)) {
    if (!NodeWritable(n) || !NodeHasCapacity(n, bytes)) {
      continue;
    }
    targets.push_back(n);
    if (static_cast<int>(targets.size()) == options_.replication) {
      break;
    }
  }
  return targets;
}

int DistributedColdBackend::DesiredReplication(const PlacementTable& table) const {
  return std::min(options_.replication, table.num_nodes());
}

std::vector<int> DistributedColdBackend::CandidateHolders(
    const ChunkKey& key, const PlacementTable& table, uint64_t gen,
    const std::map<int, uint64_t>& copies) const {
  std::vector<int> cands;
  cands.reserve(copies.size());
  for (const int n : table.WalkOrder(key)) {
    auto it = copies.find(n);
    if (it != copies.end() && it->second == gen) {
      cands.push_back(n);
    }
  }
  // Holders outside the table: a draining node keeps serving until evacuated.
  for (const auto& [n, g] : copies) {
    if (g == gen && !table.HasNode(n)) {
      cands.push_back(n);
    }
  }
  return cands;
}

void DistributedColdBackend::EnqueueRepairLocked(const ChunkKey& key) const {
  repair_queue_.insert(key);
  repair_dirty_ = true;
}

// ---------------------------------------------------------------------------
// Write path
// ---------------------------------------------------------------------------

namespace {
struct WriteClaim {
  uint64_t gen = 0;
  uint64_t epoch = 0;   // entry repair_epoch at claim time
  bool created = false;
  std::vector<int> targets;
  std::vector<int> landed;
};
}  // namespace

bool DistributedColdBackend::WriteChunk(const ChunkKey& key, const void* data,
                                        int64_t bytes) {
  ChunkWriteRequest req{key, data, bytes, false};
  WriteChunks(std::span<ChunkWriteRequest>(&req, 1));
  return req.ok;
}

bool DistributedColdBackend::WriteChunks(std::span<ChunkWriteRequest> requests,
                                         const BatchCompletion& done) {
  // Shared for the whole call: Drain's exclusive flush cannot complete while any
  // writer still holds a pre-swap placement table (see write_barrier_).
  std::shared_lock<std::shared_mutex> barrier(write_barrier_);
  const auto table = placement();
  std::vector<WriteClaim> claims(requests.size());

  // Claim a generation per request BEFORE any node IO: concurrent repairers of
  // the old generation see the bump and stand down, and the key reads as absent
  // (not half-written) until the commit below.
  {
    std::lock_guard<std::mutex> lk(index_mu_);
    for (size_t i = 0; i < requests.size(); ++i) {
      const ChunkWriteRequest& req = requests[i];
      CHECK_GT(req.bytes, 0);
      CHECK_LE(req.bytes, chunk_bytes());
      auto [it, inserted] = index_.try_emplace(req.key);
      claims[i].created = inserted;
      claims[i].gen = ++it->second.gen;
      claims[i].epoch = it->second.repair_epoch;
    }
  }

  // Fan the copies out per node so every node serves its share of the batch as
  // ONE submission (the same device-round-trip economics TieredBackend's drain
  // tickets rely on).
  std::map<int, std::vector<size_t>> per_node;
  for (size_t i = 0; i < requests.size(); ++i) {
    claims[i].targets = WriteTargets(requests[i].key, *table, requests[i].bytes);
    for (const int n : claims[i].targets) {
      per_node[n].push_back(i);
    }
  }
  for (auto& [n, idxs] : per_node) {
    std::vector<ChunkWriteRequest> sub;
    sub.reserve(idxs.size());
    for (const size_t i : idxs) {
      sub.push_back(
          ChunkWriteRequest{requests[i].key, requests[i].data, requests[i].bytes, false});
    }
    nodes_[static_cast<size_t>(n)]->io->WriteChunks(std::span<ChunkWriteRequest>(sub));
    for (size_t j = 0; j < idxs.size(); ++j) {
      if (sub[j].ok) {
        claims[idxs[j]].landed.push_back(n);
      }
    }
  }

  // Commit. The fast path lands every request under one lock; a request whose
  // claim→commit window overlapped a repair (or Balance trim) of the same key
  // falls to the redo loop below.
  const int desired = DesiredReplication(*table);
  bool all_ok = true;
  bool wake = false;
  std::vector<size_t> slow;
  {
    std::lock_guard<std::mutex> lk(index_mu_);
    for (size_t i = 0; i < requests.size(); ++i) {
      ChunkWriteRequest& req = requests[i];
      WriteClaim& c = claims[i];
      req.ok = !c.landed.empty();
      all_ok = all_ok && req.ok;
      auto it = index_.find(req.key);
      if (it == index_.end() || it->second.gen != c.gen) {
        // Deleted or overwritten while in flight: the later operation owns the
        // entry; our physical copies are strays Balance will trim.
        if (req.ok) {
          total_writes_.fetch_add(1, std::memory_order_relaxed);
        }
        continue;
      }
      IndexEntry& e = it->second;
      if (c.landed.empty()) {
        if (c.created) {
          index_.erase(it);  // failed first write: the key stays absent
        }
        continue;
      }
      if (e.repairs_inflight > 0 || e.repair_epoch != c.epoch) {
        slow.push_back(i);
        continue;
      }
      e.size = req.bytes;
      e.committed = true;
      e.copies.clear();
      for (const int n : c.landed) {
        e.copies[n] = c.gen;
      }
      total_writes_.fetch_add(1, std::memory_order_relaxed);
      if (static_cast<int>(c.landed.size()) < desired) {
        degraded_writes_.fetch_add(1, std::memory_order_relaxed);
        EnqueueRepairLocked(req.key);
        wake = true;
      } else {
        repair_queue_.erase(req.key);
      }
    }
  }

  // Redo loop: rewrite the landed copies until no repair window overlaps, then
  // commit. Repairers of a superseded generation abort as soon as they observe
  // the gen bump, so this converges after at most the repairs already in flight.
  for (const size_t i : slow) {
    ChunkWriteRequest& req = requests[i];
    WriteClaim& c = claims[i];
    for (;;) {
      {
        std::unique_lock<std::mutex> lk(index_mu_);
        auto it = index_.find(req.key);
        if (it == index_.end() || it->second.gen != c.gen) {
          total_writes_.fetch_add(1, std::memory_order_relaxed);
          break;  // superseded — the newer operation owns the entry
        }
        repaired_cv_.wait(lk, [&] {
          auto jt = index_.find(req.key);
          return jt == index_.end() || jt->second.gen != c.gen ||
                 jt->second.repairs_inflight == 0;
        });
        it = index_.find(req.key);
        if (it == index_.end() || it->second.gen != c.gen) {
          total_writes_.fetch_add(1, std::memory_order_relaxed);
          break;
        }
        IndexEntry& e = it->second;
        if (e.repair_epoch == c.epoch) {
          e.size = req.bytes;
          e.committed = true;
          e.copies.clear();
          for (const int n : c.landed) {
            e.copies[n] = c.gen;
          }
          total_writes_.fetch_add(1, std::memory_order_relaxed);
          if (static_cast<int>(c.landed.size()) < desired) {
            degraded_writes_.fetch_add(1, std::memory_order_relaxed);
            EnqueueRepairLocked(req.key);
            wake = true;
          } else {
            repair_queue_.erase(req.key);
          }
          break;
        }
        c.epoch = e.repair_epoch;
      }
      // A repair touched this key while our writes were in flight; its bytes may
      // have landed after ours on some node. Rewrite our copies, then recheck.
      for (const int n : c.landed) {
        nodes_[static_cast<size_t>(n)]->io->WriteChunk(req.key, req.data, req.bytes);
      }
    }
  }

  if (wake) {
    repair_cv_.notify_all();
  }
  if (done) {
    done();
  }
  return all_ok;
}

// ---------------------------------------------------------------------------
// Read path (failover)
// ---------------------------------------------------------------------------

void DistributedColdBackend::ReadChunks(std::span<ChunkReadRequest> requests,
                                        const BatchCompletion& done) const {
  ReadChunksImpl(requests, done, /*verify=*/true);
}

void DistributedColdBackend::ReadChunksUnverified(std::span<ChunkReadRequest> requests,
                                                  const BatchCompletion& done) const {
  ReadChunksImpl(requests, done, /*verify=*/false);
}

void DistributedColdBackend::ReadChunksImpl(std::span<ChunkReadRequest> requests,
                                            const BatchCompletion& done,
                                            bool verify) const {
  const auto table = placement();
  struct Pending {
    size_t idx = 0;
    std::vector<int> cands;
    size_t next = 0;
    int attempts = 0;
    bool corrupt_seen = false;
    bool damage_seen = false;
  };
  std::vector<Pending> pool;
  pool.reserve(requests.size());
  {
    std::lock_guard<std::mutex> lk(index_mu_);
    for (size_t i = 0; i < requests.size(); ++i) {
      ChunkReadRequest& req = requests[i];
      req.result = -1;
      auto it = index_.find(req.key);
      if (it == index_.end() || !it->second.committed ||
          it->second.size > req.buf_bytes) {
        continue;  // absent or short buffer: per-request -1, no side effects
      }
      Pending p;
      p.idx = i;
      p.cands = CandidateHolders(req.key, *table, it->second.gen, it->second.copies);
      pool.push_back(std::move(p));
    }
  }

  std::vector<ChunkKey> to_repair;
  std::vector<Pending*> active;
  active.reserve(pool.size());
  for (auto& p : pool) {
    active.push_back(&p);
  }
  // Rounds of per-node batches: every request starts at its best replica; the
  // failed ones retry on their next replica in the following round.
  while (!active.empty()) {
    std::map<int, std::vector<Pending*>> groups;
    for (Pending* p : active) {
      int target = -1;
      while (p->next < p->cands.size()) {
        const int n = p->cands[p->next];
        if (NodeReadable(n)) {
          target = n;
          break;
        }
        ++p->next;
        ++p->attempts;
      }
      if (target < 0) {
        ChunkReadRequest& req = requests[p->idx];
        if (p->corrupt_seen) {
          req.result = kChunkCorrupt;
          crc_failures_.fetch_add(1, std::memory_order_relaxed);
        } else {
          req.result = -1;
        }
        to_repair.push_back(req.key);
        continue;
      }
      groups[target].push_back(p);
    }
    std::vector<Pending*> next_active;
    for (auto& [n, members] : groups) {
      std::vector<ChunkReadRequest> sub;
      sub.reserve(members.size());
      for (Pending* p : members) {
        const ChunkReadRequest& req = requests[p->idx];
        sub.push_back(ChunkReadRequest{req.key, req.buf, req.buf_bytes, -1});
      }
      InstrumentedBackend* io = nodes_[static_cast<size_t>(n)]->io.get();
      if (verify) {
        io->ReadChunks(std::span<ChunkReadRequest>(sub));
      } else {
        io->ReadChunksUnverified(std::span<ChunkReadRequest>(sub));
      }
      for (size_t j = 0; j < members.size(); ++j) {
        Pending* p = members[j];
        ChunkReadRequest& req = requests[p->idx];
        const int64_t got = sub[j].result;
        if (got >= 0) {
          req.result = got;
          total_reads_.fetch_add(1, std::memory_order_relaxed);
          read_bytes_.fetch_add(got, std::memory_order_relaxed);
          if (p->attempts > 0) {
            failover_reads_.fetch_add(1, std::memory_order_relaxed);
          }
          if (p->damage_seen) {
            to_repair.push_back(req.key);
          }
          continue;
        }
        p->damage_seen = true;
        if (got == kChunkCorrupt) {
          p->corrupt_seen = true;
        }
        ++p->next;
        ++p->attempts;
        next_active.push_back(p);
      }
    }
    active = std::move(next_active);
  }

  if (!to_repair.empty()) {
    {
      std::lock_guard<std::mutex> lk(index_mu_);
      for (const ChunkKey& k : to_repair) {
        EnqueueRepairLocked(k);
      }
    }
    repair_cv_.notify_all();
  }
  if (done) {
    done();
  }
}

// ---------------------------------------------------------------------------
// Lookup / delete / enumerate
// ---------------------------------------------------------------------------

int64_t DistributedColdBackend::ChunkSize(const ChunkKey& key) const {
  std::lock_guard<std::mutex> lk(index_mu_);
  auto it = index_.find(key);
  return (it != index_.end() && it->second.committed) ? it->second.size : -1;
}

void DistributedColdBackend::DeleteContext(int64_t context_id) {
  {
    std::lock_guard<std::mutex> lk(index_mu_);
    auto it = index_.lower_bound(ChunkKey{context_id, std::numeric_limits<int64_t>::min(),
                                          std::numeric_limits<int64_t>::min()});
    while (it != index_.end() && it->first.context_id == context_id) {
      repair_queue_.erase(it->first);
      it = index_.erase(it);
    }
  }
  for (const auto& node : nodes_) {
    if (node->removed.load() || node->down.load()) {
      continue;  // a down node's leftovers are trimmed by Balance after recovery
    }
    node->io->DeleteContext(context_id);
  }
}

bool DistributedColdBackend::DeleteChunk(const ChunkKey& key) {
  bool existed = false;
  {
    std::lock_guard<std::mutex> lk(index_mu_);
    auto it = index_.find(key);
    if (it != index_.end()) {
      existed = it->second.committed;
      index_.erase(it);
    }
    repair_queue_.erase(key);
  }
  for (const auto& node : nodes_) {
    if (node->removed.load() || node->down.load()) {
      continue;
    }
    node->io->DeleteChunk(key);
  }
  return existed;
}

std::vector<std::pair<ChunkKey, int64_t>> DistributedColdBackend::ListChunks() const {
  std::lock_guard<std::mutex> lk(index_mu_);
  std::vector<std::pair<ChunkKey, int64_t>> out;
  out.reserve(index_.size());
  for (const auto& [key, e] : index_) {
    if (e.committed) {
      out.emplace_back(key, e.size);
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Repair plane
// ---------------------------------------------------------------------------

bool DistributedColdBackend::RepairChunkInternal(const ChunkKey& key,
                                                 int64_t* copies_written) {
  int64_t size = 0;
  uint64_t gen = 0;
  std::map<int, uint64_t> copies;
  {
    std::lock_guard<std::mutex> lk(index_mu_);
    auto it = index_.find(key);
    if (it == index_.end() || !it->second.committed) {
      repair_queue_.erase(key);  // deleted or never landed: nothing to restore
      return true;
    }
    size = it->second.size;
    gen = it->second.gen;
    copies = it->second.copies;
  }

  const auto table = placement();
  const std::vector<int> targets = WriteTargets(key, *table, size);

  // Source a verified current-generation copy.
  std::vector<uint8_t> scratch(static_cast<size_t>(size));
  bool sourced = false;
  std::set<int> valid;
  for (const int n : CandidateHolders(key, *table, gen, copies)) {
    if (!NodeReadable(n)) {
      continue;
    }
    if (nodes_[static_cast<size_t>(n)]->io->ReadChunk(key, scratch.data(), size) == size) {
      sourced = true;
      valid.insert(n);
      break;
    }
  }
  if (!sourced) {
    return false;  // every reachable copy gone or corrupt: stalled, stays queued
  }

  // Open the repair window (seqlock vs concurrent writers of this key).
  {
    std::lock_guard<std::mutex> lk(index_mu_);
    auto it = index_.find(key);
    if (it == index_.end() || it->second.gen != gen) {
      return true;  // superseded before we wrote anything
    }
    ++it->second.repair_epoch;
    ++it->second.repairs_inflight;
  }

  int64_t written = 0;
  std::vector<int> wrote_to;
  for (const int n : targets) {
    if (valid.count(n)) {
      continue;
    }
    InstrumentedBackend* io = nodes_[static_cast<size_t>(n)]->io.get();
    auto cit = copies.find(n);
    if (cit != copies.end() && cit->second == gen) {
      // The node claims a current copy — verify before rewriting.
      std::vector<uint8_t> check(static_cast<size_t>(size));
      if (io->ReadChunk(key, check.data(), size) == size) {
        valid.insert(n);
        continue;
      }
    }
    if (io->WriteChunk(key, scratch.data(), size)) {
      valid.insert(n);
      wrote_to.push_back(n);
      ++written;
    }
  }

  bool resolved = false;
  bool wake = false;
  {
    std::lock_guard<std::mutex> lk(index_mu_);
    auto it = index_.find(key);
    if (it == index_.end()) {
      // Deleted mid-repair: our writes left ghosts Balance will trim.
      resolved = true;
    } else {
      IndexEntry& e = it->second;
      ++e.repair_epoch;
      --e.repairs_inflight;
      if (e.gen != gen) {
        // A writer overlapped. It redoes its own copies on seeing our epoch
        // bump, but any node WE wrote may hold our stale bytes under its
        // commit — drop those claims and let the next pass re-verify them.
        for (const int n : wrote_to) {
          auto cit = e.copies.find(n);
          if (cit != e.copies.end() && cit->second == e.gen) {
            e.copies.erase(cit);
          }
        }
        EnqueueRepairLocked(key);
        wake = true;
        resolved = true;  // this generation's repair is moot
      } else {
        for (const int n : valid) {
          e.copies[n] = gen;
        }
        // Re-validate against the CURRENT table and node flags, not the snapshot
        // this repair planned with: if a node came back up (or a drain swapped
        // the table) mid-repair, the placement we satisfied may no longer be the
        // placement the key needs — resolving on the stale view would erase a
        // re-enqueue (e.g. SetNodeUp's) and strand the key off its home nodes.
        const auto now = placement();
        const std::vector<int> now_targets = WriteTargets(key, *now, size);
        const int now_desired = DesiredReplication(*now);
        resolved = static_cast<int>(now_targets.size()) >= now_desired;
        for (const int n : now_targets) {
          resolved = resolved && valid.count(n) > 0;
        }
        if (resolved) {
          repair_queue_.erase(key);
        } else {
          EnqueueRepairLocked(key);  // placement moved under us: another pass
          wake = true;
        }
        if (written > 0) {
          re_replicated_chunks_.fetch_add(written, std::memory_order_relaxed);
          if (copies_written != nullptr) {
            *copies_written += written;
          }
        }
      }
    }
  }
  repaired_cv_.notify_all();  // writers may be waiting for the window to close
  if (wake) {
    repair_cv_.notify_all();
  }
  return resolved;
}

int64_t DistributedColdBackend::RunRepairPass() {
  std::vector<ChunkKey> keys;
  {
    std::lock_guard<std::mutex> lk(index_mu_);
    keys.assign(repair_queue_.begin(), repair_queue_.end());
  }
  int64_t resolved = 0;
  for (const ChunkKey& key : keys) {
    if (RepairChunkInternal(key)) {
      ++resolved;
    }
  }
  return resolved;
}

void DistributedColdBackend::RepairLoop() {
  std::unique_lock<std::mutex> lk(index_mu_);
  while (!shutting_down_) {
    if (repair_queue_.empty() || !repair_dirty_) {
      // Empty, or only stalled chunks whose fault state hasn't changed — sleep
      // rather than spin; every enqueue and fault-state change sets the dirty
      // flag and notifies.
      repaired_cv_.notify_all();
      repair_cv_.wait(lk);
      continue;
    }
    repair_dirty_ = false;
    repair_inflight_ = true;
    lk.unlock();
    RunRepairPass();
    lk.lock();
    repair_inflight_ = false;
    repaired_cv_.notify_all();
  }
}

void DistributedColdBackend::RepairToConvergence() {
  for (;;) {
    {
      std::lock_guard<std::mutex> lk(index_mu_);
      repair_dirty_ = false;
      if (repair_queue_.empty()) {
        return;
      }
    }
    if (RunRepairPass() == 0) {
      return;  // only stalled chunks remain
    }
  }
}

void DistributedColdBackend::Quiesce() {
  if (options_.background_repair) {
    std::unique_lock<std::mutex> lk(index_mu_);
    repair_cv_.notify_all();
    repaired_cv_.wait(lk, [&] {
      return !repair_inflight_ && (repair_queue_.empty() || !repair_dirty_);
    });
  } else {
    RepairToConvergence();
  }
}

// ---------------------------------------------------------------------------
// Fault injection / operator verbs
// ---------------------------------------------------------------------------

bool DistributedColdBackend::SetNodeDown(int node) {
  if (node < 0 || node >= num_nodes() || nodes_[static_cast<size_t>(node)]->removed.load()) {
    return false;
  }
  nodes_[static_cast<size_t>(node)]->down.store(true);
  {
    std::lock_guard<std::mutex> lk(index_mu_);
    for (const auto& [key, e] : index_) {
      if (e.copies.count(node) > 0) {
        repair_queue_.insert(key);  // spill copies onto the next walk nodes
      }
    }
    repair_dirty_ = true;
  }
  repair_cv_.notify_all();
  return true;
}

bool DistributedColdBackend::SetNodeUp(int node) {
  if (node < 0 || node >= num_nodes() || nodes_[static_cast<size_t>(node)]->removed.load()) {
    return false;
  }
  nodes_[static_cast<size_t>(node)]->down.store(false);
  const auto table = placement();
  {
    std::lock_guard<std::mutex> lk(index_mu_);
    for (const auto& [key, e] : index_) {
      if (!e.committed || !table->IsHome(key, node, options_.replication)) {
        continue;
      }
      auto cit = e.copies.find(node);
      if (cit == e.copies.end() || cit->second != e.gen) {
        repair_queue_.insert(key);  // converge back onto the recovered home
      }
    }
    repair_dirty_ = true;  // also retries anything stalled on this node being down
  }
  repair_cv_.notify_all();
  return true;
}

bool DistributedColdBackend::Drain(int node) {
  if (node < 0 || node >= num_nodes()) {
    return false;
  }
  Node& n = *nodes_[static_cast<size_t>(node)];
  if (n.removed.load() || n.down.load()) {
    return false;
  }
  {
    std::lock_guard<std::mutex> plk(placement_mu_);
    if (!placement_->HasNode(node) || placement_->num_nodes() <= 1) {
      return false;  // unknown to placement, or the last node standing
    }
    // Order matters: mark draining (new writes stop landing here) before the
    // table swap so no writer holding the OLD table picks this node after we
    // start evacuating.
    n.draining.store(true);
    placement_ = std::make_shared<const PlacementTable>(placement_->Without(node));
  }

  // Flush in-flight writers: once this exclusive section is acquired, every
  // writer that picked targets from the old table has committed, so no write can
  // land bytes on the node after the evacuation sweep below.
  { std::unique_lock<std::shared_mutex> flush(write_barrier_); }

  // Queue everything the node holds; it keeps serving reads while the repair
  // plane re-replicates onto the survivors.
  {
    std::lock_guard<std::mutex> lk(index_mu_);
    for (const auto& [key, e] : index_) {
      if (e.copies.count(node) > 0) {
        repair_queue_.insert(key);
      }
    }
    repair_dirty_ = true;
  }
  repair_cv_.notify_all();

  // Converge on the caller thread (the background worker, when present, shares
  // the load; progress is judged on the queue, not on who repaired what).
  size_t last_remaining = std::numeric_limits<size_t>::max();
  for (;;) {
    std::vector<ChunkKey> remaining;
    {
      std::lock_guard<std::mutex> lk(index_mu_);
      for (const auto& [key, e] : index_) {
        // Only a CURRENT-generation copy pins the drain. A stale-gen claim means
        // a writer is mid-flight on this key: its commit replaces the copy set
        // (node excluded, it is off the table) without any help from us — and a
        // repairer could not source that claimed-but-uncommitted generation
        // anyway, so counting such keys here reads as spurious no-progress.
        const auto cit = e.copies.find(node);
        if (cit != e.copies.end() && cit->second == e.gen &&
            repair_queue_.count(key) > 0) {
          remaining.push_back(key);
        }
      }
    }
    if (remaining.empty()) {
      break;
    }
    int64_t resolved = 0;
    for (const ChunkKey& key : remaining) {
      if (RepairChunkInternal(key)) {
        ++resolved;
      }
    }
    if (resolved == 0 && remaining.size() >= last_remaining) {
      // Nothing can move (survivors down or full). Leave the node draining but
      // serving; a later Drain call can finish the evacuation.
      return false;
    }
    last_remaining = remaining.size();
  }

  // Evacuated: drop the node's claims, wipe its store, retire it.
  std::vector<ChunkKey> trim;
  {
    std::lock_guard<std::mutex> lk(index_mu_);
    for (auto& [key, e] : index_) {
      if (e.copies.erase(node) > 0) {
        trim.push_back(key);
      }
    }
  }
  for (const ChunkKey& key : trim) {
    n.io->DeleteChunk(key);
  }
  for (const auto& [key, size] : n.store->ListChunks()) {
    n.io->DeleteChunk(key);  // uncommitted strays
  }
  n.removed.store(true);
  n.draining.store(false);
  return true;
}

int64_t DistributedColdBackend::Balance() {
  const auto table = placement();
  int64_t moves = 0;

  // 1) Restore missing home copies.
  std::vector<ChunkKey> keys;
  {
    std::lock_guard<std::mutex> lk(index_mu_);
    keys.reserve(index_.size());
    for (const auto& [key, e] : index_) {
      if (e.committed) {
        keys.push_back(key);
      }
    }
  }
  for (const ChunkKey& key : keys) {
    RepairChunkInternal(key, &moves);
  }

  // 2) Trim strays: stale generations, ghosts the index never committed, and
  //    spill copies on non-home nodes once every home target holds a copy.
  for (const auto& node : nodes_) {
    if (node->removed.load() || node->down.load()) {
      continue;
    }
    for (const auto& [key, size] : node->store->ListChunks()) {
      bool trim_it = false;
      {
        std::lock_guard<std::mutex> lk(index_mu_);
        auto it = index_.find(key);
        if (it == index_.end()) {
          trim_it = true;  // ghost of a failed or superseded write
        } else if (it->second.committed) {
          IndexEntry& e = it->second;
          auto cit = e.copies.find(node->id);
          if (cit == e.copies.end() || cit->second != e.gen) {
            trim_it = true;  // stale or unrecorded copy
          } else if (!table->IsHome(key, node->id, options_.replication)) {
            const std::vector<int> targets = WriteTargets(key, *table, e.size);
            bool home_full = static_cast<int>(targets.size()) >= DesiredReplication(*table);
            for (const int t : targets) {
              auto tit = e.copies.find(t);
              home_full = home_full && tit != e.copies.end() && tit->second == e.gen;
            }
            if (home_full) {
              e.copies.erase(cit);
              trim_it = true;
            }
          }
          if (trim_it) {
            ++e.repair_epoch;  // open a window so a racing writer redoes
            ++e.repairs_inflight;
          }
        }
        // !committed: a write is mid-flight — leave its bytes alone.
      }
      if (!trim_it) {
        continue;
      }
      node->io->DeleteChunk(key);
      ++moves;
      bool requeue = false;
      {
        std::lock_guard<std::mutex> lk(index_mu_);
        auto it = index_.find(key);
        if (it != index_.end()) {
          if (it->second.repairs_inflight > 0) {
            ++it->second.repair_epoch;
            --it->second.repairs_inflight;
          }
          auto cit = it->second.copies.find(node->id);
          if (cit != it->second.copies.end()) {
            // A racing write re-landed a copy here between our check and the
            // delete; treat it as lost and let repair restore it.
            it->second.copies.erase(cit);
            EnqueueRepairLocked(key);
            requeue = true;
          }
        }
      }
      repaired_cv_.notify_all();
      if (requeue) {
        repair_cv_.notify_all();
      }
    }
  }
  return moves;
}

// ---------------------------------------------------------------------------
// Inspection
// ---------------------------------------------------------------------------

DistributedColdBackend::ReplicationStatus DistributedColdBackend::CheckReplication(
    const ChunkKey& key) const {
  ReplicationStatus st;
  int64_t size = 0;
  uint64_t gen = 0;
  std::map<int, uint64_t> copies;
  {
    std::lock_guard<std::mutex> lk(index_mu_);
    auto it = index_.find(key);
    if (it == index_.end() || !it->second.committed) {
      return st;
    }
    size = it->second.size;
    gen = it->second.gen;
    copies = it->second.copies;
  }
  const auto table = placement();
  st.home = table->ReplicasFor(key, options_.replication);
  std::vector<uint8_t> scratch(static_cast<size_t>(size));
  for (const int n : st.home) {
    auto cit = copies.find(n);
    const bool claims = cit != copies.end() && cit->second == gen;
    if (!claims || !NodeReadable(n)) {
      ++st.missing_copies;  // no current copy, or the node can't serve it
      continue;
    }
    const int64_t got =
        nodes_[static_cast<size_t>(n)]->io->ReadChunk(key, scratch.data(), size);
    if (got == size) {
      ++st.healthy_copies;
    } else if (got == kChunkCorrupt) {
      ++st.corrupt_copies;
    } else {
      ++st.missing_copies;
    }
  }
  for (const auto& [n, g] : copies) {
    if (g == gen &&
        std::find(st.home.begin(), st.home.end(), n) == st.home.end()) {
      st.stray.push_back(n);
    }
  }
  return st;
}

bool DistributedColdBackend::RepairChunk(const ChunkKey& key) {
  RepairChunkInternal(key);
  const ReplicationStatus st = CheckReplication(key);
  return !st.home.empty() && st.FullyReplicated();
}

std::vector<DistributedColdBackend::NodeInfo> DistributedColdBackend::NodeTable() const {
  std::vector<NodeInfo> out;
  out.reserve(nodes_.size());
  for (const auto& node : nodes_) {
    NodeInfo info;
    info.id = node->id;
    info.up = !node->down.load();
    info.draining = node->draining.load();
    info.removed = node->removed.load();
    info.capacity_bytes = node->capacity_bytes.load(std::memory_order_relaxed);
    const StorageStats s = node->store->Stats();
    info.chunks = s.chunks_stored;
    info.bytes = s.bytes_stored;
    out.push_back(info);
  }
  return out;
}

int DistributedColdBackend::num_live_nodes() const {
  int live = 0;
  for (const auto& node : nodes_) {
    if (!node->removed.load()) {
      ++live;
    }
  }
  return live;
}

bool DistributedColdBackend::IsNodeDown(int node) const {
  CHECK(node >= 0 && node < num_nodes());
  return nodes_[static_cast<size_t>(node)]->down.load();
}

InstrumentedBackend* DistributedColdBackend::node_instrument(int node) const {
  CHECK(node >= 0 && node < num_nodes());
  return nodes_[static_cast<size_t>(node)]->io.get();
}

StorageBackend* DistributedColdBackend::node_store(int node) const {
  CHECK(node >= 0 && node < num_nodes());
  return nodes_[static_cast<size_t>(node)]->store.get();
}

void DistributedColdBackend::set_node_capacity(int node, int64_t bytes) {
  CHECK(node >= 0 && node < num_nodes());
  nodes_[static_cast<size_t>(node)]->capacity_bytes.store(bytes,
                                                          std::memory_order_relaxed);
}

StorageStats DistributedColdBackend::Stats() const {
  StorageStats s;
  {
    std::lock_guard<std::mutex> lk(index_mu_);
    for (const auto& [key, e] : index_) {
      if (e.committed) {
        ++s.chunks_stored;
        s.bytes_stored += e.size;
      }
    }
    s.under_replicated_chunks = static_cast<int64_t>(repair_queue_.size());
  }
  s.total_writes = total_writes_.load(std::memory_order_relaxed);
  s.total_reads = total_reads_.load(std::memory_order_relaxed);
  s.cold_hits = s.total_reads;
  s.cold_hit_bytes = read_bytes_.load(std::memory_order_relaxed);
  s.failover_reads = failover_reads_.load(std::memory_order_relaxed);
  s.degraded_writes = degraded_writes_.load(std::memory_order_relaxed);
  s.re_replicated_chunks = re_replicated_chunks_.load(std::memory_order_relaxed);
  s.crc_failures = crc_failures_.load(std::memory_order_relaxed);
  for (const auto& node : nodes_) {
    if (node->removed.load()) {
      continue;
    }
    if (node->down.load()) {
      ++s.nodes_down;
    }
    s.crc_checked_bytes += node->store->Stats().crc_checked_bytes;
  }
  return s;
}

std::string DistributedColdBackend::Name() const {
  return "distributed(nodes=" + std::to_string(num_nodes()) +
         ",r=" + std::to_string(options_.replication) + ")";
}

}  // namespace hcache
