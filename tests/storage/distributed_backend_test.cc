// Fault matrix for the distributed cold plane: placement determinism, R-way
// replication, failover reads, degraded writes + re-replication convergence, node
// kill mid-batch, drain-while-serving, a node flapping under live traffic,
// kill-during-drain, double failure with R=2 (detected miss, never wrong bytes),
// the repair queue's home-set rule (a key off its home set stays queued, and
// Balance never trims a copy standing in for a down node), the per-node capacity
// model (freeing room on a full node queues the keys homed there), cold recovery of the logical index from node stores (opening never
// mutates them), and seeded fault scripts with node flips fired from inside node
// IO: each replays exactly and keeps the queue invariant after every step.
#include "src/storage/distributed_backend.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <filesystem>
#include <iterator>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/storage/codec.h"
#include "src/storage/file_backend.h"
#include "src/storage/fsck.h"
#include "src/storage/layout.h"
#include "src/storage/placement.h"
#include "tests/test_dir.h"

namespace hcache {
namespace {

namespace fs = std::filesystem;

constexpr int64_t kChunkBytes = 4096;

std::vector<char> Payload(const ChunkKey& key, int64_t bytes) {
  std::vector<char> data(static_cast<size_t>(bytes));
  for (int64_t i = 0; i < bytes; ++i) {
    data[static_cast<size_t>(i)] = static_cast<char>(
        (key.context_id * 193 + key.layer * 47 + key.chunk_index * 11 + i) & 0xff);
  }
  return data;
}

// A sealed chunk (header + payload CRC): the form whose at-rest damage the CRC
// path can actually detect. Raw Payload() blobs read back kOkUnverified by design,
// so corruption-detection tests must write sealed chunks.
std::vector<char> SealedPayload(const ChunkKey& key, int64_t rows, int64_t cols) {
  std::vector<char> chunk(
      static_cast<size_t>(EncodedChunkBytes(ChunkCodec::kFp32, rows, cols)));
  for (size_t i = sizeof(ChunkHeader); i < chunk.size(); ++i) {
    chunk[i] = static_cast<char>(
        (key.context_id * 193 + key.layer * 47 + key.chunk_index * 11 + i) & 0xff);
  }
  WriteChunkHeader(ChunkCodec::kFp32, rows, cols, chunk.data());
  return chunk;
}

using Listing = std::vector<std::pair<ChunkKey, int64_t>>;

Listing Sorted(Listing chunks) {
  std::sort(chunks.begin(), chunks.end());
  return chunks;
}

// Each node store's resident (key, stored bytes) pairs, sorted.
std::vector<Listing> NodeListings(const DistributedColdBackend& dist) {
  std::vector<Listing> out;
  for (int n = 0; n < dist.num_nodes(); ++n) {
    out.push_back(Sorted(dist.node_store(n)->ListChunks()));
  }
  return out;
}

std::vector<ChunkKey> Keys(int64_t ctx, int count) {
  std::vector<ChunkKey> keys;
  for (int c = 0; c < count; ++c) {
    keys.push_back(ChunkKey{ctx, 0, c});
  }
  return keys;
}

// --------------------------------------------------------------------------
// Placement table
// --------------------------------------------------------------------------

TEST(PlacementTableTest, WalkOrderIsDeterministicAndCoversEveryNode) {
  const PlacementTable a({0, 1, 2, 3});
  const PlacementTable b({3, 2, 1, 0});  // construction order must not matter
  for (int64_t c = 0; c < 200; ++c) {
    const ChunkKey key{7, 3, c};
    const auto wa = a.WalkOrder(key);
    ASSERT_EQ(wa.size(), 4u);
    EXPECT_EQ(wa, b.WalkOrder(key));
    std::set<int> distinct(wa.begin(), wa.end());
    EXPECT_EQ(distinct.size(), 4u);
    EXPECT_EQ(a.HashKey(key), PlacementTable::HashKey(key));
  }
}

TEST(PlacementTableTest, ReplicaSetsSpreadAcrossNodes) {
  const PlacementTable table({0, 1, 2, 3});
  std::vector<int64_t> primary_count(4, 0);
  for (int64_t c = 0; c < 400; ++c) {
    const auto replicas = table.ReplicasFor(ChunkKey{1, 0, c}, 2);
    ASSERT_EQ(replicas.size(), 2u);
    ASSERT_NE(replicas[0], replicas[1]);
    ++primary_count[static_cast<size_t>(replicas[0])];
  }
  // Consistent hashing with 64 vnodes keeps fill within a loose band of the mean.
  for (int n = 0; n < 4; ++n) {
    EXPECT_GT(primary_count[static_cast<size_t>(n)], 20) << "node " << n;
    EXPECT_LT(primary_count[static_cast<size_t>(n)], 250) << "node " << n;
  }
}

TEST(PlacementTableTest, RemovingANodeRehomesOnlyItsChunks) {
  const PlacementTable full({0, 1, 2, 3});
  const PlacementTable without = full.Without(2);
  EXPECT_FALSE(without.HasNode(2));
  for (int64_t c = 0; c < 300; ++c) {
    const ChunkKey key{5, 1, c};
    const auto before = full.ReplicasFor(key, 2);
    const auto after = without.ReplicasFor(key, 2);
    if (std::find(before.begin(), before.end(), 2) == before.end()) {
      // The consistent-hashing property Drain relies on: chunks not homed on the
      // removed node keep their exact replica set.
      EXPECT_EQ(before, after) << "chunk " << c << " re-homed needlessly";
    } else {
      EXPECT_EQ(std::find(after.begin(), after.end(), 2), after.end());
    }
  }
}

// --------------------------------------------------------------------------
// Replication and failover
// --------------------------------------------------------------------------

TEST(DistributedColdBackendTest, WritesReplicateToRNodes) {
  DistributedColdBackend dist(3, kChunkBytes);
  const auto keys = Keys(1, 16);
  for (const auto& key : keys) {
    const auto data = Payload(key, 1024);
    ASSERT_TRUE(dist.WriteChunk(key, data.data(), 1024));
  }
  int64_t physical = 0;
  for (int n = 0; n < 3; ++n) {
    physical += dist.node_store(n)->Stats().chunks_stored;
  }
  EXPECT_EQ(physical, 2 * static_cast<int64_t>(keys.size()));
  for (const auto& key : keys) {
    const auto st = dist.CheckReplication(key);
    ASSERT_EQ(st.home.size(), 2u);
    EXPECT_TRUE(st.FullyReplicated());
    EXPECT_EQ(st.healthy_copies, 2);
  }
  const StorageStats s = dist.Stats();
  EXPECT_EQ(s.chunks_stored, static_cast<int64_t>(keys.size()));
  EXPECT_EQ(s.under_replicated_chunks, 0);
  EXPECT_EQ(s.degraded_writes, 0);
}

TEST(DistributedColdBackendTest, ReadsFailOverFromADownPrimary) {
  DistributedColdBackend dist(3, kChunkBytes);
  const ChunkKey key{1, 0, 0};
  const auto data = Payload(key, 2000);
  ASSERT_TRUE(dist.WriteChunk(key, data.data(), 2000));
  const auto st = dist.CheckReplication(key);
  ASSERT_EQ(st.home.size(), 2u);

  ASSERT_TRUE(dist.SetNodeDown(st.home[0]));
  EXPECT_EQ(dist.Stats().nodes_down, 1);
  std::vector<char> buf(kChunkBytes);
  ASSERT_EQ(dist.ReadChunk(key, buf.data(), kChunkBytes), 2000);
  EXPECT_EQ(std::memcmp(buf.data(), data.data(), 2000), 0);
  EXPECT_EQ(dist.Stats().failover_reads, 1);

  ASSERT_TRUE(dist.SetNodeUp(st.home[0]));
  EXPECT_EQ(dist.Stats().nodes_down, 0);
  // Primary serves again; no further failover.
  ASSERT_EQ(dist.ReadChunk(key, buf.data(), kChunkBytes), 2000);
  EXPECT_EQ(dist.Stats().failover_reads, 1);
}

TEST(DistributedColdBackendTest, ReadsFailOverFromACorruptCopyAndRepairHealsIt) {
  DistributedColdBackend dist(3, kChunkBytes);
  const ChunkKey key{2, 1, 3};
  const auto data = SealedPayload(key, /*rows=*/16, /*cols=*/32);
  const int64_t bytes = static_cast<int64_t>(data.size());
  ASSERT_TRUE(dist.WriteChunk(key, data.data(), bytes));
  const auto home = dist.CheckReplication(key).home;

  // Flip a payload bit in the primary's at-rest copy.
  ASSERT_TRUE(dist.node_instrument(home[0])->CorruptChunk(
      key, 8 * (sizeof(ChunkHeader) + 900)));
  std::vector<char> buf(kChunkBytes);
  ASSERT_EQ(dist.ReadChunk(key, buf.data(), kChunkBytes), bytes);
  EXPECT_EQ(std::memcmp(buf.data(), data.data(), static_cast<size_t>(bytes)), 0)
      << "stale/corrupt bytes served";
  EXPECT_EQ(dist.Stats().failover_reads, 1);
  EXPECT_EQ(dist.Stats().crc_failures, 0) << "a failed-over read is not a read failure";
  EXPECT_GT(dist.Stats().under_replicated_chunks, 0) << "damage must queue a repair";

  dist.Quiesce();  // repair runs here, on the calling thread
  const auto st = dist.CheckReplication(key);
  EXPECT_TRUE(st.FullyReplicated());
  EXPECT_EQ(st.healthy_copies, 2);
  EXPECT_EQ(dist.Stats().under_replicated_chunks, 0);
  EXPECT_GT(dist.Stats().re_replicated_chunks, 0);
}

TEST(DistributedColdBackendTest, DoubleFailureIsADetectedMissNeverWrongBytes) {
  DistributedColdBackend dist(3, kChunkBytes);
  const ChunkKey key{3, 0, 1};
  const auto data = SealedPayload(key, /*rows=*/9, /*cols=*/32);
  const int64_t bytes = static_cast<int64_t>(data.size());
  ASSERT_TRUE(dist.WriteChunk(key, data.data(), bytes));
  const auto home = dist.CheckReplication(key).home;
  ASSERT_EQ(home.size(), 2u);

  // Both replicas down: detected miss, untouched buffer, then full recovery.
  ASSERT_TRUE(dist.SetNodeDown(home[0]));
  ASSERT_TRUE(dist.SetNodeDown(home[1]));
  std::vector<char> buf(kChunkBytes, '\x5a');
  EXPECT_EQ(dist.ReadChunk(key, buf.data(), kChunkBytes), -1);
  EXPECT_EQ(buf[0], '\x5a');
  ASSERT_TRUE(dist.SetNodeUp(home[0]));
  ASSERT_TRUE(dist.SetNodeUp(home[1]));
  ASSERT_EQ(dist.ReadChunk(key, buf.data(), kChunkBytes), bytes);

  // Both copies corrupt: kChunkCorrupt (the caller's recompute fallback), counted
  // once. Per the seam contract buf is unspecified on kCorrupt — the status code,
  // not the buffer, is what keeps wrong bytes out of decoded KV.
  ASSERT_TRUE(dist.node_instrument(home[0])->CorruptChunk(
      key, 8 * (sizeof(ChunkHeader) + 100)));
  ASSERT_TRUE(dist.node_instrument(home[1])->CorruptChunk(
      key, 8 * (sizeof(ChunkHeader) + 200)));
  buf.assign(buf.size(), '\x5a');
  EXPECT_EQ(dist.ReadChunk(key, buf.data(), kChunkBytes), kChunkCorrupt);
  EXPECT_EQ(dist.Stats().crc_failures, 1);
  // Unrepairable (no healthy source anywhere): the chunk stays queued.
  dist.Quiesce();
  EXPECT_GT(dist.Stats().under_replicated_chunks, 0);
}

TEST(DistributedColdBackendTest, DegradedWritesConvergeAfterNodeRecovery) {
  DistributedColdBackend dist(2, kChunkBytes);
  ASSERT_TRUE(dist.SetNodeDown(1));

  const auto keys = Keys(4, 12);
  for (const auto& key : keys) {
    const auto data = Payload(key, 800);
    // One node left: every write succeeds degraded.
    ASSERT_TRUE(dist.WriteChunk(key, data.data(), 800));
  }
  const StorageStats degraded = dist.Stats();
  EXPECT_EQ(degraded.degraded_writes, static_cast<int64_t>(keys.size()));
  EXPECT_EQ(degraded.under_replicated_chunks, static_cast<int64_t>(keys.size()));

  // Down node: repair has nowhere to copy to — Quiesce must not spin or "fix" it.
  dist.Quiesce();
  EXPECT_EQ(dist.Stats().under_replicated_chunks, static_cast<int64_t>(keys.size()));

  ASSERT_TRUE(dist.SetNodeUp(1));
  dist.Quiesce();
  const StorageStats recovered = dist.Stats();
  EXPECT_EQ(recovered.under_replicated_chunks, 0);
  EXPECT_EQ(recovered.re_replicated_chunks, static_cast<int64_t>(keys.size()));
  for (const auto& key : keys) {
    const auto st = dist.CheckReplication(key);
    EXPECT_TRUE(st.FullyReplicated()) << "chunk " << key.chunk_index;
    std::vector<char> buf(kChunkBytes);
    ASSERT_EQ(dist.ReadChunk(key, buf.data(), kChunkBytes), 800);
    const auto want = Payload(key, 800);
    EXPECT_EQ(std::memcmp(buf.data(), want.data(), 800), 0);
  }
}

TEST(DistributedColdBackendTest, NodeKillMidWriteBatchDegradesButLosesNothing) {
  DistributedColdBackend dist(3, kChunkBytes);
  const auto keys = Keys(5, 32);
  std::vector<std::vector<char>> payloads;
  for (const auto& key : keys) {
    payloads.push_back(Payload(key, 1024));
  }

  // Fail-stop node 1 from INSIDE its own write batch: after two writes land, the
  // node goes down and every further write to it fails.
  std::atomic<int> node1_writes{0};
  dist.node_instrument(1)->set_write_hook([&](const ChunkKey&) {
    if (node1_writes.fetch_add(1) == 2) {
      dist.SetNodeDown(1);
      dist.node_instrument(1)->FailNextWrites(1 << 20);
    }
  });

  std::vector<ChunkWriteRequest> reqs;
  for (size_t i = 0; i < keys.size(); ++i) {
    reqs.push_back(ChunkWriteRequest{keys[i], payloads[i].data(), 1024, false});
  }
  dist.WriteChunks(reqs);
  for (const auto& req : reqs) {
    // R=2 over 3 nodes: the second replica always lands elsewhere.
    EXPECT_TRUE(req.ok) << req.key.chunk_index;
  }

  // Every chunk reads back correct bytes while the node is down...
  for (size_t i = 0; i < keys.size(); ++i) {
    std::vector<char> buf(kChunkBytes);
    ASSERT_EQ(dist.ReadChunk(keys[i], buf.data(), kChunkBytes), 1024);
    ASSERT_EQ(std::memcmp(buf.data(), payloads[i].data(), 1024), 0) << i;
  }
  // ...and repair restores R once it recovers.
  dist.node_instrument(1)->FailNextWrites(0);
  ASSERT_TRUE(dist.SetNodeUp(1));
  dist.Quiesce();
  EXPECT_EQ(dist.Stats().under_replicated_chunks, 0);
  for (const auto& key : keys) {
    EXPECT_TRUE(dist.CheckReplication(key).FullyReplicated()) << key.chunk_index;
  }
}

// --------------------------------------------------------------------------
// Live traffic: drain and node flaps while serving
// --------------------------------------------------------------------------

constexpr int64_t kStableBytes = 1024;
constexpr int64_t kHotBytes = 512;
constexpr int kHotKeys = 8;

// Version `v` of an overwritten key: the version in the first 8 bytes, then bytes
// derived from key and version, so a reader can tell which write served it and
// that no two writes were mixed.
std::vector<char> VersionedPayload(const ChunkKey& key, int64_t v) {
  std::vector<char> data(static_cast<size_t>(kHotBytes));
  for (size_t i = sizeof(v); i < data.size(); ++i) {
    data[i] = static_cast<char>((key.chunk_index * 11 + v * 29 + static_cast<int64_t>(i)) &
                                0xff);
  }
  std::memcpy(data.data(), &v, sizeof(v));
  return data;
}

// Two threads of traffic until Stop(): a reader that checks every byte it is
// served, and a writer that keeps overwriting kHotKeys keys with versioned
// payloads. A stable key must always read back exactly. A hot key may read as a
// miss (an overwrite is claimed but not yet committed), but a hit must be a whole
// version no older than the last write acknowledged before the read began.
class LiveTraffic {
 public:
  LiveTraffic(DistributedColdBackend* dist, std::vector<ChunkKey> stable)
      : dist_(dist), stable_(std::move(stable)) {
    reader_ = std::thread([this] { ReadLoop(); });
    writer_ = std::thread([this] { WriteLoop(); });
  }
  ~LiveTraffic() { Stop(); }

  static ChunkKey HotKey(int k) { return ChunkKey{7, 0, k}; }

  // Blocks until the writer has issued `n` more writes.
  void AwaitWrites(int64_t n) {
    const int64_t target = writes_.load() + n;
    while (writes_.load() < target) {
      std::this_thread::yield();
    }
  }

  void Stop() {
    stop_.store(true);
    if (reader_.joinable()) {
      reader_.join();
    }
    if (writer_.joinable()) {
      writer_.join();
    }
  }

  int64_t bad_reads() const { return bad_reads_.load(); }
  int64_t failed_writes() const { return failed_writes_.load(); }
  int64_t acked(int k) const { return acked_[k].load(); }

 private:
  void ReadLoop() {
    std::vector<char> buf(kChunkBytes);
    for (size_t i = 0; !stop_.load(); ++i) {
      if (i % 2 == 0) {
        const ChunkKey& key = stable_[(i / 2) % stable_.size()];
        const int64_t got = dist_->ReadChunk(key, buf.data(), kChunkBytes);
        if (got != kStableBytes ||
            std::memcmp(buf.data(), Payload(key, kStableBytes).data(), kStableBytes) != 0) {
          bad_reads_.fetch_add(1);
        }
        continue;
      }
      const int k = static_cast<int>((i / 2) % kHotKeys);
      const int64_t floor = acked_[k].load();
      const int64_t got = dist_->ReadChunk(HotKey(k), buf.data(), kChunkBytes);
      if (got == -1) {
        continue;
      }
      int64_t v = 0;
      std::memcpy(&v, buf.data(), sizeof(v));
      if (got != kHotBytes || v < floor ||
          std::memcmp(buf.data(), VersionedPayload(HotKey(k), v).data(), kHotBytes) != 0) {
        bad_reads_.fetch_add(1);
      }
    }
  }

  void WriteLoop() {
    int64_t version[kHotKeys] = {};
    for (int64_t c = 0; !stop_.load(); ++c) {
      const int k = static_cast<int>(c % kHotKeys);
      const int64_t v = ++version[k];
      const auto data = VersionedPayload(HotKey(k), v);
      if (dist_->WriteChunk(HotKey(k), data.data(), kHotBytes)) {
        acked_[k].store(v);
      } else {
        failed_writes_.fetch_add(1);
      }
      writes_.fetch_add(1);
    }
  }

  DistributedColdBackend* dist_;
  const std::vector<ChunkKey> stable_;
  std::atomic<bool> stop_{false};
  std::atomic<int64_t> writes_{0};
  std::atomic<int64_t> bad_reads_{0};
  std::atomic<int64_t> failed_writes_{0};
  std::atomic<int64_t> acked_[kHotKeys] = {};
  std::thread reader_;
  std::thread writer_;
};

std::vector<ChunkKey> WriteStableKeys(DistributedColdBackend& dist) {
  const auto keys = Keys(6, 48);
  for (const auto& key : keys) {
    const auto data = Payload(key, kStableBytes);
    EXPECT_TRUE(dist.WriteChunk(key, data.data(), kStableBytes));
  }
  return keys;
}

TEST(DistributedColdBackendTest, DrainEvacuatesWhileServing) {
  DistributedColdBackend dist(3, kChunkBytes);
  const auto keys = WriteStableKeys(dist);

  LiveTraffic traffic(&dist, keys);
  const bool drained = dist.Drain(1);
  traffic.Stop();
  ASSERT_TRUE(drained);

  EXPECT_EQ(traffic.bad_reads(), 0) << "a read failed or served wrong bytes mid-drain";
  EXPECT_EQ(traffic.failed_writes(), 0);
  const auto table = dist.NodeTable();
  EXPECT_TRUE(table[1].removed);
  EXPECT_EQ(table[1].chunks, 0) << "drained node must be empty";
  dist.Quiesce();
  EXPECT_EQ(dist.Stats().under_replicated_chunks, 0);
  for (const auto& key : keys) {
    const auto st = dist.CheckReplication(key);
    EXPECT_TRUE(st.FullyReplicated()) << key.chunk_index;
    EXPECT_EQ(std::find(st.home.begin(), st.home.end(), 1), st.home.end());
  }
}

// The calling thread flaps node 1 down and up, running Quiesce's repair between
// flaps, while the reader and writer keep going (a race test for the tsan label).
// Jittered node latency stretches each IO so repairs and overwrites of a key
// overlap.
TEST(DistributedColdBackendTest, NodeFlappingWithQuiesceWhileServingNeverServesWrongBytes) {
  DistributedColdBackend dist(3, kChunkBytes);
  const auto keys = WriteStableKeys(dist);
  for (int n = 0; n < 3; ++n) {
    dist.node_instrument(n)->set_io_latency_micros(10);
    dist.node_instrument(n)->set_io_latency_jitter(30, /*seed=*/0x5eed + n);
  }

  LiveTraffic traffic(&dist, keys);
  for (int flap = 0; flap < 20; ++flap) {
    // Quiesce straight after the flap, while hot keys are still queued, so its
    // repairs race their overwrites; then let every hot key be written again.
    ASSERT_TRUE(dist.SetNodeDown(1));
    dist.Quiesce();
    traffic.AwaitWrites(kHotKeys);
    ASSERT_TRUE(dist.SetNodeUp(1));
    dist.Quiesce();
    traffic.AwaitWrites(kHotKeys);
  }
  traffic.Stop();
  EXPECT_EQ(traffic.bad_reads(), 0) << "a read served wrong or stale bytes";
  EXPECT_EQ(traffic.failed_writes(), 0);

  ASSERT_TRUE(dist.SetNodeUp(1));
  dist.Quiesce();
  EXPECT_EQ(dist.Stats().under_replicated_chunks, 0);
  for (const auto& key : keys) {
    EXPECT_TRUE(dist.CheckReplication(key).FullyReplicated()) << key.chunk_index;
  }
  // Every copy the index counts as current — home or stray — holds the last
  // acknowledged write: a repair's older bytes never land under a newer commit.
  std::vector<char> buf(kChunkBytes);
  for (int k = 0; k < kHotKeys; ++k) {
    const ChunkKey key = LiveTraffic::HotKey(k);
    const auto want = VersionedPayload(key, traffic.acked(k));
    const auto st = dist.CheckReplication(key);
    EXPECT_TRUE(st.FullyReplicated()) << k;
    std::vector<int> holders = st.home;
    holders.insert(holders.end(), st.stray.begin(), st.stray.end());
    for (const int n : holders) {
      ASSERT_EQ(dist.node_store(n)->ReadChunk(key, buf.data(), kChunkBytes), kHotBytes);
      EXPECT_EQ(std::memcmp(buf.data(), want.data(), kHotBytes), 0)
          << "hot key " << k << ": node " << n << " holds a stale copy";
    }
    ASSERT_EQ(dist.ReadChunk(key, buf.data(), kChunkBytes), kHotBytes) << k;
    EXPECT_EQ(std::memcmp(buf.data(), want.data(), kHotBytes), 0)
        << "hot key " << k << " lost its last acknowledged write";
  }
}

// --------------------------------------------------------------------------
// Drain / Balance
// --------------------------------------------------------------------------

TEST(DistributedColdBackendTest, NodeKillDuringDrainStillConverges) {
  DistributedColdBackend dist(4, kChunkBytes);
  const auto keys = Keys(8, 40);
  for (const auto& key : keys) {
    const auto data = Payload(key, 900);
    ASSERT_TRUE(dist.WriteChunk(key, data.data(), 900));
  }
  // Kill node 2 from inside the drain's own repair traffic: the first repair
  // read that touches node 0 takes node 2 down.
  std::atomic<bool> tripped{false};
  dist.node_instrument(0)->set_read_hook([&](const ChunkKey&) {
    if (!tripped.exchange(true)) {
      dist.SetNodeDown(2);
    }
  });
  ASSERT_TRUE(dist.Drain(1));  // survivors 0 and 3 can still hold R=2
  EXPECT_TRUE(dist.NodeTable()[1].removed);
  for (const auto& key : keys) {
    std::vector<char> buf(kChunkBytes);
    ASSERT_EQ(dist.ReadChunk(key, buf.data(), kChunkBytes), 900) << key.chunk_index;
    const auto want = Payload(key, 900);
    ASSERT_EQ(std::memcmp(buf.data(), want.data(), 900), 0) << key.chunk_index;
  }
  ASSERT_TRUE(dist.SetNodeUp(2));
  dist.Quiesce();
  EXPECT_EQ(dist.Stats().under_replicated_chunks, 0);
}

TEST(DistributedColdBackendTest, DrainRefusesTheLastNodeAndDownNodes) {
  DistributedColdBackend dist(2, kChunkBytes);
  const ChunkKey key{1, 0, 0};
  const auto data = Payload(key, 700);
  ASSERT_TRUE(dist.WriteChunk(key, data.data(), 700));

  EXPECT_FALSE(dist.Drain(5));  // unknown node
  ASSERT_TRUE(dist.Drain(1));   // 2 -> 1 nodes: desired replication drops to 1
  EXPECT_FALSE(dist.Drain(1));  // already removed
  EXPECT_FALSE(dist.Drain(0));  // last node standing
  std::vector<char> buf(kChunkBytes);
  ASSERT_EQ(dist.ReadChunk(key, buf.data(), kChunkBytes), 700);

  DistributedColdBackend dist2(3, kChunkBytes);
  ASSERT_TRUE(dist2.SetNodeDown(1));
  EXPECT_FALSE(dist2.Drain(1)) << "a down node cannot be drained (nothing to read)";
}

TEST(DistributedColdBackendTest, BalanceTrimsStraySpillCopies) {
  DistributedColdBackend dist(3, kChunkBytes);
  const auto keys = Keys(9, 24);
  // With node 0 down, chunks homed on it spill to their next walk node.
  ASSERT_TRUE(dist.SetNodeDown(0));
  for (const auto& key : keys) {
    const auto data = Payload(key, 1024);
    ASSERT_TRUE(dist.WriteChunk(key, data.data(), 1024));
  }
  ASSERT_TRUE(dist.SetNodeUp(0));
  dist.Quiesce();  // copies converge back onto recovered homes
  EXPECT_EQ(dist.Stats().under_replicated_chunks, 0);

  // Some chunks now hold three copies (home pair + the spill). Balance trims the
  // strays down to exactly R per chunk.
  int64_t physical = 0;
  for (int n = 0; n < 3; ++n) {
    physical += dist.node_store(n)->Stats().chunks_stored;
  }
  ASSERT_GE(physical, 2 * static_cast<int64_t>(keys.size()));
  dist.Balance();
  physical = 0;
  for (int n = 0; n < 3; ++n) {
    physical += dist.node_store(n)->Stats().chunks_stored;
  }
  EXPECT_EQ(physical, 2 * static_cast<int64_t>(keys.size()));
  for (const auto& key : keys) {
    const auto st = dist.CheckReplication(key);
    EXPECT_TRUE(st.FullyReplicated()) << key.chunk_index;
    EXPECT_TRUE(st.stray.empty()) << key.chunk_index;
    std::vector<char> buf(kChunkBytes);
    ASSERT_EQ(dist.ReadChunk(key, buf.data(), kChunkBytes), 1024);
  }
}

// --------------------------------------------------------------------------
// The repair queue's home-set rule
// --------------------------------------------------------------------------

// An overwrite placed while the key's primary is down lands on the next two walk
// nodes; a write hook on the first of them brings the primary back mid-write. The
// commit must leave the key queued, so Quiesce converges it back onto the primary.
TEST(DistributedColdBackendTest, OverwriteRacingANodeRecoveryStaysQueuedUntilHome) {
  DistributedColdBackend dist(3, kChunkBytes);
  const ChunkKey key{12, 0, 0};
  const auto walk = PlacementTable({0, 1, 2}).WalkOrder(key);
  const auto v1 = Payload(key, 1000);
  ASSERT_TRUE(dist.WriteChunk(key, v1.data(), 1000));
  ASSERT_TRUE(dist.SetNodeDown(walk[0]));
  bool armed = true;
  dist.node_instrument(walk[1])->set_write_hook([&](const ChunkKey&) {
    if (std::exchange(armed, false)) {
      dist.SetNodeUp(walk[0]);
    }
  });
  const auto v2 = Payload(ChunkKey{99, 0, 0}, 1000);
  ASSERT_TRUE(dist.WriteChunk(key, v2.data(), 1000));
  ASSERT_FALSE(armed);
  EXPECT_EQ(dist.Stats().under_replicated_chunks, 1) << "the primary lacks the overwrite";

  dist.Quiesce();
  EXPECT_TRUE(dist.CheckReplication(key).FullyReplicated());
  EXPECT_EQ(dist.Stats().under_replicated_chunks, 0);
  std::vector<char> buf(kChunkBytes);
  ASSERT_EQ(dist.node_store(walk[0])->ReadChunk(key, buf.data(), kChunkBytes), 1000);
  EXPECT_EQ(std::memcmp(buf.data(), v2.data(), 1000), 0);
}

// With the key's primary down, its copies live on the next two walk nodes. Both
// are its home set while the primary is down, so Balance keeps both, and a second
// failure still leaves a copy to read.
TEST(DistributedColdBackendTest, BalanceKeepsTheSpillCopyThatStandsInForADownHome) {
  DistributedColdBackend dist(3, kChunkBytes);
  const ChunkKey key{13, 0, 0};
  const auto walk = PlacementTable({0, 1, 2}).WalkOrder(key);
  ASSERT_TRUE(dist.SetNodeDown(walk[0]));
  const auto data = Payload(key, 1000);
  ASSERT_TRUE(dist.WriteChunk(key, data.data(), 1000));
  EXPECT_EQ(dist.Stats().under_replicated_chunks, 0);

  dist.Balance();
  EXPECT_TRUE(dist.node_store(walk[1])->HasChunk(key));
  EXPECT_TRUE(dist.node_store(walk[2])->HasChunk(key)) << "Balance trimmed a home copy";
  ASSERT_TRUE(dist.SetNodeDown(walk[1]));
  std::vector<char> buf(kChunkBytes);
  ASSERT_EQ(dist.ReadChunk(key, buf.data(), kChunkBytes), 1000);
  EXPECT_EQ(std::memcmp(buf.data(), data.data(), 1000), 0);
}

// Walk a b c d with a and c down: the key lands on b and d. When c recovers it
// joins the home set (b, c) although placement's first two nodes are a and b, so
// the key must be queued and Quiesce must copy it onto c.
TEST(DistributedColdBackendTest, RecoveryOfANodeThatJoinsTheHomeSetQueuesTheKey) {
  DistributedColdBackend dist(4, kChunkBytes);
  const ChunkKey key{14, 0, 0};
  const auto walk = PlacementTable({0, 1, 2, 3}).WalkOrder(key);
  ASSERT_TRUE(dist.SetNodeDown(walk[0]));
  ASSERT_TRUE(dist.SetNodeDown(walk[2]));
  const auto data = Payload(key, 1000);
  ASSERT_TRUE(dist.WriteChunk(key, data.data(), 1000));
  EXPECT_EQ(dist.Stats().under_replicated_chunks, 0);

  ASSERT_TRUE(dist.SetNodeUp(walk[2]));
  EXPECT_EQ(dist.Stats().under_replicated_chunks, 1);
  dist.Quiesce();
  EXPECT_EQ(dist.Stats().under_replicated_chunks, 0);
  EXPECT_TRUE(dist.node_store(walk[2])->HasChunk(key)) << "the recovered home never got its copy";
}

// An overwrite that lands no copy fails and leaves the key as it was: the previous
// bytes read back, and since they are still at home nothing is queued.
TEST(DistributedColdBackendTest, FailedOverwriteKeepsThePreviousBytes) {
  DistributedColdBackend dist(3, kChunkBytes);
  const ChunkKey key{15, 0, 0};
  const auto v1 = Payload(key, 1000);
  ASSERT_TRUE(dist.WriteChunk(key, v1.data(), 1000));
  for (int n = 0; n < dist.num_nodes(); ++n) {
    dist.node_instrument(n)->FailNextWrites(1);
  }
  const auto v2 = Payload(ChunkKey{99, 0, 0}, 800);
  EXPECT_FALSE(dist.WriteChunk(key, v2.data(), 800));

  EXPECT_EQ(dist.ChunkSize(key), 1000);
  std::vector<char> buf(kChunkBytes);
  ASSERT_EQ(dist.ReadChunk(key, buf.data(), kChunkBytes), 1000);
  EXPECT_EQ(std::memcmp(buf.data(), v1.data(), 1000), 0);
  dist.Quiesce();
  EXPECT_FALSE(dist.RepairQueued(key));
  EXPECT_TRUE(dist.CheckReplication(key).FullyReplicated());
}

TEST(DistributedColdBackendTest, CapacityModelPlacesAroundFullNodes) {
  DistributedColdBackend dist(3, kChunkBytes);
  // Node 0 can hold only two 1 KiB copies; the walk places around it once full.
  dist.set_node_capacity(0, 2048);
  const auto keys = Keys(10, 30);
  for (const auto& key : keys) {
    const auto data = Payload(key, 1024);
    ASSERT_TRUE(dist.WriteChunk(key, data.data(), 1024));
  }
  EXPECT_LE(dist.node_store(0)->Stats().bytes_stored, 2048);
  // Every chunk still reached two nodes (1 and 2 absorb the overflow).
  for (const auto& key : keys) {
    int copies = 0;
    for (int n = 0; n < 3; ++n) {
      copies += dist.node_store(n)->HasChunk(key) ? 1 : 0;
    }
    EXPECT_EQ(copies, 2) << key.chunk_index;
  }
  EXPECT_EQ(dist.Stats().degraded_writes, 0);
}

// A key whose primary is full spills to the next node on its walk. Freeing room on
// the primary moves the key's home set back onto it, so each way of freeing it (a
// chunk delete, a context delete, a larger capacity) must queue the key, and
// Quiesce must copy it onto its primary.
TEST(DistributedColdBackendTest, FreeingRoomOnAFullNodeQueuesTheKeysHomedThere) {
  for (const char* how : {"DeleteChunk", "DeleteContext", "set_node_capacity"}) {
    SCOPED_TRACE(how);
    DistributedColdBackend dist(3, kChunkBytes);
    const PlacementTable table({0, 1, 2});
    const ChunkKey filler{16, 0, 0};
    const int primary = table.WalkOrder(filler)[0];
    ChunkKey key{17, 0, 0};
    while (table.WalkOrder(key)[0] != primary) {
      ++key.chunk_index;
    }
    dist.set_node_capacity(primary, 1000);
    const auto fill = Payload(filler, 1000);
    ASSERT_TRUE(dist.WriteChunk(filler, fill.data(), 1000));
    ASSERT_TRUE(dist.node_store(primary)->HasChunk(filler));
    const auto data = Payload(key, 1000);
    ASSERT_TRUE(dist.WriteChunk(key, data.data(), 1000));
    ASSERT_FALSE(dist.node_store(primary)->HasChunk(key)) << "the full primary took it";
    dist.Quiesce();
    ASSERT_FALSE(dist.RepairQueued(key)) << "at home on the spill nodes while full";

    if (std::string(how) == "DeleteChunk") {
      ASSERT_TRUE(dist.DeleteChunk(filler));
    } else if (std::string(how) == "DeleteContext") {
      dist.DeleteContext(filler.context_id);
    } else {
      dist.set_node_capacity(primary, 2000);
    }
    EXPECT_TRUE(dist.RepairQueued(key));
    dist.Quiesce();
    EXPECT_TRUE(dist.node_store(primary)->HasChunk(key)) << "the primary never got its copy";
    EXPECT_FALSE(dist.RepairQueued(key));
    EXPECT_TRUE(dist.CheckReplication(key).FullyReplicated());
  }
}

// --------------------------------------------------------------------------
// Cold recovery from node stores
// --------------------------------------------------------------------------

TEST(DistributedColdBackendTest, RecoversLogicalIndexFromFileBackendNodes) {
  const TestDir base("dist_recover");
  const auto factory = [&base](int node_id, int64_t chunk_bytes) {
    return std::make_unique<FileBackend>(
        std::vector<std::string>{(base / ("node" + std::to_string(node_id))).string()},
        chunk_bytes);
  };
  const auto keys = Keys(11, 10);
  {
    DistributedColdBackend dist(3, kChunkBytes, {}, factory);
    for (const auto& key : keys) {
      const auto data = Payload(key, 1300);
      ASSERT_TRUE(dist.WriteChunk(key, data.data(), 1300));
    }
  }
  {
    // A fresh process over the same node directories: chunks readable again,
    // replication intact — the fsck-opens-a-store-cold path.
    DistributedColdBackend dist(3, kChunkBytes, {}, factory);
    EXPECT_EQ(dist.Stats().chunks_stored, static_cast<int64_t>(keys.size()));
    EXPECT_EQ(dist.Stats().under_replicated_chunks, 0);
    for (const auto& key : keys) {
      ASSERT_TRUE(dist.HasChunk(key));
      EXPECT_EQ(dist.ChunkSize(key), 1300);
      std::vector<char> buf(kChunkBytes);
      ASSERT_EQ(dist.ReadChunk(key, buf.data(), kChunkBytes), 1300);
      const auto want = Payload(key, 1300);
      EXPECT_EQ(std::memcmp(buf.data(), want.data(), 1300), 0);
      EXPECT_TRUE(dist.CheckReplication(key).FullyReplicated());
    }
  }
  // Lose one node's directory wholesale: the rebuilt index must flag every chunk
  // that lived there as under-replicated, and repair must restore them — but only
  // when asked. Opening, Stats, CheckReplication and a report-only fsck leave every
  // node store as it was on disk (hcache-fsck's report mode relies on this).
  fs::remove_all(base / "node1");
  std::vector<Listing> on_disk;
  for (int n = 0; n < 3; ++n) {
    on_disk.push_back(Sorted(factory(n, kChunkBytes)->ListChunks()));
  }
  ASSERT_TRUE(on_disk[1].empty());
  {
    DistributedColdBackend dist(3, kChunkBytes, {}, factory);
    EXPECT_EQ(NodeListings(dist), on_disk) << "opening the store changed a node";
    EXPECT_GT(dist.Stats().under_replicated_chunks, 0);
    for (const auto& key : keys) {
      dist.CheckReplication(key);
    }
    const FsckReport report = RunFsck(&dist);
    EXPECT_FALSE(report.Healthy());
    EXPECT_EQ(report.repaired, 0);
    EXPECT_EQ(NodeListings(dist), on_disk) << "a report-only pass changed a node";
    dist.Quiesce();
    EXPECT_NE(NodeListings(dist)[1], on_disk[1]) << "Quiesce must restore node1's copies";
    EXPECT_EQ(dist.Stats().under_replicated_chunks, 0);
    for (const auto& key : keys) {
      EXPECT_TRUE(dist.CheckReplication(key).FullyReplicated()) << key.chunk_index;
    }
  }
}

// --------------------------------------------------------------------------
// Seeded fault script: oracle-checked, and replays exactly from its seed
// --------------------------------------------------------------------------

// Where a script run leaves the store: compared field for field across replays.
struct ScriptEnd {
  StorageStats stats;
  std::vector<DistributedColdBackend::NodeInfo> nodes;
  std::vector<Listing> listings;
  int64_t hits = 0;
  int64_t misses = 0;
  int64_t corrupt = 0;
  int64_t in_io_flips = 0;  // hooks that fired inside node IO
};

// Runs `steps` seeded operations on a 4-node, R=2 backend: writes of varied sizes,
// verified reads, DeleteContext, node down/up (at most two down, so a write always
// reaches two nodes), with `in_io_faults` one-shot hooks that flip a node down or
// up from inside a node's next read or write, at-rest bit flips, Quiesce and
// Balance. An oracle map holds what each live key must read back; every read must
// return exactly those bytes, a miss or kChunkCorrupt — never other bytes, and
// never bytes for a deleted key. After every step, every live key that is not at
// home must be queued for repair; "at home" is worked out here from placement,
// the script's own down set and the node stores' bytes, not from the backend's
// predicate.
ScriptEnd RunSeededScript(uint64_t seed, int steps, bool in_io_faults = false) {
  DistributedColdBackend dist(4, kChunkBytes);
  const PlacementTable table({0, 1, 2, 3});
  Rng rng(seed);
  std::map<ChunkKey, std::vector<char>> oracle;
  std::set<int> down;
  ScriptEnd end;

  const auto flip_random_node = [&] {
    const int node = static_cast<int>(rng.NextBounded(4));
    if (down.erase(node) > 0) {
      EXPECT_TRUE(dist.SetNodeUp(node));
    } else if (down.size() < 2) {
      down.insert(node);
      EXPECT_TRUE(dist.SetNodeDown(node));
    }
  };
  // Per node: 0 = no hook armed, 1 = its next read flips a node, 2 = its next write.
  std::vector<int> armed(4, 0);
  for (int n = 0; n < 4; ++n) {
    const auto fire = [&, n](int kind) {
      if (armed[static_cast<size_t>(n)] == kind) {
        armed[static_cast<size_t>(n)] = 0;
        ++end.in_io_flips;
        flip_random_node();
      }
    };
    dist.node_instrument(n)->set_read_hook([fire](const ChunkKey&) { fire(1); });
    dist.node_instrument(n)->set_write_hook([fire](const ChunkKey&) { fire(2); });
  }

  // Bits the script flipped in each (node, key) copy since the copy was last clean.
  std::map<std::pair<int, ChunkKey>, std::vector<int64_t>> flipped;
  std::vector<char> copy(kChunkBytes);
  // Whether `node` stores `want` for `key`, clean or (with `undo_flips`) damaged
  // only by the script's own bit flips. node_store sits under the hooks.
  const auto holds = [&](int node, const ChunkKey& key, const std::vector<char>& want,
                         bool undo_flips) {
    const int64_t got = dist.node_store(node)->ReadChunkUnverified(key, copy.data(), kChunkBytes);
    if (got != static_cast<int64_t>(want.size())) {
      return false;
    }
    if (std::memcmp(copy.data(), want.data(), want.size()) == 0) {
      return true;
    }
    if (!undo_flips) {
      return false;
    }
    for (const int64_t bit : flipped[{node, key}]) {
      copy[static_cast<size_t>(bit / 8)] ^= static_cast<char>(1u << (bit % 8));
    }
    return std::memcmp(copy.data(), want.data(), want.size()) == 0;
  };
  // A key that is not queued must be at home: every node of its home set (the
  // first two nodes of its walk that the script has not downed) holds it.
  const auto check_queue_invariant = [&](int step) {
    for (const auto& [key, want] : oracle) {
      if (dist.RepairQueued(key)) {
        continue;
      }
      size_t home = 0;
      for (const int n : table.WalkOrder(key)) {
        if (home < 2 && down.count(n) == 0) {
          ++home;
          EXPECT_TRUE(holds(n, key, want, /*undo_flips=*/true))
              << "step " << step << ": chunk " << key.context_id << "/" << key.layer << "/"
              << key.chunk_index << " is not queued, yet its home node " << n << " lacks it";
        }
      }
    }
  };
  const auto random_key = [&rng] {
    return ChunkKey{static_cast<int64_t>(rng.NextBounded(5)),
                    static_cast<int64_t>(rng.NextBounded(2)),
                    static_cast<int64_t>(rng.NextBounded(4))};
  };
  // A live key (when there is one) two times in three, else any key.
  const auto pick_key = [&]() -> ChunkKey {
    if (oracle.empty() || rng.NextBounded(3) == 0) {
      return random_key();
    }
    auto it = oracle.begin();
    std::advance(it, static_cast<long>(rng.NextBounded(oracle.size())));
    return it->first;
  };
  std::vector<char> buf(kChunkBytes);
  const auto check_read = [&](const ChunkKey& key) {
    buf.assign(buf.size(), '\x5a');
    const int64_t got = dist.ReadChunk(key, buf.data(), kChunkBytes);
    const auto it = oracle.find(key);
    if (it == oracle.end()) {
      EXPECT_EQ(got, -1) << "a deleted or never-written key read as present";
      return;
    }
    if (got == -1) {
      ++end.misses;
    } else if (got == kChunkCorrupt) {
      ++end.corrupt;
    } else {
      ++end.hits;
      ASSERT_EQ(got, static_cast<int64_t>(it->second.size()));
      EXPECT_EQ(std::memcmp(buf.data(), it->second.data(), it->second.size()), 0)
          << "wrong bytes served for chunk " << key.context_id << "/" << key.layer << "/"
          << key.chunk_index;
    }
  };

  for (int step = 0; step < steps; ++step) {
    const uint64_t op = rng.NextBounded(100);
    if (op < 35) {
      const ChunkKey key = random_key();
      const int64_t rows = 1 + static_cast<int64_t>(rng.NextBounded(24));
      std::vector<char> data(
          static_cast<size_t>(EncodedChunkBytes(ChunkCodec::kFp32, rows, 32)));
      const uint64_t salt = rng.Next();
      for (size_t i = sizeof(ChunkHeader); i < data.size(); ++i) {
        data[i] = static_cast<char>((salt >> (i % 57)) + i);
      }
      WriteChunkHeader(ChunkCodec::kFp32, rows, 32, data.data());
      EXPECT_TRUE(dist.WriteChunk(key, data.data(), static_cast<int64_t>(data.size())));
      oracle[key] = std::move(data);
    } else if (op < 70) {
      if (in_io_faults && op >= 66) {
        armed[rng.NextBounded(4)] = 1 + static_cast<int>(rng.NextBounded(2));
      } else {
        check_read(pick_key());
      }
    } else if (op < 73) {
      const int64_t ctx = static_cast<int64_t>(rng.NextBounded(5));
      dist.DeleteContext(ctx);
      std::erase_if(oracle, [ctx](const auto& kv) { return kv.first.context_id == ctx; });
    } else if (op < 78) {
      const int node = static_cast<int>(rng.NextBounded(4));
      if (down.size() < 2 && down.insert(node).second) {
        EXPECT_TRUE(dist.SetNodeDown(node));
      }
    } else if (op < 84) {
      if (!down.empty()) {
        auto it = down.begin();
        std::advance(it, static_cast<long>(rng.NextBounded(down.size())));
        EXPECT_TRUE(dist.SetNodeUp(*it));
        down.erase(it);
      }
    } else if (op < 94) {
      // Flip a payload bit in one node's at-rest copy (current or stale).
      if (!oracle.empty()) {
        auto it = oracle.begin();
        std::advance(it, static_cast<long>(rng.NextBounded(oracle.size())));
        std::vector<int> holders;
        for (int n = 0; n < 4; ++n) {
          if (dist.node_store(n)->HasChunk(it->first)) {
            holders.push_back(n);
          }
        }
        const int node = holders[rng.NextBounded(holders.size())];
        const int64_t payload = static_cast<int64_t>(it->second.size() - sizeof(ChunkHeader));
        const int64_t byte =
            static_cast<int64_t>(sizeof(ChunkHeader)) +
            static_cast<int64_t>(rng.NextBounded(static_cast<uint64_t>(payload)));
        if (holds(node, it->first, it->second, /*undo_flips=*/false)) {
          flipped.erase({node, it->first});  // the copy was rewritten clean
        }
        EXPECT_TRUE(dist.node_instrument(node)->CorruptChunk(it->first, 8 * byte));
        flipped[{node, it->first}].push_back(8 * byte);
      }
    } else if (op < 98) {
      dist.Quiesce();
    } else {
      dist.Balance();
    }
    check_queue_invariant(step);
    if (::testing::Test::HasFailure()) {
      return end;
    }
  }
  armed.assign(4, 0);  // no flips during the end check, which needs every node up

  // Every node back up and repaired: each live key now reads its bytes or, if no
  // clean copy survived the bit flips, kChunkCorrupt; deleted keys stay absent.
  for (const int node : down) {
    EXPECT_TRUE(dist.SetNodeUp(node));
  }
  dist.Quiesce();
  for (int64_t ctx = 0; ctx < 5; ++ctx) {
    for (int64_t layer = 0; layer < 2; ++layer) {
      for (int64_t c = 0; c < 4; ++c) {
        const ChunkKey key{ctx, layer, c};
        const int64_t misses = end.misses;
        check_read(key);
        EXPECT_EQ(end.misses, misses) << "a live key missed with every node up";
      }
    }
  }
  end.stats = dist.Stats();
  end.nodes = dist.NodeTable();
  end.listings = NodeListings(dist);
  return end;
}

TEST(DistributedColdBackendTest, SeededFaultScriptsKeepEveryKeyOffHomeQueued) {
  for (uint64_t seed = 1; seed <= 50; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const ScriptEnd end = RunSeededScript(seed, 600, /*in_io_faults=*/true);
    ASSERT_FALSE(::testing::Test::HasFailure());
    EXPECT_GT(end.in_io_flips, 0);
  }
}

TEST(DistributedColdBackendTest, SeededFaultScriptMatchesTheOracleAndReplaysExactly) {
  constexpr uint64_t kSeed = 20260301;
  constexpr int kSteps = 600;
  const ScriptEnd first = RunSeededScript(kSeed, kSteps);
  const ScriptEnd second = RunSeededScript(kSeed, kSteps);

  // The script exercised what it claims to: hits, misses, failovers, reads with
  // no clean copy left, and repair traffic all happened.
  EXPECT_GT(first.hits, 0);
  EXPECT_GT(first.misses, 0);
  EXPECT_GT(first.corrupt, 0);
  EXPECT_EQ(first.stats.crc_failures, first.corrupt);
  EXPECT_GT(first.stats.failover_reads, 0);
  EXPECT_GT(first.stats.re_replicated_chunks, 0);

  // Exact replay: no thread of the backend's own races the script.
  EXPECT_TRUE(first.stats == second.stats) << "Stats() diverged between replays";
  EXPECT_EQ(first.nodes, second.nodes);
  EXPECT_EQ(first.listings, second.listings);
  EXPECT_EQ(first.hits, second.hits);
  EXPECT_EQ(first.misses, second.misses);
  EXPECT_EQ(first.corrupt, second.corrupt);
}

}  // namespace
}  // namespace hcache
