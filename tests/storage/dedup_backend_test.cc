// DedupBackend-specific behavior: content sharing, refcount lifecycle, collision
// chaining, and the fsck audit invariants. The generic StorageBackend contract is
// covered by the parameterized conformance suites (storage_backend_test.cc,
// read_chunks_test.cc), which run dedup rows too.
#include "src/storage/dedup_backend.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <filesystem>
#include <memory>
#include <random>
#include <thread>
#include <vector>

#include "src/storage/file_backend.h"
#include "src/storage/memory_backend.h"
#include "src/storage/tiered_backend.h"
#include "tests/test_dir.h"

namespace hcache {
namespace {

constexpr int64_t kChunkBytes = 4096;

std::vector<char> Payload(int64_t size, char fill) { return std::vector<char>(size, fill); }

class DedupBackendTest : public ::testing::Test {
 protected:
  DedupBackendTest() : base_(kChunkBytes), dedup_(&base_) {}

  MemoryBackend base_;
  DedupBackend dedup_;
};

TEST_F(DedupBackendTest, IdenticalContentIsStoredOnce) {
  const auto data = Payload(1000, 'x');
  constexpr int64_t kCopies = 16;
  for (int64_t ctx = 0; ctx < kCopies; ++ctx) {
    ASSERT_TRUE(dedup_.WriteChunk({ctx, 0, 0}, data.data(), 1000));
  }
  const StorageStats s = dedup_.Stats();
  EXPECT_EQ(s.chunks_stored, kCopies);       // logical view: every key present
  EXPECT_EQ(s.bytes_stored, kCopies * 1000);  // logical bytes
  EXPECT_EQ(s.unique_chunks, 1);              // physical reality: one copy
  EXPECT_EQ(s.dedup_hits, kCopies - 1);
  EXPECT_EQ(s.dedup_bytes_saved, (kCopies - 1) * 1000);
  EXPECT_EQ(dedup_.PhysicalBytes(), 1000);
  EXPECT_EQ(base_.chunks_stored(), 1);  // the wrapped store holds exactly one chunk

  // Every logical key reads back the full content.
  std::vector<char> buf(kChunkBytes);
  for (int64_t ctx = 0; ctx < kCopies; ++ctx) {
    ASSERT_EQ(dedup_.ReadChunk({ctx, 0, 0}, buf.data(), kChunkBytes), 1000);
    EXPECT_EQ(std::memcmp(buf.data(), data.data(), 1000), 0);
  }
}

TEST_F(DedupBackendTest, DeleteDecrefsAndLastReferentFreesPhysical) {
  const auto data = Payload(800, 's');
  ASSERT_TRUE(dedup_.WriteChunk({1, 0, 0}, data.data(), 800));
  ASSERT_TRUE(dedup_.WriteChunk({2, 0, 0}, data.data(), 800));
  ASSERT_TRUE(dedup_.DeleteChunk({1, 0, 0}));
  // One referent remains: the bytes must stay.
  EXPECT_EQ(dedup_.Stats().unique_chunks, 1);
  EXPECT_EQ(base_.chunks_stored(), 1);
  std::vector<char> buf(kChunkBytes);
  ASSERT_EQ(dedup_.ReadChunk({2, 0, 0}, buf.data(), kChunkBytes), 800);
  // Last referent gone: physical chunk leaves the wrapped backend.
  dedup_.DeleteContext(2);
  EXPECT_EQ(dedup_.Stats().unique_chunks, 0);
  EXPECT_EQ(dedup_.PhysicalBytes(), 0);
  EXPECT_EQ(base_.chunks_stored(), 0);
}

TEST_F(DedupBackendTest, OverwriteMovesReferenceAndFreesUnsharedContent) {
  const auto a = Payload(700, 'a');
  const auto b = Payload(900, 'b');
  ASSERT_TRUE(dedup_.WriteChunk({1, 0, 0}, a.data(), 700));
  ASSERT_TRUE(dedup_.WriteChunk({1, 0, 0}, b.data(), 900));
  // 'a' had a single referent; the overwrite released it.
  EXPECT_EQ(dedup_.Stats().unique_chunks, 1);
  EXPECT_EQ(dedup_.PhysicalBytes(), 900);
  std::vector<char> buf(kChunkBytes);
  ASSERT_EQ(dedup_.ReadChunk({1, 0, 0}, buf.data(), kChunkBytes), 900);
  EXPECT_EQ(buf[0], 'b');

  // Re-writing identical content at the same key is a no-op for refcounts:
  // repeatedly sealing a partial chunk must not leak references.
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(dedup_.WriteChunk({1, 0, 0}, b.data(), 900));
  }
  EXPECT_EQ(dedup_.Stats().unique_chunks, 1);
  ASSERT_TRUE(dedup_.DeleteChunk({1, 0, 0}));
  EXPECT_EQ(dedup_.Stats().unique_chunks, 0);
  EXPECT_EQ(base_.chunks_stored(), 0);
}

TEST_F(DedupBackendTest, TrueHashCollisionChainsToFreshChunk) {
  // Force every payload onto one content hash: verify_bytes must catch the
  // mismatch and chain to a fresh physical slot instead of aliasing.
  dedup_.SetContentHashForTest(
      [](const void*, int64_t) { return ContentHash{0x1234, 0x5678}; });
  const auto a = Payload(1000, 'a');
  const auto b = Payload(1000, 'b');  // same size, same (forced) hash, different bytes
  ASSERT_TRUE(dedup_.WriteChunk({1, 0, 0}, a.data(), 1000));
  ASSERT_TRUE(dedup_.WriteChunk({2, 0, 0}, b.data(), 1000));
  EXPECT_EQ(dedup_.Stats().unique_chunks, 2);
  EXPECT_EQ(dedup_.collision_chains(), 1);
  EXPECT_EQ(dedup_.Stats().dedup_hits, 0);

  // Each stream still dedups against its own chain slot.
  ASSERT_TRUE(dedup_.WriteChunk({3, 0, 0}, a.data(), 1000));
  ASSERT_TRUE(dedup_.WriteChunk({4, 0, 0}, b.data(), 1000));
  EXPECT_EQ(dedup_.Stats().unique_chunks, 2);
  EXPECT_EQ(dedup_.Stats().dedup_hits, 2);

  std::vector<char> buf(kChunkBytes);
  ASSERT_EQ(dedup_.ReadChunk({1, 0, 0}, buf.data(), kChunkBytes), 1000);
  EXPECT_EQ(buf[0], 'a');
  ASSERT_EQ(dedup_.ReadChunk({2, 0, 0}, buf.data(), kChunkBytes), 1000);
  EXPECT_EQ(buf[0], 'b');
  EXPECT_TRUE(dedup_.AuditIndex().Healthy());
}

TEST_F(DedupBackendTest, DistinctContentHashesAreDistinct) {
  // Sanity on the production hash: distinct payloads (including same-length ones)
  // get distinct hashes; identical payloads hash identically.
  const auto a = Payload(1000, 'a');
  const auto b = Payload(1000, 'b');
  const ContentHash ha = HashChunkContent(a.data(), 1000);
  const ContentHash hb = HashChunkContent(b.data(), 1000);
  EXPECT_NE(ha, hb);
  EXPECT_EQ(ha, HashChunkContent(a.data(), 1000));
  // Length participates: a prefix of a payload hashes differently.
  EXPECT_NE(ha, HashChunkContent(a.data(), 999));
}

TEST_F(DedupBackendTest, AuditDetectsAndRepairsOrphanPhysical) {
  const auto data = Payload(600, 'k');
  ASSERT_TRUE(dedup_.WriteChunk({1, 0, 0}, data.data(), 600));
  // Seed an orphan directly in the wrapped store (a crash between physical write
  // and index publish would leave exactly this).
  ASSERT_TRUE(base_.WriteChunk({42, 42, 42}, data.data(), 600));

  DedupAuditReport report = dedup_.AuditIndex();
  EXPECT_FALSE(report.Healthy());
  EXPECT_EQ(report.orphan_physical, 1);
  EXPECT_EQ(report.missing_physical, 0);

  report = dedup_.AuditIndex(/*repair=*/true);
  EXPECT_EQ(report.orphan_physical, 1);
  ASSERT_EQ(report.findings.size(), 1u);
  EXPECT_TRUE(report.findings[0].repaired);
  EXPECT_FALSE(base_.HasChunk({42, 42, 42}));
  EXPECT_TRUE(dedup_.AuditIndex().Healthy());
  // The legitimate chunk survived repair.
  std::vector<char> buf(kChunkBytes);
  ASSERT_EQ(dedup_.ReadChunk({1, 0, 0}, buf.data(), kChunkBytes), 600);
}

TEST_F(DedupBackendTest, AuditDetectsAndRepairsMissingPhysical) {
  const auto data = Payload(600, 'm');
  ASSERT_TRUE(dedup_.WriteChunk({1, 0, 0}, data.data(), 600));
  ASSERT_TRUE(dedup_.WriteChunk({2, 0, 0}, data.data(), 600));
  // Lose the physical bytes behind the index's back.
  const auto phys = dedup_.ListPhysicalChunks();
  ASSERT_EQ(phys.size(), 1u);
  ASSERT_TRUE(base_.DeleteChunk(phys[0].first));

  DedupAuditReport report = dedup_.AuditIndex();
  EXPECT_FALSE(report.Healthy());
  EXPECT_EQ(report.missing_physical, 1);

  report = dedup_.AuditIndex(/*repair=*/true);
  ASSERT_EQ(report.findings.size(), 1u);
  EXPECT_TRUE(report.findings[0].repaired);
  // Both referents now read as absent — the recompute-fallback contract — instead
  // of failing forever on a dead physical key.
  std::vector<char> buf(kChunkBytes);
  EXPECT_EQ(dedup_.ReadChunk({1, 0, 0}, buf.data(), kChunkBytes), -1);
  EXPECT_EQ(dedup_.ReadChunk({2, 0, 0}, buf.data(), kChunkBytes), -1);
  EXPECT_FALSE(dedup_.HasChunk({1, 0, 0}));
  EXPECT_TRUE(dedup_.AuditIndex().Healthy());
  EXPECT_EQ(dedup_.Stats().unique_chunks, 0);
}

TEST_F(DedupBackendTest, TieredStackSurfacesDedupFigures) {
  // dedup as the cold plane under the DRAM tier: the stack's Stats() must surface
  // the sharing figures so operators see them without reaching into the stack.
  MemoryBackend inner(kChunkBytes);
  DedupBackend dedup(&inner);
  TieredBackend tiered(&dedup, /*dram_budget_bytes=*/2 * kChunkBytes);
  const auto data = Payload(kChunkBytes, 'z');
  for (int64_t ctx = 0; ctx < 8; ++ctx) {
    ASSERT_TRUE(tiered.WriteChunk({ctx, 0, 0}, data.data(), kChunkBytes));
  }
  const StorageStats s = tiered.Stats();
  EXPECT_EQ(s.unique_chunks, 1);
  EXPECT_GT(s.dedup_hits, 0);
  EXPECT_GT(s.dedup_bytes_saved, 0);
}

TEST(DedupOverFileTest, PhysicalChunksStripeAcrossDevices) {
  // FileBackend places a chunk on device chunk_index % devices, so the physical key
  // must carry hash bits there: a collision-chain slot (0 for every chunk here)
  // would put every physical chunk on device 0.
  TestDir dir("dedup");
  const std::vector<std::filesystem::path> devices = {dir / "dev0", dir / "dev1"};
  FileBackendOptions options;
  options.fsync_writes = false;
  FileBackend file({devices[0].string(), devices[1].string()}, kChunkBytes, options);
  DedupBackend dedup(&file);
  constexpr int kChunks = 200;
  for (int i = 0; i < kChunks; ++i) {
    std::vector<char> data = Payload(256, 'd');
    std::memcpy(data.data(), &i, sizeof(i));
    ASSERT_TRUE(dedup.WriteChunk({1, 0, i}, data.data(), 256));
  }
  ASSERT_EQ(dedup.Stats().unique_chunks, kChunks);
  int total = 0;
  std::vector<int> segments;
  for (const auto& device : devices) {
    int count = 0;
    for (const auto& e : std::filesystem::directory_iterator(device)) {
      count += e.path().extension() == ".seg" ? 1 : 0;
    }
    segments.push_back(count);
    total += count;
  }
  ASSERT_EQ(total, kChunks);  // one segment per physical chunk
  for (size_t d = 0; d < devices.size(); ++d) {
    EXPECT_GE(3 * segments[d], total) << "device " << d << " holds " << segments[d];
    EXPECT_LE(3 * segments[d], 2 * total) << "device " << d << " holds " << segments[d];
  }
}

TEST_F(DedupBackendTest, RefcountConservationHammer) {
  // Concurrent Put/Delete storm over a small pool of identical payloads. At every
  // quiesce point: unique_chunks <= logical chunks, unique_chunks <= distinct
  // contents, every surviving key reads back its exact bytes, and the audit finds
  // zero drift. Run under TSan in CI.
  constexpr int kThreads = 8;
  constexpr int kOpsEach = 400;
  constexpr int kContents = 4;
  constexpr int kKeysPerThread = 16;
  constexpr int64_t kBytes = 512;
  std::vector<std::vector<char>> contents;
  for (int c = 0; c < kContents; ++c) {
    contents.push_back(Payload(kBytes, static_cast<char>('A' + c)));
  }

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::mt19937_64 rng(static_cast<uint64_t>(t) * 7919 + 13);
      for (int op = 0; op < kOpsEach; ++op) {
        const ChunkKey key{t, 0, static_cast<int64_t>(rng() % kKeysPerThread)};
        if (rng() % 3 == 0) {
          dedup_.DeleteChunk(key);  // may or may not exist; both are fine
        } else {
          const auto& data = contents[rng() % kContents];
          if (!dedup_.WriteChunk(key, data.data(), kBytes)) {
            failures.fetch_add(1);
          }
        }
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }

  EXPECT_EQ(failures.load(), 0);
  const StorageStats s = dedup_.Stats();
  EXPECT_LE(s.unique_chunks, s.chunks_stored);
  EXPECT_LE(s.unique_chunks, kContents);
  EXPECT_EQ(s.bytes_stored, s.chunks_stored * kBytes);
  EXPECT_EQ(dedup_.PhysicalBytes(), s.unique_chunks * kBytes);
  // Every surviving logical chunk reads back one of the pool contents, intact.
  std::vector<char> buf(kChunkBytes);
  for (const auto& [key, bytes] : dedup_.ListChunks()) {
    ASSERT_EQ(dedup_.ReadChunk(key, buf.data(), kChunkBytes), kBytes);
    bool matches_some = false;
    for (const auto& c : contents) {
      matches_some = matches_some || std::memcmp(buf.data(), c.data(), kBytes) == 0;
    }
    EXPECT_TRUE(matches_some);
  }
  const DedupAuditReport report = dedup_.AuditIndex();
  EXPECT_TRUE(report.Healthy()) << "refcount drift after concurrent Put/Delete";
  // Wrapped store and index agree chunk-for-chunk.
  EXPECT_EQ(static_cast<int64_t>(base_.ListChunks().size()), s.unique_chunks);
}

TEST_F(DedupBackendTest, ConcurrentWritersOfSameNewContentConvergeOnOneCopy) {
  // The kWriting wait path: many threads race to publish the SAME content that is
  // not yet stored. Exactly one physical copy must result.
  constexpr int kThreads = 8;
  const auto data = Payload(2048, 'q');
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      if (!dedup_.WriteChunk({t, 0, 0}, data.data(), 2048)) {
        failures.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(dedup_.Stats().unique_chunks, 1);
  EXPECT_EQ(dedup_.Stats().dedup_hits, kThreads - 1);
  EXPECT_EQ(base_.chunks_stored(), 1);
  EXPECT_TRUE(dedup_.AuditIndex().Healthy());
}

}  // namespace
}  // namespace hcache
