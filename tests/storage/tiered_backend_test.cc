// TieredBackend behavior pins: LRU victim choice, write-back volume, promotion,
// write-through, and cross-tier delete. These tests run single-threaded over the
// tier's one context LRU, so every stat is deterministic — eviction decisions and
// flush counts follow from the call sequence alone. Flushes racing other threads and
// the no-lock-across-IO discipline are covered by tiered_async_test.cc.
#include "src/storage/tiered_backend.h"

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <memory>
#include <vector>

#include "src/storage/file_backend.h"
#include "src/storage/memory_backend.h"
#include "tests/test_dir.h"

namespace hcache {
namespace {

constexpr int64_t kChunkBytes = 1024;

class TieredBackendTest : public ::testing::Test {
 protected:
  void SetUp() override {
    cold_ = std::make_unique<FileBackend>(
        std::vector<std::string>{(base_ / "d0").string(), (base_ / "d1").string()},
        kChunkBytes);
  }

  // Writes `chunks` full chunks for `ctx`, filled with a context-distinct byte.
  static void FillContext(TieredBackend& t, int64_t ctx, int64_t chunks) {
    const std::vector<char> data(kChunkBytes, static_cast<char>('a' + ctx % 26));
    for (int64_t c = 0; c < chunks; ++c) {
      ASSERT_TRUE(t.WriteChunk({ctx, 0, c}, data.data(), kChunkBytes));
    }
  }

  TestDir base_{"tiered"};
  std::unique_ptr<FileBackend> cold_;
};

TEST_F(TieredBackendTest, WritesStayInDramUnderBudget) {
  TieredBackend tiered(cold_.get(), 8 * kChunkBytes);
  FillContext(tiered, 1, 4);
  EXPECT_EQ(tiered.dram_bytes(), 4 * kChunkBytes);
  EXPECT_TRUE(tiered.IsDramResident({1, 0, 0}));
  // Nothing was evicted, so the cold tier saw no writes at all (write-back, not
  // write-through).
  EXPECT_EQ(cold_->total_writes(), 0);
  EXPECT_FALSE(cold_->HasChunk({1, 0, 0}));
  // Reads are DRAM hits.
  std::vector<char> buf(kChunkBytes);
  ASSERT_EQ(tiered.ReadChunk({1, 0, 0}, buf.data(), kChunkBytes), kChunkBytes);
  EXPECT_EQ(tiered.Stats().dram_hits, 1);
  EXPECT_EQ(tiered.Stats().cold_hits, 0);
}

TEST_F(TieredBackendTest, LruContextEvictedToFileTier) {
  // Budget holds two 4-chunk contexts; the third pushes out the least recently used.
  TieredBackend tiered(cold_.get(), 8 * kChunkBytes);
  FillContext(tiered, 1, 4);
  FillContext(tiered, 2, 4);
  // Touch ctx 1 so ctx 2 is the LRU victim.
  std::vector<char> buf(kChunkBytes);
  ASSERT_EQ(tiered.ReadChunk({1, 0, 0}, buf.data(), kChunkBytes), kChunkBytes);
  FillContext(tiered, 3, 4);

  EXPECT_FALSE(tiered.IsDramResident({2, 0, 0}));
  EXPECT_TRUE(tiered.IsDramResident({1, 0, 0}));
  EXPECT_TRUE(tiered.IsDramResident({3, 0, 0}));
  // The victim's chunks were written back to the file tier — all of them.
  for (int64_t c = 0; c < 4; ++c) {
    EXPECT_TRUE(cold_->HasChunk({2, 0, c})) << "chunk " << c;
  }
  const StorageStats s = tiered.Stats();
  EXPECT_EQ(s.evicted_contexts, 1);
  EXPECT_EQ(s.writeback_chunks, 4);
  EXPECT_EQ(s.writeback_bytes, 4 * kChunkBytes);
  // Logically every chunk is still present.
  EXPECT_EQ(s.chunks_stored, 12);
  EXPECT_EQ(s.bytes_stored, 12 * kChunkBytes);
}

TEST_F(TieredBackendTest, ReadYourWritesAcrossEviction) {
  // Write-back correctness: bytes written before eviction must read back identical
  // after their context has been pushed to the file tier.
  TieredBackend tiered(cold_.get(), 2 * kChunkBytes);
  std::vector<char> data(kChunkBytes);
  for (int64_t i = 0; i < kChunkBytes; ++i) {
    data[static_cast<size_t>(i)] = static_cast<char>((i * 31 + 7) & 0xff);
  }
  ASSERT_TRUE(tiered.WriteChunk({1, 2, 3}, data.data(), kChunkBytes));
  // Force ctx 1 out of DRAM.
  FillContext(tiered, 2, 2);
  ASSERT_FALSE(tiered.IsDramResident({1, 2, 3}));
  ASSERT_TRUE(cold_->HasChunk({1, 2, 3}));

  std::vector<char> buf(kChunkBytes);
  ASSERT_EQ(tiered.ReadChunk({1, 2, 3}, buf.data(), kChunkBytes), kChunkBytes);
  EXPECT_EQ(std::memcmp(buf.data(), data.data(), kChunkBytes), 0);
  EXPECT_EQ(tiered.Stats().cold_hits, 1);
  // The read promoted the chunk back into DRAM.
  EXPECT_TRUE(tiered.IsDramResident({1, 2, 3}));
}

TEST_F(TieredBackendTest, PromotedChunkReEvictsWithoutRewrite) {
  // A chunk promoted clean must not be written to the cold tier again on re-eviction.
  TieredBackend tiered(cold_.get(), 2 * kChunkBytes);
  FillContext(tiered, 1, 1);
  FillContext(tiered, 2, 2);  // evicts ctx 1 (1 write-back)
  std::vector<char> buf(kChunkBytes);
  ASSERT_EQ(tiered.ReadChunk({1, 0, 0}, buf.data(), kChunkBytes), kChunkBytes);  // promote
  EXPECT_TRUE(tiered.IsDramResident({1, 0, 0}));
  FillContext(tiered, 3, 2);  // evicts again; ctx 1 chunk is clean
  const StorageStats s = tiered.Stats();
  EXPECT_EQ(s.writeback_chunks, 3);  // ctx1 once + ctx2's two chunks, not four
  ASSERT_EQ(tiered.ReadChunk({1, 0, 0}, buf.data(), kChunkBytes), kChunkBytes);
  EXPECT_EQ(buf[0], 'b');
}

TEST_F(TieredBackendTest, OverwriteAfterEvictionSupersedesColdCopy) {
  TieredBackend tiered(cold_.get(), 2 * kChunkBytes);
  const std::vector<char> v1(kChunkBytes, '1');
  const std::vector<char> v2(512, '2');
  ASSERT_TRUE(tiered.WriteChunk({1, 0, 0}, v1.data(), kChunkBytes));
  FillContext(tiered, 2, 2);  // evict ctx 1: cold now holds v1
  ASSERT_TRUE(tiered.WriteChunk({1, 0, 0}, v2.data(), 512));  // newer DRAM copy
  std::vector<char> buf(kChunkBytes);
  ASSERT_EQ(tiered.ReadChunk({1, 0, 0}, buf.data(), kChunkBytes), 512);
  EXPECT_EQ(buf[0], '2');
  EXPECT_EQ(tiered.ChunkSize({1, 0, 0}), 512);
  // Evict again: the write-back must propagate the new version to the cold tier.
  FillContext(tiered, 3, 2);
  EXPECT_EQ(cold_->ChunkSize({1, 0, 0}), 512);
}

TEST_F(TieredBackendTest, ZeroBudgetIsWriteThrough) {
  TieredBackend tiered(cold_.get(), 0);
  const std::vector<char> data(kChunkBytes, 'w');
  ASSERT_TRUE(tiered.WriteChunk({1, 0, 0}, data.data(), kChunkBytes));
  EXPECT_EQ(tiered.dram_bytes(), 0);
  EXPECT_TRUE(cold_->HasChunk({1, 0, 0}));
  std::vector<char> buf(kChunkBytes);
  ASSERT_EQ(tiered.ReadChunk({1, 0, 0}, buf.data(), kChunkBytes), kChunkBytes);
  EXPECT_EQ(tiered.Stats().cold_hits, 1);
}

TEST_F(TieredBackendTest, WriteThroughReadsNeverChurnTheHotTier) {
  // Regression (PR 5): a cold read used to promote the chunk even when the budget
  // could never hold it, forcing an immediate evict-and-flush of a clean chunk on
  // EVERY read. In write-through mode the hot tier must stay untouched end to end:
  // writes flow straight to the cold tier without phantom "evictions" (nothing was
  // ever resident) and cold-read counts track reads one-to-one.
  TieredBackend tiered(cold_.get(), 0);
  const std::vector<char> data(kChunkBytes, 'r');
  constexpr int64_t kContexts = 3;
  for (int64_t ctx = 0; ctx < kContexts; ++ctx) {
    ASSERT_TRUE(tiered.WriteChunk({ctx, 0, 0}, data.data(), kChunkBytes));
  }
  const StorageStats after_writes = tiered.Stats();
  EXPECT_EQ(after_writes.evicted_contexts, 0);  // write-through, not evict-churn
  EXPECT_EQ(after_writes.writeback_chunks, kContexts);
  std::vector<char> buf(kChunkBytes);
  constexpr int64_t kReads = 12;
  for (int64_t i = 0; i < kReads; ++i) {
    ASSERT_EQ(tiered.ReadChunk({i % kContexts, 0, 0}, buf.data(), kChunkBytes),
              kChunkBytes);
    EXPECT_FALSE(tiered.IsDramResident({i % kContexts, 0, 0}));
  }
  const StorageStats s = tiered.Stats();
  EXPECT_EQ(s.cold_hits, kReads);            // every read served by the cold tier
  EXPECT_EQ(s.dram_hits, 0);
  EXPECT_EQ(s.promotions_skipped, kReads);   // each one declined promotion
  EXPECT_EQ(s.evicted_contexts, 0);          // reads add none either
  EXPECT_EQ(s.writeback_chunks, after_writes.writeback_chunks);
  EXPECT_EQ(tiered.dram_bytes(), 0);
}

TEST_F(TieredBackendTest, DeleteContextClearsBothTiers) {
  TieredBackend tiered(cold_.get(), 2 * kChunkBytes);
  FillContext(tiered, 1, 2);
  FillContext(tiered, 2, 2);  // evicts ctx 1 to cold
  ASSERT_TRUE(cold_->HasChunk({1, 0, 0}));
  tiered.DeleteContext(1);
  tiered.DeleteContext(2);
  EXPECT_FALSE(tiered.HasChunk({1, 0, 0}));
  EXPECT_FALSE(tiered.HasChunk({2, 0, 0}));
  EXPECT_FALSE(cold_->HasChunk({1, 0, 0}));
  EXPECT_EQ(tiered.chunks_stored(), 0);
  EXPECT_EQ(tiered.bytes_stored(), 0);
  EXPECT_EQ(tiered.dram_bytes(), 0);
}

TEST_F(TieredBackendTest, DramHitRatioReflectsSkew) {
  // A hot context re-read repeatedly should trend the DRAM hit ratio upward even as
  // cold contexts cycle through.
  TieredBackend tiered(cold_.get(), 4 * kChunkBytes);
  FillContext(tiered, 100, 2);  // the hot context
  std::vector<char> buf(kChunkBytes);
  for (int64_t round = 0; round < 10; ++round) {
    FillContext(tiered, round, 2);  // cold churn
    for (int64_t c = 0; c < 2; ++c) {
      ASSERT_EQ(tiered.ReadChunk({100, 0, c}, buf.data(), kChunkBytes), kChunkBytes);
    }
  }
  const StorageStats s = tiered.Stats();
  EXPECT_GT(s.dram_hits, 0);
  EXPECT_GT(s.DramHitRatio(), 0.5);
  EXPECT_EQ(s.dram_hits + s.cold_hits, s.total_reads);
}

TEST_F(TieredBackendTest, WorksOverMemoryColdTier) {
  // The cold tier is itself pluggable — DRAM-over-DRAM still honors the contract.
  MemoryBackend mem_cold(kChunkBytes);
  TieredBackend tiered(&mem_cold, kChunkBytes);
  const std::vector<char> data(kChunkBytes, 'm');
  ASSERT_TRUE(tiered.WriteChunk({1, 0, 0}, data.data(), kChunkBytes));
  ASSERT_TRUE(tiered.WriteChunk({2, 0, 0}, data.data(), kChunkBytes));  // evicts ctx 1
  EXPECT_TRUE(mem_cold.HasChunk({1, 0, 0}));
  std::vector<char> buf(kChunkBytes);
  ASSERT_EQ(tiered.ReadChunk({1, 0, 0}, buf.data(), kChunkBytes), kChunkBytes);
  EXPECT_EQ(buf[0], 'm');
  EXPECT_EQ(tiered.Name(), "tiered(memory)");
}

TEST_F(TieredBackendTest, EvictsTheGloballyLeastRecentContext) {
  // One LRU spans the whole budget: a run of contexts whose ids share a residue
  // (here all even) competes for the whole budget with every other context, and an
  // overflow evicts the least recent context overall, whatever its id.
  MemoryBackend mem_cold(kChunkBytes);
  TieredBackend tiered(&mem_cold, 16 * kChunkBytes);
  FillContext(tiered, 0, 4);
  for (int64_t ctx = 2; ctx <= 18; ctx += 2) {
    FillContext(tiered, ctx, 1);
  }
  // 13 chunks under a 16-chunk budget: all ten contexts stay hot.
  for (int64_t ctx = 0; ctx <= 18; ctx += 2) {
    EXPECT_TRUE(tiered.IsDramResident({ctx, 0, 0})) << "ctx " << ctx;
  }
  EXPECT_EQ(tiered.Stats().evicted_contexts, 0);
  EXPECT_EQ(mem_cold.total_writes(), 0);
  // Touch ctx 0, so ctx 2 becomes the least recent context, then overflow the budget
  // by one chunk with an odd-id context.
  std::vector<char> buf(kChunkBytes);
  ASSERT_EQ(tiered.ReadChunk({0, 0, 0}, buf.data(), kChunkBytes), kChunkBytes);
  FillContext(tiered, 1, 4);
  EXPECT_FALSE(tiered.IsDramResident({2, 0, 0}));
  EXPECT_TRUE(mem_cold.HasChunk({2, 0, 0}));
  for (int64_t ctx : {0, 1, 4, 6, 8, 10, 12, 14, 16, 18}) {
    EXPECT_TRUE(tiered.IsDramResident({ctx, 0, 0})) << "ctx " << ctx;
  }
  const StorageStats s = tiered.Stats();
  EXPECT_EQ(s.evicted_contexts, 1);
  EXPECT_EQ(s.writeback_chunks, 1);
  EXPECT_EQ(tiered.dram_bytes(), 16 * kChunkBytes);
}

}  // namespace
}  // namespace hcache
