#include "src/model/kv_cache.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "src/common/rng.h"

namespace hcache {
namespace {

KvPoolConfig TinyPool(int64_t blocks = 8, int64_t block_tokens = 4) {
  KvPoolConfig c;
  c.num_blocks = blocks;
  c.block_tokens = block_tokens;
  c.num_layers = 2;
  c.kv_dim = 8;
  return c;
}

Tensor RandomKv(int64_t n, int64_t kv_dim, uint64_t seed) {
  Rng rng(seed);
  Tensor t({n, kv_dim});
  for (int64_t i = 0; i < t.numel(); ++i) {
    t.at(i) = static_cast<float>(rng.NextNormal(0, 1));
  }
  return t;
}

TEST(KvBlockPoolTest, AllocUntilExhaustion) {
  KvBlockPool pool(TinyPool(3));
  EXPECT_EQ(pool.num_free(), 3);
  EXPECT_EQ(pool.Alloc(), 0);
  EXPECT_EQ(pool.Alloc(), 1);
  EXPECT_EQ(pool.Alloc(), 2);
  EXPECT_EQ(pool.Alloc(), -1);
  EXPECT_EQ(pool.num_free(), 0);
}

TEST(KvBlockPoolTest, ReleaseRecycles) {
  KvBlockPool pool(TinyPool(2));
  const int64_t a = pool.Alloc();
  (void)pool.Alloc();
  pool.Release(a);
  EXPECT_EQ(pool.num_free(), 1);
  EXPECT_EQ(pool.Alloc(), a);
}

TEST(KvBlockPoolTest, RefCountingKeepsSharedBlocksAlive) {
  KvBlockPool pool(TinyPool(2));
  const int64_t b = pool.Alloc();
  pool.AddRef(b);
  EXPECT_EQ(pool.ref_count(b), 2);
  pool.Release(b);
  EXPECT_EQ(pool.num_free(), 1);  // still held by one ref
  pool.Release(b);
  EXPECT_EQ(pool.num_free(), 2);
}

TEST(KvBlockPoolTest, KeyValueSlabsDisjoint) {
  KvBlockPool pool(TinyPool());
  const int64_t b = pool.Alloc();
  float* k = pool.Key(b, 0);
  float* v = pool.Value(b, 0);
  EXPECT_EQ(v - k, pool.block_tokens() * 8);
  // Layers are disjoint too.
  EXPECT_NE(pool.Key(b, 0), pool.Key(b, 1));
}

TEST(KvBlockPoolTest, CapacityTokens) {
  KvBlockPool pool(TinyPool(8, 4));
  EXPECT_EQ(pool.capacity_tokens(), 32);
}

TEST(PagedKvSequenceTest, WriteReadRoundTrip) {
  KvBlockPool pool(TinyPool());
  PagedKvSequence seq(&pool);
  ASSERT_TRUE(seq.EnsureCapacity(6));
  Tensor k = RandomKv(6, 8, 1), v = RandomKv(6, 8, 2);
  for (int64_t layer = 0; layer < 2; ++layer) {
    seq.WriteKv(layer, 0, k, v);
  }
  seq.CommitTokens(6);
  Tensor k_out, v_out;
  seq.ReadKv(1, 0, 6, &k_out, &v_out);
  EXPECT_TRUE(Tensor::BitwiseEqual(k, k_out));
  EXPECT_TRUE(Tensor::BitwiseEqual(v, v_out));
}

TEST(PagedKvSequenceTest, RowAccessCrossesBlockBoundary) {
  KvBlockPool pool(TinyPool(8, 4));
  PagedKvSequence seq(&pool);
  ASSERT_TRUE(seq.EnsureCapacity(10));  // 3 blocks
  Tensor k = RandomKv(10, 8, 3), v = RandomKv(10, 8, 4);
  seq.WriteKv(0, 0, k, v);
  seq.WriteKv(1, 0, k, v);
  seq.CommitTokens(10);
  EXPECT_EQ(seq.num_blocks_held(), 3);
  // Token 5 lives in block 1 slot 1.
  const float* row = seq.KeyRow(0, 5);
  for (int64_t d = 0; d < 8; ++d) {
    EXPECT_EQ(row[d], k.at(5, d));
  }
}

// Fills `layer` of a fresh sequence with `n` committed tokens of random K/V and checks
// that BlockRows returns, for every position, the block that holds it: its first token,
// its committed row count and row pointers that read back every token's K and V.
void CheckBlockRows(int64_t block_tokens, int64_t n) {
  SCOPED_TRACE(testing::Message() << "block_tokens " << block_tokens << ", " << n
                                  << " tokens");
  KvBlockPool pool(TinyPool(16, block_tokens));
  PagedKvSequence seq(&pool);
  ASSERT_TRUE(seq.EnsureCapacity(n));
  const Tensor k = RandomKv(n, 8, 20), v = RandomKv(n, 8, 21);
  seq.WriteKv(1, 0, k, v);
  seq.CommitTokens(n);
  for (int64_t pos = 0; pos < n; ++pos) {
    const KvBlockRows rows = seq.BlockRows(1, pos);
    EXPECT_EQ(rows.first, pos / block_tokens * block_tokens) << "pos " << pos;
    EXPECT_EQ(rows.rows, std::min(block_tokens, n - rows.first)) << "pos " << pos;
    for (int64_t r = 0; r < rows.rows; ++r) {
      for (int64_t d = 0; d < 8; ++d) {
        ASSERT_EQ(rows.k[r * 8 + d], k.at(rows.first + r, d)) << "pos " << pos;
        ASSERT_EQ(rows.v[r * 8 + d], v.at(rows.first + r, d)) << "pos " << pos;
      }
    }
    // The row pointers agree with the per-token accessors.
    EXPECT_EQ(rows.k + (pos - rows.first) * 8, seq.KeyRow(1, pos));
    EXPECT_EQ(rows.v + (pos - rows.first) * 8, seq.ValueRow(1, pos));
  }
}

TEST(PagedKvSequenceTest, BlockRowsAtAndAcrossBlockBoundaries) {
  CheckBlockRows(4, 12);  // whole blocks: 0..3 | 4..7 | 8..11
  CheckBlockRows(4, 10);  // last block partial: 8..9
}

TEST(PagedKvSequenceTest, BlockRowsOneTokenBlocks) { CheckBlockRows(1, 7); }

TEST(PagedKvSequenceTest, BlockRowsFiveTokenBlocks) {
  CheckBlockRows(5, 15);
  CheckBlockRows(5, 13);
}

TEST(PagedKvSequenceTest, BlockRowsLastPartialBlockStopsAtCommittedTokens) {
  KvBlockPool pool(TinyPool(8, 4));
  PagedKvSequence seq(&pool);
  ASSERT_TRUE(seq.EnsureCapacity(8));  // two whole blocks of capacity
  const Tensor k = RandomKv(6, 8, 22), v = RandomKv(6, 8, 23);
  seq.WriteKv(0, 0, k, v);
  seq.CommitTokens(6);
  const KvBlockRows last = seq.BlockRows(0, 5);
  EXPECT_EQ(last.first, 4);
  EXPECT_EQ(last.rows, 2);  // capacity covers 8, but only tokens 4 and 5 are committed
}

TEST(PagedKvSequenceDeathTest, BlockRowsPastCapacityDies) {
  KvBlockPool pool(TinyPool(8, 4));
  PagedKvSequence seq(&pool);
  ASSERT_TRUE(seq.EnsureCapacity(6));  // two blocks: capacity 8
  const Tensor k = RandomKv(6, 8, 24), v = RandomKv(6, 8, 25);
  seq.WriteKv(0, 0, k, v);
  seq.CommitTokens(6);
  EXPECT_DEATH(seq.BlockRows(0, 8), "not committed");  // past capacity
  EXPECT_DEATH(seq.BlockRows(0, 6), "not committed");  // in capacity, not committed
  EXPECT_DEATH(seq.BlockRows(0, -1), "not committed");
  EXPECT_DEATH(seq.BlockRows(2, 0), "no layer");
}

TEST(PagedKvSequenceTest, IncrementalAppendLikeDecode) {
  KvBlockPool pool(TinyPool(8, 4));
  PagedKvSequence seq(&pool);
  for (int step = 0; step < 9; ++step) {
    ASSERT_TRUE(seq.EnsureCapacity(seq.num_tokens() + 1));
    Tensor k = RandomKv(1, 8, 100 + step), v = RandomKv(1, 8, 200 + step);
    seq.WriteKv(0, seq.num_tokens(), k, v);
    seq.WriteKv(1, seq.num_tokens(), k, v);
    seq.CommitTokens(1);
  }
  EXPECT_EQ(seq.num_tokens(), 9);
  EXPECT_EQ(seq.num_blocks_held(), 3);
}

TEST(PagedKvSequenceTest, EvictFreesBlocksKeepsHistoryLength) {
  KvBlockPool pool(TinyPool(4, 4));
  PagedKvSequence seq(&pool);
  ASSERT_TRUE(seq.EnsureCapacity(8));
  Tensor k = RandomKv(8, 8, 5), v = RandomKv(8, 8, 6);
  seq.WriteKv(0, 0, k, v);
  seq.WriteKv(1, 0, k, v);
  seq.CommitTokens(8);
  const int64_t free_before = pool.num_free();
  seq.Evict();
  EXPECT_FALSE(seq.has_kv());
  EXPECT_EQ(seq.num_tokens(), 8);  // history length survives eviction
  EXPECT_EQ(pool.num_free(), free_before + 2);
}

TEST(PagedKvSequenceTest, RestoreAfterEvictRoundTrips) {
  KvBlockPool pool(TinyPool(4, 4));
  PagedKvSequence seq(&pool);
  ASSERT_TRUE(seq.EnsureCapacity(5));
  Tensor k = RandomKv(5, 8, 7), v = RandomKv(5, 8, 8);
  seq.WriteKv(0, 0, k, v);
  seq.WriteKv(1, 0, k, v);
  seq.CommitTokens(5);
  seq.Evict();

  // Restoration path: reallocate capacity for the recorded history, refill.
  ASSERT_TRUE(seq.EnsureCapacity(seq.num_tokens()));
  seq.WriteKv(0, 0, k, v);
  seq.WriteKv(1, 0, k, v);
  Tensor k_out, v_out;
  seq.ReadKv(0, 0, 5, &k_out, &v_out);
  EXPECT_TRUE(Tensor::BitwiseEqual(k, k_out));
  EXPECT_TRUE(seq.has_kv());
}

TEST(PagedKvSequenceTest, EnsureCapacityFailsWhenPoolExhausted) {
  KvBlockPool pool(TinyPool(2, 4));
  PagedKvSequence a(&pool);
  ASSERT_TRUE(a.EnsureCapacity(8));  // takes both blocks
  PagedKvSequence b(&pool);
  EXPECT_FALSE(b.EnsureCapacity(1));
  // Failure must not leak partial allocations.
  EXPECT_EQ(pool.num_free(), 0);
  a.Evict();
  EXPECT_TRUE(b.EnsureCapacity(4));
}

TEST(PagedKvSequenceTest, DestructorReleasesBlocks) {
  KvBlockPool pool(TinyPool(4, 4));
  {
    PagedKvSequence seq(&pool);
    ASSERT_TRUE(seq.EnsureCapacity(16));
    EXPECT_EQ(pool.num_free(), 0);
  }
  EXPECT_EQ(pool.num_free(), 4);
}

TEST(PagedKvSequenceTest, CapacityByModelMatchesPaperScale) {
  // §2.4: PagedAttention lets an A100-40G hold ~48K tokens of Llama2-7B KV. With 16
  // tokens/block and FP16, 48K tokens = 3000 blocks * 16 * 2 * 4096 * 2B = ~24 GiB of
  // KV storage, consistent with 40G minus weights. We verify the arithmetic our
  // serving-capacity model uses.
  const ModelConfig m = ModelConfig::Llama2_7B();
  const int64_t tokens = 48 * 1024;
  const double kv_gib = static_cast<double>(m.KvBytesPerToken()) * tokens / (1024.0 * 1024 * 1024);
  EXPECT_NEAR(kv_gib, 24.0, 0.1);
}

}  // namespace
}  // namespace hcache
