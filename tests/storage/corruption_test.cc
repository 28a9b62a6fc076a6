// Corruption-injection suite: the durability plane's core guarantee is that a
// corrupted chunk NEVER produces wrong KV state — every read path detects damage
// (distinct kChunkCorrupt status, crc_failures accounting), and the restore path
// falls back to recomputation that lands bit-identical KV.
#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "src/core/functional_engine.h"
#include "src/core/partition.h"
#include "src/model/transformer.h"
#include "src/storage/codec.h"
#include "src/storage/distributed_backend.h"
#include "src/storage/file_backend.h"
#include "src/storage/hidden_saver.h"
#include "src/storage/instrumented_backend.h"
#include "src/storage/memory_backend.h"
#include "src/storage/tiered_backend.h"
#include "tests/test_dir.h"

namespace hcache {
namespace {

constexpr int64_t kChunkBytes = 64 * 1024;

// A sealed chunk with deterministic FP32 payload.
std::vector<uint8_t> SealedChunk(int64_t rows, int64_t cols, uint8_t salt) {
  std::vector<uint8_t> chunk(
      static_cast<size_t>(EncodedChunkBytes(ChunkCodec::kFp32, rows, cols)));
  for (size_t i = sizeof(ChunkHeader); i < chunk.size(); ++i) {
    chunk[i] = static_cast<uint8_t>(salt + i * 13);
  }
  WriteChunkHeader(ChunkCodec::kFp32, rows, cols, chunk.data());
  return chunk;
}

class CorruptionTest : public ::testing::Test {
 protected:
  void SetUp() override {
  }

  std::vector<std::string> Dirs() {
    return {(base_ / "d0").string(), (base_ / "d1").string()};
  }

  TestDir base_{"corruption"};
};

// Shared conformance body: a bit-flipped chunk reads back kChunkCorrupt (not -1,
// not garbage), crc_failures increments, the unverified escape hatch still sees
// the bytes, and undamaged chunks are unaffected.
void ExpectCorruptionDetected(StorageBackend* backend) {
  InstrumentedBackend chaos(backend);
  const auto good = SealedChunk(16, 32, 7);
  const int64_t bytes = static_cast<int64_t>(good.size());
  ASSERT_TRUE(chaos.WriteChunk({1, 0, 0}, good.data(), bytes));
  ASSERT_TRUE(chaos.WriteChunk({1, 0, 1}, good.data(), bytes));

  ASSERT_TRUE(chaos.CorruptChunk({1, 0, 0}, /*bit_offset=*/8 * (sizeof(ChunkHeader) + 3)));
  const int64_t base_failures = backend->Stats().crc_failures;

  std::vector<uint8_t> buf(static_cast<size_t>(bytes));
  EXPECT_EQ(backend->ReadChunk({1, 0, 0}, buf.data(), bytes), kChunkCorrupt);
  EXPECT_EQ(backend->Stats().crc_failures, base_failures + 1);
  // Detected-corrupt is NOT a miss: the chunk exists, it is just untrustworthy.
  EXPECT_TRUE(backend->HasChunk({1, 0, 0}));
  // Forensics path still reads the raw bytes.
  EXPECT_EQ(backend->ReadChunkUnverified({1, 0, 0}, buf.data(), bytes), bytes);
  // The sibling chunk is untouched and verifies.
  EXPECT_EQ(backend->ReadChunk({1, 0, 1}, buf.data(), bytes), bytes);
  EXPECT_EQ(std::memcmp(buf.data(), good.data(), static_cast<size_t>(bytes)), 0);

  // Batched read: only the damaged request fails, and with the distinct status.
  std::vector<uint8_t> buf2(static_cast<size_t>(bytes));
  std::vector<ChunkReadRequest> reqs = {
      {{1, 0, 0}, buf.data(), bytes, -1},
      {{1, 0, 1}, buf2.data(), bytes, -1},
  };
  backend->ReadChunks(reqs);
  EXPECT_EQ(reqs[0].result, kChunkCorrupt);
  EXPECT_EQ(reqs[1].result, bytes);
  EXPECT_EQ(backend->Stats().crc_failures, base_failures + 2);

  // Truncation (lost tail) is detected the same way.
  ASSERT_TRUE(chaos.TruncateChunk({1, 0, 1}, bytes / 2));
  EXPECT_EQ(backend->ReadChunk({1, 0, 1}, buf.data(), bytes), kChunkCorrupt);
}

TEST_F(CorruptionTest, MemoryBackendDetectsDamage) {
  MemoryBackend backend(kChunkBytes);
  ExpectCorruptionDetected(&backend);
}

TEST_F(CorruptionTest, FileBackendDetectsDamage) {
  FileBackend backend(Dirs(), kChunkBytes);
  ExpectCorruptionDetected(&backend);
}

// Every replica holds the damaged copy (CorruptChunk rewrites through the
// replicated write path), so failover has nothing valid to fall back to. The
// unverified read reaches the nodes through InstrumentedBackend's batched
// unverified forward; if that forward verified, it would report corruption.
TEST_F(CorruptionTest, DistributedColdBackendDetectsDamage) {
  DistributedColdBackend backend(3, kChunkBytes);
  ExpectCorruptionDetected(&backend);
}

TEST_F(CorruptionTest, TieredBackendDetectsDamageInTheColdTier) {
  MemoryBackend cold_mem(kChunkBytes);
  InstrumentedBackend cold(&cold_mem);
  TieredBackend tiered(&cold, 2 * kChunkBytes);

  const auto good = SealedChunk(16, 32, 3);
  const int64_t bytes = static_cast<int64_t>(good.size());
  // Pad writes so ctx 1's chunk is evicted to cold and leaves DRAM.
  std::vector<char> pad(kChunkBytes, 'p');
  ASSERT_TRUE(tiered.WriteChunk({1, 0, 0}, good.data(), bytes));
  ASSERT_TRUE(tiered.WriteChunk({2, 0, 0}, pad.data(), kChunkBytes));
  ASSERT_TRUE(tiered.WriteChunk({2, 0, 1}, pad.data(), kChunkBytes));
  ASSERT_FALSE(tiered.IsDramResident({1, 0, 0}));

  // Rot the at-rest cold copy.
  ASSERT_TRUE(cold.CorruptChunk({1, 0, 0}, 8 * (sizeof(ChunkHeader) + 9) + 1));

  std::vector<uint8_t> buf(static_cast<size_t>(bytes));
  EXPECT_EQ(tiered.ReadChunk({1, 0, 0}, buf.data(), bytes), kChunkCorrupt);
  EXPECT_GE(tiered.Stats().crc_failures, 1);
  // A corrupt cold chunk must never be promoted into the trusted hot tier.
  EXPECT_FALSE(tiered.IsDramResident({1, 0, 0}));

  // Batched path propagates the distinct status too.
  std::vector<ChunkReadRequest> reqs = {{{1, 0, 0}, buf.data(), bytes, -1}};
  tiered.ReadChunks(reqs);
  EXPECT_EQ(reqs[0].result, kChunkCorrupt);
  EXPECT_FALSE(tiered.IsDramResident({1, 0, 0}));

  // The forensics read falls through to the cold tier's raw bytes.
  EXPECT_EQ(tiered.ReadChunkUnverified({1, 0, 0}, buf.data(), bytes), bytes);
}

// The acceptance-critical end-to-end property: with a chunk corrupted at rest,
// restoration REFUSES (returns false, sequence left evicted) rather than producing
// wrong KV — and recompute-from-tokens then lands KV bit-identical to a
// never-evicted reference. No wrong answer, no crash.
TEST_F(CorruptionTest, CorruptHiddenChunkForcesRecomputeWithIdenticalKv) {
  const ModelConfig cfg = ModelConfig::TinyLlama(/*layers=*/4, /*hidden=*/64, /*heads=*/4);
  const ModelWeights weights = ModelWeights::Random(cfg, /*seed=*/42);
  Transformer model(&weights);
  KvBlockPool pool(KvPoolConfig::ForModel(cfg, /*num_blocks=*/64, /*block_tokens=*/8));

  FileBackend store(Dirs(), /*chunk_bytes=*/1 << 20);
  InstrumentedBackend chaos(&store);
  ThreadPool flush_pool(2);
  FunctionalHCache engine(&model, &chaos, &flush_pool, /*chunk_tokens=*/8);

  const std::vector<int32_t> prompt = {11, 42, 7, 99, 3, 250, 17, 64, 128, 5,
                                       61, 12, 93, 30, 4, 201};
  const int64_t ctx_id = 1;
  PagedKvSequence seq(&pool);
  HiddenStateSink* sink = engine.BeginCapture(ctx_id);
  model.Forward(prompt, &seq, sink);
  engine.SealContext(ctx_id);

  // Reference: the same history computed fresh, never evicted.
  PagedKvSequence ref(&pool);
  model.Forward(prompt, &ref);

  const int64_t n = seq.num_tokens();
  ASSERT_EQ(n, static_cast<int64_t>(prompt.size()));
  seq.Evict();

  // Rot one hidden-state chunk at rest (payload bit flip in layer 2, chunk 0).
  ASSERT_TRUE(chaos.CorruptChunk({ctx_id, 2, 0}, 8 * (sizeof(ChunkHeader) + 11) + 5));

  PartitionScheme scheme;
  scheme.layers_hidden = cfg.num_layers;
  scheme.layers_other = 0;
  scheme.complement = ComplementMethod::kNone;

  // CanRestore vets sizes only — the damage is found at read time, and the restore
  // refuses instead of decoding garbage into the KV cache.
  EXPECT_TRUE(engine.CanRestore(ctx_id, scheme, n));
  EXPECT_FALSE(engine.RestoreContext(ctx_id, scheme, /*history_tokens=*/{}, &seq));
  EXPECT_FALSE(seq.has_kv());         // left evicted...
  EXPECT_EQ(seq.num_tokens(), n);     // ...with the history length intact
  EXPECT_GE(store.Stats().crc_failures, 1);

  // Fallback: recompute the whole history from tokens. Bit-identical KV.
  seq.ResetForRestore();
  ASSERT_TRUE(seq.EnsureCapacity(n));
  model.Forward(prompt, &seq);
  for (int64_t layer = 0; layer < cfg.num_layers; ++layer) {
    Tensor k_ref, v_ref, k_got, v_got;
    ref.ReadKv(layer, 0, n, &k_ref, &v_ref);
    seq.ReadKv(layer, 0, n, &k_got, &v_got);
    EXPECT_TRUE(Tensor::BitwiseEqual(k_ref, k_got)) << "layer " << layer;
    EXPECT_TRUE(Tensor::BitwiseEqual(v_ref, v_got)) << "layer " << layer;
  }
}

TEST_F(CorruptionTest, CorruptKvChunkFailsRestoreGracefully) {
  const ModelConfig cfg = ModelConfig::TinyLlama(/*layers=*/4, /*hidden=*/64, /*heads=*/4);
  const ModelWeights weights = ModelWeights::Random(cfg, /*seed=*/11);
  Transformer model(&weights);
  KvBlockPool pool(KvPoolConfig::ForModel(cfg, /*num_blocks=*/64, /*block_tokens=*/8));

  MemoryBackend store(1 << 20);
  InstrumentedBackend chaos(&store);
  FunctionalHCache engine(&model, &chaos, /*flush_pool=*/nullptr, /*chunk_tokens=*/8);

  const std::vector<int32_t> prompt = {5, 9, 31, 77, 2, 140, 66, 8};
  const int64_t ctx_id = 3;
  PagedKvSequence seq(&pool);
  HiddenStateSink* sink = engine.BeginCapture(ctx_id);
  model.Forward(prompt, &seq, sink);
  engine.SealContext(ctx_id);

  // KV-offload partition: the last two layers persist their KV directly.
  PartitionScheme scheme;
  scheme.layers_hidden = 2;
  scheme.layers_other = 2;
  scheme.complement = ComplementMethod::kKvOffload;
  engine.SaveKvLayers(ctx_id, seq, {2, 3});

  const int64_t n = seq.num_tokens();
  seq.Evict();

  // Rot a KV chunk (layer-key namespace 1'000'000 + layer).
  ASSERT_TRUE(chaos.CorruptChunk({ctx_id, 1'000'000 + 3, 0},
                                 8 * (sizeof(ChunkHeader) + 2)));

  EXPECT_FALSE(engine.RestoreContext(ctx_id, scheme, /*history_tokens=*/{}, &seq));
  EXPECT_FALSE(seq.has_kv());
  EXPECT_EQ(seq.num_tokens(), n);
}

TEST_F(CorruptionTest, RestoreSucceedsVerifiedWhenUndamaged) {
  // Control for the tests above: the same pipeline with no injected damage restores
  // bit-identically THROUGH the verified read path (crc_checked_bytes > 0 proves
  // the CRCs were actually computed, not skipped).
  const ModelConfig cfg = ModelConfig::TinyLlama(/*layers=*/4, /*hidden=*/64, /*heads=*/4);
  const ModelWeights weights = ModelWeights::Random(cfg, /*seed=*/42);
  Transformer model(&weights);
  KvBlockPool pool(KvPoolConfig::ForModel(cfg, /*num_blocks=*/64, /*block_tokens=*/8));
  FileBackend store(Dirs(), 1 << 20);
  ThreadPool flush_pool(2);
  FunctionalHCache engine(&model, &store, &flush_pool, /*chunk_tokens=*/8);

  const std::vector<int32_t> prompt = {11, 42, 7, 99, 3, 250, 17, 64, 128, 5};
  PagedKvSequence seq(&pool);
  HiddenStateSink* sink = engine.BeginCapture(1);
  model.Forward(prompt, &seq, sink);
  engine.SealContext(1);

  PagedKvSequence ref(&pool);
  model.Forward(prompt, &ref);

  const int64_t n = seq.num_tokens();
  seq.Evict();
  PartitionScheme scheme;
  scheme.layers_hidden = cfg.num_layers;
  scheme.layers_other = 0;
  scheme.complement = ComplementMethod::kNone;
  ASSERT_TRUE(engine.RestoreContext(1, scheme, {}, &seq));
  EXPECT_GT(store.Stats().crc_checked_bytes, 0);
  EXPECT_EQ(store.Stats().crc_failures, 0);
  for (int64_t layer = 0; layer < cfg.num_layers; ++layer) {
    Tensor k_ref, v_ref, k_got, v_got;
    ref.ReadKv(layer, 0, n, &k_ref, &v_ref);
    seq.ReadKv(layer, 0, n, &k_got, &v_got);
    EXPECT_TRUE(Tensor::BitwiseEqual(k_ref, k_got)) << "layer " << layer;
    EXPECT_TRUE(Tensor::BitwiseEqual(v_ref, v_got)) << "layer " << layer;
  }
}

TEST_F(CorruptionTest, DamagedMagicNeverDecodes) {
  // A sealed chunk with one magic bit flipped no longer claims the chunk format, so
  // the backend passes it on as opaque bytes. The reader must still refuse it rather
  // than decode the header bytes as rows — through both ReadLayerInto overloads.
  struct Case {
    ChunkCodec codec;
    int64_t cols;
  };
  for (const Case c : {Case{ChunkCodec::kInt8, 4}, Case{ChunkCodec::kFp16, 12}}) {
    std::vector<float> row(static_cast<size_t>(c.cols));
    for (size_t i = 0; i < row.size(); ++i) {
      row[i] = static_cast<float>(i + 1);
    }
    std::vector<uint8_t> sealed(static_cast<size_t>(EncodedChunkBytes(c.codec, 1, c.cols)));
    EncodeRowsInto(c.codec, row.data(), c.cols, 1, c.cols, sealed.data() + sizeof(ChunkHeader));
    WriteChunkHeader(c.codec, 1, c.cols, sealed.data());
    const int64_t bytes = static_cast<int64_t>(sealed.size());
    const ChunkGeometry geometry{/*num_layers=*/1, c.cols, /*layer_key_base=*/0};
    KvBlockPool pool(KvPoolConfig{/*num_blocks=*/1, /*block_tokens=*/4, /*num_layers=*/1,
                                  /*kv_dim=*/c.cols / 2});
    for (int bit = 0; bit < 32; ++bit) {
      SCOPED_TRACE(std::string(ChunkCodecName(c.codec)) + " magic bit " + std::to_string(bit));
      MemoryBackend store(kChunkBytes);
      auto damaged = sealed;
      damaged[static_cast<size_t>(bit / 8)] ^= static_cast<uint8_t>(1u << (bit % 8));
      ASSERT_TRUE(store.WriteChunk({1, 0, 0}, damaged.data(), bytes));
      const HiddenStateReader reader(&store, geometry, /*chunk_tokens=*/1);
      std::vector<float> dst(static_cast<size_t>(c.cols));
      EXPECT_FALSE(reader.ReadLayerInto(1, 0, 1, dst.data()));
      PagedKvSequence seq(&pool);
      ASSERT_TRUE(seq.EnsureCapacity(1));
      EXPECT_FALSE(reader.ReadLayerInto(1, 0, 1, &seq));
    }
  }
}

}  // namespace
}  // namespace hcache
