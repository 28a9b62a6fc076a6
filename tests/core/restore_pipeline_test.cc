// The pipelined restore path (a transmission stream on the flush pool reading every
// stored layer ahead of the projections, and decoding KV-offloaded layers straight into
// pool pages) must be invisible in the bits: for every StorageBackend and codec,
// RestoreContext with a flush pool lands KV identical to the serial engine (no pool)
// and to the never-evicted reference — including when a missing or corrupt chunk
// forces the fallback-to-recompute path.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstring>
#include <filesystem>
#include <memory>
#include <mutex>

#include "src/common/rng.h"
#include "src/core/functional_engine.h"
#include "src/storage/codec.h"
#include "src/storage/file_backend.h"
#include "src/storage/instrumented_backend.h"
#include "src/storage/memory_backend.h"
#include "src/storage/tiered_backend.h"

namespace hcache {
namespace {

class RestorePipelineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    cfg_ = ModelConfig::TinyLlama(4, 32, 2);
    base_ = std::filesystem::temp_directory_path() /
            ("hcache_pipeline_" + std::to_string(::getpid()) + "_" +
             ::testing::UnitTest::GetInstance()->current_test_info()->name());
    weights_ = std::make_unique<ModelWeights>(ModelWeights::Random(cfg_, 31));
    model_ = std::make_unique<Transformer>(weights_.get());
    pool_ = std::make_unique<KvBlockPool>(KvPoolConfig::ForModel(cfg_, 64, 12));
    flush_pool_ = std::make_unique<ThreadPool>(3);
  }
  void TearDown() override {
    flush_pool_.reset();
    std::filesystem::remove_all(base_);
  }

  std::vector<int32_t> RandomTokens(int64_t n, uint64_t seed) {
    Rng rng(seed);
    std::vector<int32_t> t(static_cast<size_t>(n));
    for (auto& x : t) {
      x = static_cast<int32_t>(rng.NextBounded(static_cast<uint64_t>(cfg_.vocab_size)));
    }
    return t;
  }

  PartitionScheme Scheme(int64_t lh, ComplementMethod c) {
    PartitionScheme s;
    s.layers_hidden = lh;
    s.layers_other = cfg_.num_layers - lh;
    s.complement = c;
    return s;
  }

  void ExpectKvEqual(const PagedKvSequence& a, const PagedKvSequence& b) {
    ASSERT_EQ(a.num_tokens(), b.num_tokens());
    for (int64_t layer = 0; layer < cfg_.num_layers; ++layer) {
      Tensor ka, va, kb, vb;
      a.ReadKv(layer, 0, a.num_tokens(), &ka, &va);
      b.ReadKv(layer, 0, b.num_tokens(), &kb, &vb);
      EXPECT_TRUE(Tensor::BitwiseEqual(ka, kb)) << "K layer " << layer;
      EXPECT_TRUE(Tensor::BitwiseEqual(va, vb)) << "V layer " << layer;
    }
  }

  // `k` and `v` ([n, kv_dim]) as a KV layer restores them under `codec`: each token's
  // [K | V] row through the chunk encode and decode.
  static void CodecRoundTrip(ChunkCodec codec, Tensor* k, Tensor* v) {
    const int64_t n = k->dim(0);
    const int64_t kv = k->dim(1);
    Tensor rows({n, 2 * kv});
    for (int64_t r = 0; r < n; ++r) {
      std::memcpy(rows.row(r), k->row(r), static_cast<size_t>(kv) * sizeof(float));
      std::memcpy(rows.row(r) + kv, v->row(r), static_cast<size_t>(kv) * sizeof(float));
    }
    std::vector<uint8_t> chunk(static_cast<size_t>(EncodedChunkBytes(codec, n, 2 * kv)));
    const auto bytes = static_cast<int64_t>(chunk.size());
    EncodeRowsInto(codec, rows.data(), 2 * kv, n, 2 * kv,
                   chunk.data() + sizeof(ChunkHeader));
    WriteChunkHeader(codec, n, 2 * kv, chunk.data());
    ChunkInfo info;
    ASSERT_TRUE(InspectChunk(chunk.data(), bytes, 2 * kv, &info));
    DecodeChunkRange(chunk.data(), bytes, info, 0, n, 0, kv, k->data(), kv);
    DecodeChunkRange(chunk.data(), bytes, info, 0, n, kv, 2 * kv, v->data(), kv);
  }

  // Restores `scheme` with the chunk `rot` corrupted at rest, with and without a flush
  // pool: the restore must fail after reading exactly `want_read` (key layers, in
  // order, then nothing more) and unwind — sequence evicted, history intact, every
  // block back in the pool — so that a recompute from tokens matches Forward.
  void ExpectCorruptionUnwinds(const PartitionScheme& scheme,
                               const std::vector<int64_t>& kv_layers, const ChunkKey& rot,
                               const std::vector<int64_t>& want_read) {
    const auto prompt = RandomTokens(30, 5);
    PagedKvSequence ref(pool_.get());
    model_->Forward(prompt, &ref);
    for (ThreadPool* flush_pool : {flush_pool_.get(), static_cast<ThreadPool*>(nullptr)}) {
      SCOPED_TRACE(flush_pool != nullptr ? "flush pool" : "serial");
      MemoryBackend memory(/*chunk_bytes=*/1 << 20);
      InstrumentedBackend store(&memory);
      FunctionalHCache engine(model_.get(), &store, flush_pool, /*chunk_tokens=*/8);
      PagedKvSequence seq(pool_.get());
      model_->Forward(prompt, &seq, engine.BeginCapture(1));
      engine.SealContext(1);
      engine.SaveKvLayers(1, seq, kv_layers);
      seq.Evict();
      ASSERT_TRUE(store.CorruptChunk(rot, 8 * (sizeof(ChunkHeader) + 5)));

      std::mutex mu;
      std::vector<int64_t> read;  // key layer of each batched read, in order
      store.set_read_hook([&](const ChunkKey& key) {
        std::lock_guard<std::mutex> lock(mu);
        if (read.empty() || read.back() != key.layer) {
          read.push_back(key.layer);
        }
      });
      const int64_t free_blocks = pool_->num_free();
      EXPECT_FALSE(engine.RestoreContext(1, scheme, prompt, &seq));
      EXPECT_FALSE(seq.has_kv());
      EXPECT_EQ(seq.num_tokens(), 30);
      EXPECT_EQ(pool_->num_free(), free_blocks);
      store.set_read_hook(nullptr);
      EXPECT_EQ(read, want_read);

      ASSERT_TRUE(engine.RestoreContext(1, Scheme(0, ComplementMethod::kRecompute), prompt,
                                        &seq));
      ExpectKvEqual(ref, seq);
      seq.Evict();
    }
  }

  // Builds each backend fresh; index 0 = file, 1 = memory, 2 = tiered-over-file.
  std::unique_ptr<StorageBackend> MakeBackend(int which) {
    const auto dirs = std::vector<std::string>{
        (base_ / ("d" + std::to_string(which) + "a")).string(),
        (base_ / ("d" + std::to_string(which) + "b")).string()};
    switch (which) {
      case 0:
        return std::make_unique<FileBackend>(dirs, /*chunk_bytes=*/1 << 20);
      case 1:
        return std::make_unique<MemoryBackend>(/*chunk_bytes=*/1 << 20);
      default: {
        cold_ = std::make_unique<FileBackend>(dirs, /*chunk_bytes=*/1 << 20);
        // Budget of two 8-token chunks so reads also exercise the cold tier.
        return std::make_unique<TieredBackend>(
            cold_.get(), 2 * 8 * cfg_.hidden_dim * static_cast<int64_t>(sizeof(float)));
      }
    }
  }

  ModelConfig cfg_;
  std::filesystem::path base_;
  std::unique_ptr<ModelWeights> weights_;
  std::unique_ptr<Transformer> model_;
  std::unique_ptr<KvBlockPool> pool_;
  std::unique_ptr<ThreadPool> flush_pool_;
  std::unique_ptr<FileBackend> cold_;
};

TEST_F(RestorePipelineTest, PipelinedRestoreMatchesSerialEngineOnEveryBackend) {
  const auto prompt = RandomTokens(26, 1);
  PagedKvSequence ref(pool_.get());
  model_->Forward(prompt, &ref);

  for (int which = 0; which < 3; ++which) {
    auto store = MakeBackend(which);
    SCOPED_TRACE(store->Name());
    // One shared store, two engines: `piped` prefetches reads on the flush pool,
    // `serial` (null pool) loads layer by layer.
    FunctionalHCache piped(model_.get(), store.get(), flush_pool_.get(),
                           /*chunk_tokens=*/8);
    FunctionalHCache serial(model_.get(), store.get(), /*flush_pool=*/nullptr,
                            /*chunk_tokens=*/8);
    const int64_t ctx = 10 + which;

    PagedKvSequence seq(pool_.get());
    model_->Forward(prompt, &seq, piped.BeginCapture(ctx));
    piped.SealContext(ctx);
    // Offload the last layer's KV so the pipeline crosses the hidden->KV boundary.
    const PartitionScheme s = Scheme(cfg_.num_layers - 1, ComplementMethod::kKvOffload);
    piped.SaveKvLayers(ctx, seq, {cfg_.num_layers - 1});
    seq.Evict();

    ASSERT_TRUE(piped.RestoreContext(ctx, s, {}, &seq));
    ExpectKvEqual(ref, seq);

    PagedKvSequence seq2(pool_.get());
    model_->Forward(prompt, &seq2);
    seq2.Evict();
    ASSERT_TRUE(serial.RestoreContext(ctx, s, {}, &seq2));
    ExpectKvEqual(seq, seq2);

    seq.Evict();
    seq2.Evict();
  }
}

TEST_F(RestorePipelineTest, PipelinedRecomputeComplementMatchesReference) {
  const auto prompt = RandomTokens(19, 2);
  PagedKvSequence ref(pool_.get());
  model_->Forward(prompt, &ref);

  auto store = MakeBackend(0);
  FunctionalHCache engine(model_.get(), store.get(), flush_pool_.get(),
                          /*chunk_tokens=*/8);
  PagedKvSequence seq(pool_.get());
  model_->Forward(prompt, &seq, engine.BeginCapture(1));
  engine.SealContext(1);
  seq.Evict();
  ASSERT_TRUE(
      engine.RestoreContext(1, Scheme(2, ComplementMethod::kRecompute), prompt, &seq));
  ExpectKvEqual(ref, seq);
}

TEST_F(RestorePipelineTest, MissingKvChunkFallsBackToRecomputeOnEveryBackend) {
  const auto prompt = RandomTokens(22, 3);
  PagedKvSequence ref(pool_.get());
  model_->Forward(prompt, &ref);

  for (int which = 0; which < 3; ++which) {
    auto store = MakeBackend(which);
    SCOPED_TRACE(store->Name());
    FunctionalHCache engine(model_.get(), store.get(), flush_pool_.get(),
                            /*chunk_tokens=*/8);
    const int64_t ctx = 20 + which;

    PagedKvSequence seq(pool_.get());
    model_->Forward(prompt, &seq, engine.BeginCapture(ctx));
    engine.SealContext(ctx);
    // A KV-offload scheme whose KV chunks were never saved: the restore must refuse
    // (leaving the sequence evicted) rather than land partial state.
    const PartitionScheme s = Scheme(2, ComplementMethod::kKvOffload);
    seq.Evict();
    EXPECT_FALSE(engine.CanRestore(ctx, s, seq.num_tokens()));
    EXPECT_FALSE(engine.RestoreContext(ctx, s, {}, &seq));
    EXPECT_FALSE(seq.has_kv());
    EXPECT_EQ(seq.num_tokens(), 22);

    // Fallback: full recomputation from the raw tokens still restores exactly.
    ASSERT_TRUE(engine.RestoreContext(ctx, Scheme(0, ComplementMethod::kRecompute),
                                      prompt, &seq));
    ExpectKvEqual(ref, seq);
    seq.Evict();
  }
}

// KV-offloaded layers decode from chunks straight into pool pages, one block's run of
// rows at a time. Chunks of 7 rows against blocks of 1, 5 and 16 tokens, over 37
// tokens (a multiple of neither), split chunks across blocks and blocks across chunks.
TEST_F(RestorePipelineTest, KvDecodedIntoPagesAtMisalignedBoundaries) {
  const int64_t n = 37;
  const auto prompt = RandomTokens(n, 4);
  const std::vector<int64_t> kv_layers = {2, 3};
  const PartitionScheme s = Scheme(2, ComplementMethod::kKvOffload);
  PagedKvSequence ref(pool_.get());
  model_->Forward(prompt, &ref);
  for (const int64_t bt : {1, 5, 16}) {
    KvBlockPool pool(KvPoolConfig::ForModel(cfg_, 2 * ((n + bt - 1) / bt), bt));
    for (const ChunkCodec codec : {ChunkCodec::kFp32, ChunkCodec::kFp16, ChunkCodec::kInt8}) {
      SCOPED_TRACE(std::string(ChunkCodecName(codec)) + " block_tokens " + std::to_string(bt));
      MemoryBackend store(/*chunk_bytes=*/1 << 20);
      FunctionalHCache piped(model_.get(), &store, flush_pool_.get(), /*chunk_tokens=*/7,
                             codec);
      FunctionalHCache serial(model_.get(), &store, /*flush_pool=*/nullptr,
                              /*chunk_tokens=*/7, codec);
      PagedKvSequence seq(&pool);
      model_->Forward(prompt, &seq, piped.BeginCapture(1));
      piped.SealContext(1);
      piped.SaveKvLayers(1, seq, kv_layers);
      std::vector<Tensor> want_k(kv_layers.size());
      std::vector<Tensor> want_v(kv_layers.size());
      for (size_t j = 0; j < kv_layers.size(); ++j) {
        seq.ReadKv(kv_layers[j], 0, n, &want_k[j], &want_v[j]);
        CodecRoundTrip(codec, &want_k[j], &want_v[j]);
      }
      seq.Evict();

      ASSERT_TRUE(piped.RestoreContext(1, s, {}, &seq));
      for (size_t j = 0; j < kv_layers.size(); ++j) {
        Tensor k, v;
        seq.ReadKv(kv_layers[j], 0, n, &k, &v);
        EXPECT_TRUE(Tensor::BitwiseEqual(k, want_k[j])) << "K layer " << kv_layers[j];
        EXPECT_TRUE(Tensor::BitwiseEqual(v, want_v[j])) << "V layer " << kv_layers[j];
      }
      if (codec == ChunkCodec::kFp32) {
        ExpectKvEqual(ref, seq);
      }

      PagedKvSequence seq2(&pool);
      ASSERT_TRUE(seq2.EnsureCapacity(n));
      seq2.CommitTokens(n);
      seq2.Evict();
      ASSERT_TRUE(serial.RestoreContext(1, s, {}, &seq2));
      ExpectKvEqual(seq, seq2);
      seq.Evict();
      seq2.Evict();
    }
  }
}

// The first hidden layer is corrupt while ForwardPartial runs and the later hidden
// reads are admitted behind it: the stream stops at the failing layer and reads
// nothing after it.
TEST_F(RestorePipelineTest, CorruptFirstHiddenLayerStopsReadsAndUnwinds) {
  // 1 RE + 3 H: layer 1 is the first hidden read; its last chunk (tokens 24..29) rots.
  ExpectCorruptionUnwinds(Scheme(3, ComplementMethod::kRecompute), {}, ChunkKey{1, 1, 3},
                          {1});
}

// The last KV layer is corrupt after the earlier KV layers were decoded into pool
// pages: those pages are released with the rest of the sequence.
TEST_F(RestorePipelineTest, CorruptLastKvLayerUnwindsWrittenPages) {
  ExpectCorruptionUnwinds(Scheme(1, ComplementMethod::kKvOffload), {1, 2, 3},
                          ChunkKey{1, kKvLayerBase + 3, 3},
                          {0, kKvLayerBase + 1, kKvLayerBase + 2, kKvLayerBase + 3});
}

}  // namespace
}  // namespace hcache
