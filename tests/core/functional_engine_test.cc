// End-to-end integration tests: real transformer + real chunk store + partition
// schemes. These are the repository's strongest claim — every restoration path the
// scheduler can emit reproduces the evicted KV cache bit-for-bit.
#include "src/core/functional_engine.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>

#include "src/common/rng.h"
#include "src/storage/codec.h"
#include "src/storage/file_backend.h"
#include "src/storage/memory_backend.h"
#include "src/storage/tiered_backend.h"

namespace hcache {
namespace {

class FunctionalEngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    cfg_ = ModelConfig::TinyLlama(4, 32, 2);
    base_ = std::filesystem::temp_directory_path() /
            ("hcache_engine_" + std::to_string(::getpid()) + "_" +
             ::testing::UnitTest::GetInstance()->current_test_info()->name());
    store_ = std::make_unique<FileBackend>(
        std::vector<std::string>{(base_ / "d0").string(), (base_ / "d1").string()},
        /*chunk_bytes=*/1 << 20);
    weights_ = std::make_unique<ModelWeights>(ModelWeights::Random(cfg_, 7));
    model_ = std::make_unique<Transformer>(weights_.get());
    pool_ = std::make_unique<KvBlockPool>(KvPoolConfig::ForModel(cfg_, 64, 8));
    flush_pool_ = std::make_unique<ThreadPool>(2);
    engine_ = std::make_unique<FunctionalHCache>(model_.get(), store_.get(),
                                                 flush_pool_.get(), /*chunk_tokens=*/8);
  }
  void TearDown() override {
    // Destroy the engine (sealing writers, draining flush threads) before the backing
    // directories disappear.
    engine_.reset();
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

  // Runs prompt through a fresh reference sequence and returns its decode output.
  std::vector<int32_t> ReferenceDecode(const std::vector<int32_t>& prompt, int64_t steps) {
    PagedKvSequence seq(pool_.get());
    model_->Forward(prompt, &seq);
    return model_->GreedyDecode(prompt.back(), steps, &seq);
  }

  // Compares all layers of two sequences bitwise.
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

  ModelConfig cfg_;
  std::filesystem::path base_;
  std::unique_ptr<FileBackend> store_;
  std::unique_ptr<ModelWeights> weights_;
  std::unique_ptr<Transformer> model_;
  std::unique_ptr<KvBlockPool> pool_;
  std::unique_ptr<ThreadPool> flush_pool_;
  std::unique_ptr<FunctionalHCache> engine_;
};

TEST_F(FunctionalEngineTest, PureHiddenRestoreIsBitExact) {
  const auto prompt = RandomTokens(20, 1);
  PagedKvSequence ref(pool_.get());
  model_->Forward(prompt, &ref);

  PagedKvSequence seq(pool_.get());
  model_->Forward(prompt, &seq, engine_->BeginCapture(/*context_id=*/1));
  engine_->SealContext(1);
  seq.Evict();
  ASSERT_TRUE(engine_->RestoreContext(1, Scheme(cfg_.num_layers, ComplementMethod::kNone),
                                      {}, &seq));
  ExpectKvEqual(ref, seq);
}

TEST_F(FunctionalEngineTest, KvComplementRestoreIsBitExact) {
  // Mixed schedule: 3 layers from hidden states + 1 layer from offloaded KV.
  const auto prompt = RandomTokens(17, 2);
  PagedKvSequence ref(pool_.get());
  model_->Forward(prompt, &ref);

  PagedKvSequence seq(pool_.get());
  model_->Forward(prompt, &seq, engine_->BeginCapture(2));
  engine_->SealContext(2);
  const PartitionScheme s = Scheme(3, ComplementMethod::kKvOffload);
  engine_->SaveKvLayers(2, seq, {3});  // the last layer is KV-offloaded
  seq.Evict();
  ASSERT_TRUE(engine_->RestoreContext(2, s, {}, &seq));
  ExpectKvEqual(ref, seq);
}

TEST_F(FunctionalEngineTest, RecomputeComplementRestoreIsBitExact) {
  // Mixed schedule: first layer recomputed from tokens, rest from hidden states.
  const auto prompt = RandomTokens(19, 3);
  PagedKvSequence ref(pool_.get());
  model_->Forward(prompt, &ref);

  PagedKvSequence seq(pool_.get());
  model_->Forward(prompt, &seq, engine_->BeginCapture(3));
  engine_->SealContext(3);
  seq.Evict();
  ASSERT_TRUE(engine_->RestoreContext(3, Scheme(3, ComplementMethod::kRecompute), prompt,
                                      &seq));
  ExpectKvEqual(ref, seq);
}

TEST_F(FunctionalEngineTest, AllPartitionPointsAreLossless) {
  // Property sweep: every (L_H, complement) the scheduler could emit restores exactly.
  const auto prompt = RandomTokens(13, 4);
  PagedKvSequence ref(pool_.get());
  model_->Forward(prompt, &ref);

  int64_t ctx = 100;
  for (const auto complement :
       {ComplementMethod::kKvOffload, ComplementMethod::kRecompute}) {
    for (int64_t lh = 1; lh <= cfg_.num_layers; ++lh) {
      SCOPED_TRACE(testing::Message() << "lh=" << lh << " complement="
                                      << ComplementName(complement));
      PagedKvSequence seq(pool_.get());
      model_->Forward(prompt, &seq, engine_->BeginCapture(ctx));
      engine_->SealContext(ctx);
      PartitionScheme s = Scheme(lh, lh == cfg_.num_layers ? ComplementMethod::kNone
                                                           : complement);
      if (s.complement == ComplementMethod::kKvOffload) {
        std::vector<int64_t> kv_layers;
        for (int64_t l = lh; l < cfg_.num_layers; ++l) {
          kv_layers.push_back(l);
        }
        engine_->SaveKvLayers(ctx, seq, kv_layers);
      }
      seq.Evict();
      ASSERT_TRUE(engine_->RestoreContext(ctx, s, prompt, &seq));
      ExpectKvEqual(ref, seq);
      engine_->DropContext(ctx);
      ++ctx;
    }
  }
}

TEST_F(FunctionalEngineTest, DecodeContinuationAfterMixedRestore) {
  const auto prompt = RandomTokens(15, 5);
  const auto want = ReferenceDecode(prompt, 6);

  PagedKvSequence seq(pool_.get());
  model_->Forward(prompt, &seq, engine_->BeginCapture(4));
  engine_->SealContext(4);
  engine_->SaveKvLayers(4, seq, {2, 3});
  seq.Evict();
  ASSERT_TRUE(engine_->RestoreContext(4, Scheme(2, ComplementMethod::kKvOffload), {}, &seq));
  const auto got = model_->GreedyDecode(prompt.back(), 6, &seq);
  EXPECT_EQ(want, got);
}

TEST_F(FunctionalEngineTest, MultiRoundConversationWithEvictionEachRound) {
  // The ShareGPT4 usage pattern: history accumulates across rounds; state is evicted
  // between rounds and restored (from hidden states) when the next round arrives.
  const auto round1 = RandomTokens(10, 6);
  const auto round2 = RandomTokens(6, 7);

  // Reference conversation, never evicted.
  PagedKvSequence ref(pool_.get());
  model_->Forward(round1, &ref);
  const auto ref_out1 = model_->GreedyDecode(round1.back(), 4, &ref);
  model_->Forward(round2, &ref);
  const auto ref_out2 = model_->GreedyDecode(round2.back(), 4, &ref);

  // HCache conversation: capture everything, evict between rounds.
  HiddenStateSink* sink = engine_->BeginCapture(5);
  PagedKvSequence seq(pool_.get());
  model_->Forward(round1, &seq, sink);
  const auto out1 = model_->GreedyDecode(round1.back(), 4, &seq, sink);
  EXPECT_EQ(ref_out1, out1);
  engine_->SealContext(5);
  seq.Evict();

  ASSERT_TRUE(engine_->RestoreContext(5, Scheme(cfg_.num_layers, ComplementMethod::kNone),
                                      {}, &seq));
  sink = engine_->BeginCapture(5);  // resume capture for the new round
  model_->Forward(round2, &seq, sink);
  const auto out2 = model_->GreedyDecode(round2.back(), 4, &seq, sink);
  EXPECT_EQ(ref_out2, out2);
}

TEST_F(FunctionalEngineTest, RestoreFailsGracefullyWhenPoolFull) {
  const auto prompt = RandomTokens(16, 8);
  PagedKvSequence seq(pool_.get());
  model_->Forward(prompt, &seq, engine_->BeginCapture(6));
  engine_->SealContext(6);
  seq.Evict();

  // Exhaust the pool.
  PagedKvSequence hog(pool_.get());
  ASSERT_TRUE(hog.EnsureCapacity(pool_->capacity_tokens()));
  EXPECT_FALSE(engine_->RestoreContext(6, Scheme(cfg_.num_layers, ComplementMethod::kNone),
                                       {}, &seq));
  // History length must survive the failed attempt so a retry can succeed.
  EXPECT_EQ(seq.num_tokens(), 16);
  hog.Evict();
  seq.Evict();  // reset the has_kv flag ResetForRestore was never reached for
  EXPECT_FALSE(seq.has_kv());
}

TEST_F(FunctionalEngineTest, RestoreFailsGracefullyWhenChunksMissing) {
  // Failure injection: storage lost the context (device failure / premature GC).
  const auto prompt = RandomTokens(14, 20);
  PagedKvSequence seq(pool_.get());
  model_->Forward(prompt, &seq, engine_->BeginCapture(40));
  engine_->SealContext(40);
  seq.Evict();
  engine_->DropContext(40);  // chunks gone

  // All-hidden fails on its first read. The recompute scheme runs ForwardPartial
  // over the first layers before its first hidden read finds the chunk missing.
  for (const PartitionScheme& s : {Scheme(cfg_.num_layers, ComplementMethod::kNone),
                                   Scheme(2, ComplementMethod::kRecompute)}) {
    SCOPED_TRACE(s.layers_other);
    const int64_t free_blocks = pool_->num_free();
    EXPECT_FALSE(engine_->CanRestore(40, s, seq.num_tokens()));
    EXPECT_FALSE(engine_->RestoreContext(40, s, prompt, &seq));
    // The sequence must be left as it was: evicted, history intact, every block
    // returned, so the caller can fall back to full recomputation.
    EXPECT_FALSE(seq.has_kv());
    EXPECT_EQ(seq.num_tokens(), 14);
    EXPECT_EQ(pool_->num_free(), free_blocks);
  }

  // Fallback: recompute everything from tokens (a 0 H + N RE scheme).
  PartitionScheme recompute_all = Scheme(0, ComplementMethod::kRecompute);
  ASSERT_TRUE(engine_->RestoreContext(40, recompute_all, prompt, &seq));
  PagedKvSequence ref(pool_.get());
  model_->Forward(prompt, &ref);
  ExpectKvEqual(ref, seq);
}

TEST_F(FunctionalEngineTest, RestoreFailsOnTruncatedChunk) {
  // Failure injection: a chunk exists but is short (torn write).
  const auto prompt = RandomTokens(12, 21);
  PagedKvSequence seq(pool_.get());
  model_->Forward(prompt, &seq, engine_->BeginCapture(41));
  engine_->SealContext(41);
  seq.Evict();

  // Corrupt layer 1's first chunk with a 1-row payload.
  std::vector<float> tiny(static_cast<size_t>(cfg_.hidden_dim), 0.0f);
  ASSERT_TRUE(store_->WriteChunk(ChunkKey{41, 1, 0}, tiny.data(),
                                 static_cast<int64_t>(tiny.size() * sizeof(float))));

  const PartitionScheme s = Scheme(cfg_.num_layers, ComplementMethod::kNone);
  EXPECT_FALSE(engine_->CanRestore(41, s, seq.num_tokens()));
  EXPECT_FALSE(engine_->RestoreContext(41, s, {}, &seq));
  EXPECT_FALSE(seq.has_kv());
}

TEST_F(FunctionalEngineTest, CanRestoreChecksOnlySchemeLayers) {
  // A KV-complement scheme needs KV chunks for the tail layers; a hidden-only scheme
  // does not. CanRestore must distinguish.
  const auto prompt = RandomTokens(10, 22);
  PagedKvSequence seq(pool_.get());
  model_->Forward(prompt, &seq, engine_->BeginCapture(42));
  engine_->SealContext(42);
  // No SaveKvLayers call: KV chunks absent.
  const int64_t n = seq.num_tokens();
  EXPECT_TRUE(engine_->CanRestore(42, Scheme(cfg_.num_layers, ComplementMethod::kNone), n));
  EXPECT_FALSE(engine_->CanRestore(42, Scheme(2, ComplementMethod::kKvOffload), n));
  // A recompute-complement scheme skips the first layers' hidden chunks entirely.
  EXPECT_TRUE(engine_->CanRestore(42, Scheme(2, ComplementMethod::kRecompute), n));
  seq.Evict();
}

// {2 H, 2 other, kNone} names no source for layers 2-3. Restoring it must not return
// true with those layers never written: the restore plan refuses such a scheme. The
// death tests re-execute the binary ("threadsafe") so the child owns live flush threads.
class FunctionalEngineDeathTest : public FunctionalEngineTest {
 protected:
  void SetUp() override {
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    FunctionalEngineTest::SetUp();
  }
};

TEST_F(FunctionalEngineDeathTest, RestoreContextRejectsLayersWithoutSource) {
  const auto prompt = RandomTokens(12, 23);
  PagedKvSequence seq(pool_.get());
  model_->Forward(prompt, &seq, engine_->BeginCapture(43));
  engine_->SealContext(43);
  seq.Evict();
  EXPECT_DEATH(engine_->RestoreContext(43, Scheme(2, ComplementMethod::kNone), {}, &seq),
               "without a source");
}

TEST_F(FunctionalEngineDeathTest, CanRestoreRejectsLayersWithoutSource) {
  const auto prompt = RandomTokens(12, 24);
  PagedKvSequence seq(pool_.get());
  model_->Forward(prompt, &seq, engine_->BeginCapture(44));
  engine_->SealContext(44);
  EXPECT_DEATH(engine_->CanRestore(44, Scheme(2, ComplementMethod::kNone), seq.num_tokens()),
               "without a source");
  seq.Evict();
}

TEST_F(FunctionalEngineTest, DropContextRemovesChunks) {
  const auto prompt = RandomTokens(9, 9);
  PagedKvSequence seq(pool_.get());
  model_->Forward(prompt, &seq, engine_->BeginCapture(7));
  engine_->SealContext(7);
  EXPECT_GT(store_->chunks_stored(), 0);
  engine_->DropContext(7);
  EXPECT_EQ(store_->chunks_stored(), 0);
}

TEST_F(FunctionalEngineTest, RestoreIsBitExactAcrossAllBackends) {
  // The storage seam must be invisible to restoration: the same capture→evict→restore
  // cycle lands bit-identical KV whether chunks live in files, DRAM, or a tiered
  // hierarchy small enough that the context is evicted (and read back through
  // write-back) mid-test.
  const auto prompt = RandomTokens(18, 30);
  PagedKvSequence ref(pool_.get());
  model_->Forward(prompt, &ref);

  MemoryBackend memory(1 << 20);
  // Tiny DRAM budget: one 8-token chunk of this model, so multi-layer captures
  // continuously spill to the file cold tier.
  FileBackend tiered_cold(
      std::vector<std::string>{(base_ / "cold0").string(), (base_ / "cold1").string()},
      1 << 20);
  TieredBackend tiered(&tiered_cold, 8 * cfg_.hidden_dim * sizeof(float));

  int64_t ctx = 300;
  for (StorageBackend* backend :
       {static_cast<StorageBackend*>(&memory), static_cast<StorageBackend*>(&tiered)}) {
    SCOPED_TRACE(backend->Name());
    FunctionalHCache engine(model_.get(), backend, flush_pool_.get(), /*chunk_tokens=*/8);
    PagedKvSequence seq(pool_.get());
    model_->Forward(prompt, &seq, engine.BeginCapture(ctx));
    engine.SealContext(ctx);
    seq.Evict();
    // Settle the tiered backend's asynchronous write-back so the restoration below
    // deterministically reads evicted chunks through the cold tier (instead of
    // rescuing them from the drain queue, which would be DRAM hits).
    backend->Quiesce();
    ASSERT_TRUE(engine.RestoreContext(ctx, Scheme(cfg_.num_layers, ComplementMethod::kNone),
                                      {}, &seq));
    ExpectKvEqual(ref, seq);
    engine.DropContext(ctx);
    ++ctx;
  }
  // The tiered budget really was under pressure: chunks flowed through the cold tier.
  EXPECT_GT(tiered.Stats().writeback_chunks, 0);
  EXPECT_GT(tiered.Stats().cold_hits, 0);
}

TEST_F(FunctionalEngineTest, ReadHiddenMatchesCapture) {
  const auto prompt = RandomTokens(12, 10);
  PagedKvSequence seq(pool_.get());
  model_->Forward(prompt, &seq, engine_->BeginCapture(8));
  engine_->SealContext(8);
  const Tensor h0 = engine_->ReadHidden(8, 0, 12);
  EXPECT_EQ(h0.dim(0), 12);
  EXPECT_EQ(h0.dim(1), cfg_.hidden_dim);
  // Layer 0 input is the embedding of the prompt — check one row.
  for (int64_t d = 0; d < cfg_.hidden_dim; ++d) {
    EXPECT_EQ(h0.at(0, d), weights_->embedding.at(prompt[0], d));
  }
}

// Multi-round KV offload under each stored precision. KV saving is append-only, so a
// later round writes only from the previous round's partial tail chunk onward.
class KvOffloadRoundsTest : public FunctionalEngineTest,
                            public ::testing::WithParamInterface<ChunkCodec> {
 protected:
  static constexpr int64_t kCtx = 1;
  static constexpr int64_t kChunk = 8;
  const std::vector<int64_t> kv_layers_ = {2, 3};

  // The KV a save of `t` must restore: bit-exact under fp32, its fp16 round trip
  // under fp16.
  Tensor Stored(const Tensor& t) const {
    Tensor out = t.Clone();
    if (GetParam() == ChunkCodec::kFp16) {
      for (int64_t i = 0; i < out.numel(); ++i) {
        out.at(i) = Fp16BitsToFp32(Fp32ToFp16Bits(out.at(i)));
      }
    }
    return out;
  }

  // Seals the context and saves its KV-offload layers, then evicts `seq` and restores
  // it. Expects the offloaded layers back as they were at save time and, under fp32,
  // every layer bit-exact against a fresh forward of `history`. Returns the chunk
  // writes the KV save issued.
  int64_t SaveEvictRestore(FunctionalHCache& engine, const MemoryBackend& store,
                           const std::vector<int32_t>& history, PagedKvSequence* seq) {
    engine.SealContext(kCtx);
    const int64_t writes_before = store.total_writes();
    engine.SaveKvLayers(kCtx, *seq, kv_layers_);
    const int64_t kv_writes = store.total_writes() - writes_before;
    const int64_t n = seq->num_tokens();
    std::vector<Tensor> saved_k(kv_layers_.size()), saved_v(kv_layers_.size());
    for (size_t j = 0; j < kv_layers_.size(); ++j) {
      seq->ReadKv(kv_layers_[j], 0, n, &saved_k[j], &saved_v[j]);
    }
    seq->Evict();
    EXPECT_TRUE(engine.RestoreContext(kCtx, Scheme(2, ComplementMethod::kKvOffload), {}, seq));
    for (size_t j = 0; j < kv_layers_.size(); ++j) {
      Tensor k, v;
      seq->ReadKv(kv_layers_[j], 0, n, &k, &v);
      EXPECT_TRUE(Tensor::BitwiseEqual(k, Stored(saved_k[j]))) << "K layer " << kv_layers_[j];
      EXPECT_TRUE(Tensor::BitwiseEqual(v, Stored(saved_v[j]))) << "V layer " << kv_layers_[j];
    }
    if (GetParam() == ChunkCodec::kFp32) {
      PagedKvSequence ref(pool_.get());
      model_->Forward(history, &ref);
      ExpectKvEqual(ref, *seq);
    }
    return kv_writes;
  }
};

TEST_P(KvOffloadRoundsTest, SaveKvLayersAppendsAcrossRounds) {
  MemoryBackend store(1 << 20);
  FunctionalHCache engine(model_.get(), &store, flush_pool_.get(), kChunk, GetParam());
  const auto layers = static_cast<int64_t>(kv_layers_.size());
  std::vector<int32_t> history = RandomTokens(13, 50);  // chunk 0 full, chunk 1 holds 5
  PagedKvSequence seq(pool_.get());
  model_->Forward(history, &seq, engine.BeginCapture(kCtx));
  EXPECT_EQ(SaveEvictRestore(engine, store, history, &seq), layers * 2);

  // Round 2 crosses into chunk 2: only chunks 1 and 2 are written.
  const auto round2 = RandomTokens(7, 51);
  model_->Forward(round2, &seq, engine.BeginCapture(kCtx));
  history.insert(history.end(), round2.begin(), round2.end());
  EXPECT_EQ(SaveEvictRestore(engine, store, history, &seq), layers * 2);

  // After DropContext the next save starts again at row 0.
  engine.DropContext(kCtx);
  PagedKvSequence recomputed(pool_.get());
  model_->Forward(history, &recomputed, engine.BeginCapture(kCtx));
  EXPECT_EQ(SaveEvictRestore(engine, store, history, &recomputed), layers * 3);
  seq.Evict();
  recomputed.Evict();
  engine.DropContext(kCtx);
}

INSTANTIATE_TEST_SUITE_P(Codecs, KvOffloadRoundsTest,
                         ::testing::Values(ChunkCodec::kFp32, ChunkCodec::kFp16),
                         [](const ::testing::TestParamInfo<ChunkCodec>& info) {
                           return std::string(ChunkCodecName(info.param));
                         });

}  // namespace
}  // namespace hcache
