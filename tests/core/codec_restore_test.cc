// Functional restoration under lossy storage codecs: FunctionalHCache configured with
// kFp16 / kInt8 stores encoded chunks, decodes them straight into the projection
// inputs, and must (a) restore deterministically — bit-identical KV across
// File/Memory/Tiered backends, (b) agree exactly with projecting the decoded hidden
// states (the codec is the ONLY source of difference vs lossless restoration), and
// (c) stay within the codec's analytic error bound at the hidden-state level.
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <memory>
#include <numeric>

#include "src/common/rng.h"
#include "src/core/functional_engine.h"
#include "src/storage/codec.h"
#include "src/storage/file_backend.h"
#include "src/storage/memory_backend.h"
#include "src/storage/tiered_backend.h"
#include "tests/test_dir.h"

namespace hcache {
namespace {

class CodecRestoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    cfg_ = ModelConfig::TinyLlama(4, 32, 2);
    weights_ = std::make_unique<ModelWeights>(ModelWeights::Random(cfg_, 77));
    model_ = std::make_unique<Transformer>(weights_.get());
    pool_ = std::make_unique<KvBlockPool>(KvPoolConfig::ForModel(cfg_, 64, 12));
    flush_pool_ = std::make_unique<ThreadPool>(3);
  }
  void TearDown() override {
    flush_pool_.reset();
  }

  std::vector<int32_t> RandomTokens(int64_t n, uint64_t seed) {
    Rng rng(seed);
    std::vector<int32_t> t(static_cast<size_t>(n));
    for (auto& x : t) {
      x = static_cast<int32_t>(rng.NextBounded(static_cast<uint64_t>(cfg_.vocab_size)));
    }
    return t;
  }

  std::unique_ptr<StorageBackend> MakeBackend(int which) {
    const auto dirs = std::vector<std::string>{
        (base_ / ("d" + std::to_string(which) + "a")).string(),
        (base_ / ("d" + std::to_string(which) + "b")).string()};
    switch (which) {
      case 0:
        return std::make_unique<FileBackend>(dirs, /*chunk_bytes=*/1 << 20);
      case 1:
        return std::make_unique<MemoryBackend>(/*chunk_bytes=*/1 << 20);
      default:
        cold_ = std::make_unique<FileBackend>(dirs, /*chunk_bytes=*/1 << 20);
        // Small budget so reads also exercise cold-tier promotion.
        return std::make_unique<TieredBackend>(cold_.get(), /*dram_capacity_bytes=*/4096);
    }
  }

  ModelConfig cfg_;
  TestDir base_{"codec_restore"};
  std::unique_ptr<ModelWeights> weights_;
  std::unique_ptr<Transformer> model_;
  std::unique_ptr<KvBlockPool> pool_;
  std::unique_ptr<ThreadPool> flush_pool_;
  std::unique_ptr<FileBackend> cold_;
};

TEST_F(CodecRestoreTest, LossyRestoreIsExactlyProjectionOfDecodedHidden) {
  // The fused decode feeds RestoreLayerKv; restoring through the engine must equal
  // doing those two steps by hand — the codec introduces no other perturbation.
  const auto prompt = RandomTokens(26, 1);
  const int64_t n = static_cast<int64_t>(prompt.size());
  for (const ChunkCodec codec : {ChunkCodec::kFp16, ChunkCodec::kInt8}) {
    SCOPED_TRACE(ChunkCodecName(codec));
    MemoryBackend store(1 << 20);
    FunctionalHCache engine(model_.get(), &store, flush_pool_.get(), /*chunk_tokens=*/8,
                            codec);
    PagedKvSequence seq(pool_.get());
    model_->Forward(prompt, &seq, engine.BeginCapture(1));
    engine.SealContext(1);
    seq.Evict();

    PartitionScheme s;
    s.layers_hidden = cfg_.num_layers;
    s.layers_other = 0;
    s.complement = ComplementMethod::kNone;
    ASSERT_TRUE(engine.RestoreContext(1, s, {}, &seq));

    std::vector<int32_t> positions(static_cast<size_t>(n));
    std::iota(positions.begin(), positions.end(), 0);
    for (int64_t layer = 0; layer < cfg_.num_layers; ++layer) {
      const Tensor decoded = engine.ReadHidden(1, layer, n);
      Tensor k_ref, v_ref, k_got, v_got;
      model_->RestoreLayerKv(layer, decoded, positions.data(), &k_ref, &v_ref);
      seq.ReadKv(layer, 0, n, &k_got, &v_got);
      EXPECT_TRUE(Tensor::BitwiseEqual(k_got, k_ref)) << "K layer " << layer;
      EXPECT_TRUE(Tensor::BitwiseEqual(v_got, v_ref)) << "V layer " << layer;
    }
    seq.Evict();
    engine.DropContext(1);
  }
}

TEST_F(CodecRestoreTest, StoredHiddenStatesWithinCodecErrorBound) {
  const auto prompt = RandomTokens(30, 2);
  const int64_t n = static_cast<int64_t>(prompt.size());

  // Lossless reference capture.
  MemoryBackend ref_store(1 << 20);
  FunctionalHCache ref_engine(model_.get(), &ref_store, nullptr, 8, ChunkCodec::kFp32);
  {
    PagedKvSequence seq(pool_.get());
    model_->Forward(prompt, &seq, ref_engine.BeginCapture(1));
    ref_engine.SealContext(1);
    seq.Evict();
  }

  for (const ChunkCodec codec : {ChunkCodec::kFp16, ChunkCodec::kInt8}) {
    SCOPED_TRACE(ChunkCodecName(codec));
    MemoryBackend store(1 << 20);
    FunctionalHCache engine(model_.get(), &store, nullptr, 8, codec);
    PagedKvSequence seq(pool_.get());
    model_->Forward(prompt, &seq, engine.BeginCapture(1));
    engine.SealContext(1);
    seq.Evict();

    for (int64_t layer = 0; layer < cfg_.num_layers; ++layer) {
      const Tensor exact = ref_engine.ReadHidden(1, layer, n);
      const Tensor lossy = engine.ReadHidden(1, layer, n);
      for (int64_t r = 0; r < n; ++r) {
        float max_abs = 0;
        for (int64_t c = 0; c < cfg_.hidden_dim; ++c) {
          max_abs = std::max(max_abs, std::fabs(exact.at(r, c)));
        }
        for (int64_t c = 0; c < cfg_.hidden_dim; ++c) {
          const float err = std::fabs(lossy.at(r, c) - exact.at(r, c));
          if (codec == ChunkCodec::kFp16) {
            EXPECT_LE(err, Fp16UlpOf(lossy.at(r, c))) << layer << "/" << r << "/" << c;
          } else {
            EXPECT_LE(err, max_abs / 254.0f + 1e-12f) << layer << "/" << r << "/" << c;
          }
        }
      }
    }
    engine.DropContext(1);
  }
}

TEST_F(CodecRestoreTest, Fp16RestoreBitStableAcrossBackends) {
  // The fig-4 acceptance bar: identical decoded state — and therefore identical
  // restored KV — on file, memory, and tiered backends, pipelined or serial.
  const auto prompt = RandomTokens(22, 3);
  const int64_t n = static_cast<int64_t>(prompt.size());
  for (const ChunkCodec codec : {ChunkCodec::kFp16, ChunkCodec::kInt8}) {
    SCOPED_TRACE(ChunkCodecName(codec));
    std::vector<Tensor> ks, vs;
    for (int which = 0; which < 3; ++which) {
      auto store = MakeBackend(which);
      SCOPED_TRACE(store->Name());
      FunctionalHCache engine(model_.get(), store.get(),
                              which == 1 ? nullptr : flush_pool_.get(), 8, codec);
      const int64_t ctx = 40 + which;
      PagedKvSequence seq(pool_.get());
      model_->Forward(prompt, &seq, engine.BeginCapture(ctx));
      engine.SealContext(ctx);
      seq.Evict();
      PartitionScheme s;
      s.layers_hidden = cfg_.num_layers;
      s.layers_other = 0;
      s.complement = ComplementMethod::kNone;
      ASSERT_TRUE(engine.RestoreContext(ctx, s, {}, &seq));
      Tensor k, v;
      seq.ReadKv(cfg_.num_layers - 1, 0, n, &k, &v);
      ks.push_back(std::move(k));
      vs.push_back(std::move(v));
      seq.Evict();
      engine.DropContext(ctx);
    }
    EXPECT_TRUE(Tensor::BitwiseEqual(ks[0], ks[1]));
    EXPECT_TRUE(Tensor::BitwiseEqual(ks[1], ks[2]));
    EXPECT_TRUE(Tensor::BitwiseEqual(vs[0], vs[1]));
    EXPECT_TRUE(Tensor::BitwiseEqual(vs[1], vs[2]));
  }
}

TEST_F(CodecRestoreTest, KvOffloadComplementDecodesEncodedKvChunks) {
  // KV chunks are encoded with the same codec; the de-interleaving decode must land
  // K/V whose error vs the never-evicted reference is codec-bounded (KV rows are the
  // *encoded* quantity here, so the bound applies to them directly).
  const auto prompt = RandomTokens(20, 4);
  const int64_t n = static_cast<int64_t>(prompt.size());
  PagedKvSequence ref(pool_.get());
  model_->Forward(prompt, &ref);

  for (const ChunkCodec codec : {ChunkCodec::kFp16, ChunkCodec::kInt8}) {
    SCOPED_TRACE(ChunkCodecName(codec));
    MemoryBackend store(1 << 20);
    FunctionalHCache engine(model_.get(), &store, flush_pool_.get(), 8, codec);
    const int64_t last = cfg_.num_layers - 1;
    PagedKvSequence seq(pool_.get());
    model_->Forward(prompt, &seq, engine.BeginCapture(1));
    engine.SealContext(1);
    engine.SaveKvLayers(1, seq, {last});
    seq.Evict();

    PartitionScheme s;
    s.layers_hidden = last;
    s.layers_other = 1;
    s.complement = ComplementMethod::kKvOffload;
    ASSERT_TRUE(engine.RestoreContext(1, s, {}, &seq));

    Tensor k_ref, v_ref, k_got, v_got;
    ref.ReadKv(last, 0, n, &k_ref, &v_ref);
    seq.ReadKv(last, 0, n, &k_got, &v_got);
    for (int64_t r = 0; r < n; ++r) {
      // Bound per interleaved [K | V] row, the unit the codec encodes.
      float max_abs = 0;
      for (int64_t c = 0; c < cfg_.kv_dim(); ++c) {
        max_abs = std::max({max_abs, std::fabs(k_ref.at(r, c)), std::fabs(v_ref.at(r, c))});
      }
      for (int64_t c = 0; c < cfg_.kv_dim(); ++c) {
        const float bound = codec == ChunkCodec::kFp16
                                ? std::max(Fp16UlpOf(k_got.at(r, c)), Fp16UlpOf(v_got.at(r, c)))
                                : max_abs / 254.0f + 1e-12f;
        EXPECT_LE(std::fabs(k_got.at(r, c) - k_ref.at(r, c)), bound) << r << "," << c;
        EXPECT_LE(std::fabs(v_got.at(r, c) - v_ref.at(r, c)), bound) << r << "," << c;
      }
    }
    seq.Evict();
    engine.DropContext(1);
  }
}

}  // namespace
}  // namespace hcache
