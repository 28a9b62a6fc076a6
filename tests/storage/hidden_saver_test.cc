#include "src/storage/hidden_saver.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <numeric>

#include "src/common/rng.h"
#include "src/storage/file_backend.h"
#include "src/common/thread_pool.h"
#include "tests/test_dir.h"

namespace hcache {
namespace {

class HiddenSaverTest : public ::testing::Test {
 protected:
  void SetUp() override {
    cfg_ = ModelConfig::TinyLlama(3, 16, 2);
    store_ = std::make_unique<FileBackend>(
        std::vector<std::string>{(base_ / "d0").string(), (base_ / "d1").string()},
        /*chunk_bytes=*/1 << 20);
  }

  // Feeds `total` tokens through the sink in steps of `step`, all layers.
  Tensor FeedTokens(HiddenStateSink* sink, int64_t total, int64_t step, uint64_t seed) {
    Rng rng(seed);
    Tensor all({total, cfg_.hidden_dim});
    for (int64_t i = 0; i < all.numel(); ++i) {
      all.at(i) = static_cast<float>(rng.NextNormal(0, 1));
    }
    for (int64_t start = 0; start < total; start += step) {
      const int64_t n = std::min(step, total - start);
      Tensor batch({n, cfg_.hidden_dim});
      std::vector<int32_t> pos(static_cast<size_t>(n));
      std::iota(pos.begin(), pos.end(), static_cast<int32_t>(start));
      for (int64_t i = 0; i < n; ++i) {
        std::copy(all.row(start + i), all.row(start + i) + cfg_.hidden_dim, batch.row(i));
      }
      for (int64_t layer = 0; layer < cfg_.num_layers; ++layer) {
        sink->OnLayerInput(layer, batch, pos.data(), n);
      }
    }
    return all;
  }

  ModelConfig cfg_;
  TestDir base_{"saver"};
  std::unique_ptr<FileBackend> store_;
};

TEST_F(HiddenSaverTest, RoundTripExactMultipleOfChunk) {
  HiddenStateWriter writer(store_.get(), nullptr, cfg_, /*context_id=*/1,
                           /*chunk_tokens=*/8);
  const Tensor all = FeedTokens(&writer, 16, 16, 1);
  writer.Seal();
  HiddenStateReader reader(store_.get(), cfg_, 8);
  for (int64_t layer = 0; layer < cfg_.num_layers; ++layer) {
    Tensor got = reader.ReadLayer(1, layer, 16);
    EXPECT_TRUE(Tensor::BitwiseEqual(got, all)) << "layer " << layer;
  }
}

TEST_F(HiddenSaverTest, RoundTripWithPartialFinalChunk) {
  HiddenStateWriter writer(store_.get(), nullptr, cfg_, 2, 8);
  const Tensor all = FeedTokens(&writer, 13, 13, 2);
  writer.Seal();
  HiddenStateReader reader(store_.get(), cfg_, 8);
  Tensor got = reader.ReadLayer(2, 0, 13);
  EXPECT_TRUE(Tensor::BitwiseEqual(got, all));
}

TEST_F(HiddenSaverTest, AutoregressiveSingleTokenAppends) {
  // Decode-phase pattern: one token at a time across many steps.
  HiddenStateWriter writer(store_.get(), nullptr, cfg_, 3, 4);
  const Tensor all = FeedTokens(&writer, 11, 1, 3);
  writer.Seal();
  HiddenStateReader reader(store_.get(), cfg_, 4);
  for (int64_t layer = 0; layer < cfg_.num_layers; ++layer) {
    EXPECT_TRUE(Tensor::BitwiseEqual(reader.ReadLayer(3, layer, 11), all));
  }
  EXPECT_EQ(writer.tokens_saved(0), 11);
}

TEST_F(HiddenSaverTest, BackgroundFlushMatchesSynchronous) {
  ThreadPool pool(4);
  HiddenStateWriter async_writer(store_.get(), &pool, cfg_, 10, 8);
  const Tensor all = FeedTokens(&async_writer, 40, 7, 4);
  async_writer.Seal();  // drains the pool

  HiddenStateWriter sync_writer(store_.get(), nullptr, cfg_, 11, 8);
  FeedTokens(&sync_writer, 40, 7, 4);
  sync_writer.Seal();

  HiddenStateReader reader(store_.get(), cfg_, 8);
  for (int64_t layer = 0; layer < cfg_.num_layers; ++layer) {
    Tensor a = reader.ReadLayer(10, layer, 40);
    Tensor b = reader.ReadLayer(11, layer, 40);
    EXPECT_TRUE(Tensor::BitwiseEqual(a, all));
    EXPECT_TRUE(Tensor::BitwiseEqual(a, b));
  }
}

TEST_F(HiddenSaverTest, SealedChunksFlushEagerlyBeforeSeal) {
  HiddenStateWriter writer(store_.get(), nullptr, cfg_, 5, 4);
  FeedTokens(&writer, 9, 9, 5);  // 2 full chunks + 1 token staged per layer
  // Full chunks are already durable before Seal.
  EXPECT_TRUE(store_->HasChunk({5, 0, 0}));
  EXPECT_TRUE(store_->HasChunk({5, 0, 1}));
  EXPECT_FALSE(store_->HasChunk({5, 0, 2}));
  writer.Seal();
  EXPECT_TRUE(store_->HasChunk({5, 0, 2}));
}

TEST_F(HiddenSaverTest, ContextCompleteDetectsMissingTail) {
  HiddenStateWriter writer(store_.get(), nullptr, cfg_, 6, 4);
  FeedTokens(&writer, 10, 10, 6);
  HiddenStateReader reader(store_.get(), cfg_, 4);
  // Partial chunk (tokens 8..9) not yet sealed.
  EXPECT_TRUE(reader.ContextComplete(6, 8));
  EXPECT_FALSE(reader.ContextComplete(6, 10));
  writer.Seal();
  EXPECT_TRUE(reader.ContextComplete(6, 10));
  EXPECT_FALSE(reader.ContextComplete(7, 1));  // unknown context
}

TEST_F(HiddenSaverTest, DestructorSealsUnflushedState) {
  {
    HiddenStateWriter writer(store_.get(), nullptr, cfg_, 30, 8);
    FeedTokens(&writer, 5, 5, 7);
    // No explicit Seal.
  }
  HiddenStateReader reader(store_.get(), cfg_, 8);
  EXPECT_TRUE(reader.ContextComplete(30, 5));
}

}  // namespace
}  // namespace hcache
