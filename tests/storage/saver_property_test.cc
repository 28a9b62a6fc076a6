// Parameterized round-trip sweep for the two-stage saver: every combination of chunk
// size, token count, and append granularity must reproduce the exact bytes, including
// partial tail chunks and resumed (seal-then-append) sessions.
#include <gtest/gtest.h>

#include <filesystem>
#include <numeric>
#include <tuple>

#include "src/common/rng.h"
#include "src/storage/file_backend.h"
#include "src/storage/hidden_saver.h"
#include "tests/test_dir.h"

namespace hcache {
namespace {

using SweepParam = std::tuple<int64_t /*chunk_tokens*/, int64_t /*total_tokens*/,
                              int64_t /*append_step*/>;

class SaverRoundTripSweep : public ::testing::TestWithParam<SweepParam> {
 protected:
  void SetUp() override {
    cfg_ = ModelConfig::TinyLlama(2, 16, 2);
    store_ = std::make_unique<FileBackend>(std::vector<std::string>{(base_ / "d").string()},
                                          1 << 20);
  }

  ModelConfig cfg_;
  TestDir base_{"saver_sweep"};
  std::unique_ptr<FileBackend> store_;
};

TEST_P(SaverRoundTripSweep, ExactRoundTrip) {
  const auto [chunk_tokens, total, step] = GetParam();
  Rng rng(static_cast<uint64_t>(chunk_tokens * 1000 + total * 10 + step));
  Tensor all({total, cfg_.hidden_dim});
  for (int64_t i = 0; i < all.numel(); ++i) {
    all.at(i) = static_cast<float>(rng.NextNormal(0, 1));
  }

  HiddenStateWriter writer(store_.get(), nullptr, cfg_, /*context_id=*/1, chunk_tokens);
  for (int64_t start = 0; start < total; start += step) {
    const int64_t n = std::min(step, total - start);
    Tensor batch({n, cfg_.hidden_dim});
    std::vector<int32_t> pos(static_cast<size_t>(n));
    std::iota(pos.begin(), pos.end(), static_cast<int32_t>(start));
    for (int64_t i = 0; i < n; ++i) {
      std::copy(all.row(start + i), all.row(start + i) + cfg_.hidden_dim, batch.row(i));
    }
    for (int64_t layer = 0; layer < cfg_.num_layers; ++layer) {
      writer.OnLayerInput(layer, batch, pos.data(), n);
    }
    // Seal mid-stream every other batch: resumption must not corrupt the layout.
    if ((start / step) % 2 == 1) {
      writer.Seal();
    }
  }
  writer.Seal();

  HiddenStateReader reader(store_.get(), cfg_, chunk_tokens);
  ASSERT_TRUE(reader.ContextComplete(1, total));
  for (int64_t layer = 0; layer < cfg_.num_layers; ++layer) {
    const Tensor got = reader.ReadLayer(1, layer, total);
    EXPECT_TRUE(Tensor::BitwiseEqual(got, all))
        << "chunk=" << chunk_tokens << " total=" << total << " step=" << step
        << " layer=" << layer;
  }
  // Chunk count matches the layout formula.
  const int64_t expect_chunks = (total + chunk_tokens - 1) / chunk_tokens;
  EXPECT_EQ(store_->chunks_stored(), expect_chunks * cfg_.num_layers);
}

INSTANTIATE_TEST_SUITE_P(
    ChunkTokenStep, SaverRoundTripSweep,
    ::testing::Combine(::testing::Values<int64_t>(1, 3, 8, 64),   // chunk sizes
                       ::testing::Values<int64_t>(1, 7, 16, 33),  // token counts
                       ::testing::Values<int64_t>(1, 4, 16)));    // append granularity

}  // namespace
}  // namespace hcache
