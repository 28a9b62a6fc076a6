#include "src/storage/layout.h"

#include <gtest/gtest.h>

namespace hcache {
namespace {

TEST(LayoutTest, ChunkedRestoreUsesFewLargeIos) {
  const ModelConfig cfg = ModelConfig::Llama2_7B();
  const IoPattern p = RestoreLayerPattern(cfg, 1024, 64);
  EXPECT_EQ(p.num_ios, 16);
  EXPECT_EQ(p.io_size, 64 * cfg.HiddenBytesPerTokenLayer());
  EXPECT_EQ(p.total_bytes(), 1024 * cfg.HiddenBytesPerTokenLayer());
}

TEST(LayoutTest, ChunkedRestoreRoundsUpPartialChunk) {
  const ModelConfig cfg = ModelConfig::Llama2_7B();
  const IoPattern p = RestoreLayerPattern(cfg, 100, 64);
  EXPECT_EQ(p.num_ios, 2);
}

TEST(LayoutTest, ZeroTokensYieldNoIo) {
  const ModelConfig cfg = ModelConfig::Llama2_7B();
  EXPECT_EQ(RestoreLayerPattern(cfg, 0).num_ios, 0);
}

}  // namespace
}  // namespace hcache
