#include "src/storage/io_timing.h"

#include <gtest/gtest.h>

#include "src/common/units.h"

namespace hcache {
namespace {

TEST(IoTimingTest, ChunkedReadsHitAggregateBandwidth) {
  StorageIoModel io(Platform::DefaultTestbed(1, 4));
  const ModelConfig cfg = ModelConfig::Llama2_7B();
  const IoPattern p = RestoreLayerPattern(cfg, 1024, 64);
  const double t = io.ReadTime(p);
  const double ideal = static_cast<double>(p.total_bytes()) / (27.6 * kGB);
  EXPECT_GE(t, ideal);
  // Within ~10% of line rate plus the one-time fill latency: 512 KiB chunks sit far
  // above the SSD's latency-bandwidth knee.
  EXPECT_LT(t, ideal * 1.1 + 1e-4);
}

TEST(IoTimingTest, KvReadIsTwiceHiddenRead) {
  StorageIoModel io(Platform::DefaultTestbed(1, 4));
  const ModelConfig cfg = ModelConfig::Llama2_13B();
  const double hidden = io.HiddenLayerReadTime(cfg, 1024);
  const double kv = io.KvLayerReadTime(cfg, 1024);
  // KV moves 2x the bytes; the shared fill latency and the larger IOs' slightly better
  // knee efficiency pull the ratio a little under 2.
  EXPECT_GT(kv / hidden, 1.7);
  EXPECT_LE(kv / hidden, 2.05);
}

TEST(IoTimingTest, MoreSsdsUntilPcieCap) {
  const ModelConfig cfg = ModelConfig::Llama2_7B();
  double prev = 1e9;
  for (int ssds : {1, 2, 3, 4}) {
    StorageIoModel io(Platform::DefaultTestbed(1, ssds));
    const double t = io.HiddenLayerReadTime(cfg, 4096);
    EXPECT_LT(t, prev) << ssds;
    prev = t;
  }
  // 8 SSDs saturate PCIe: barely better than 5.
  StorageIoModel io5(Platform::DefaultTestbed(1, 5));
  StorageIoModel io8(Platform::DefaultTestbed(1, 8));
  EXPECT_NEAR(io8.HiddenLayerReadTime(cfg, 4096), io5.HiddenLayerReadTime(cfg, 4096),
              io5.HiddenLayerReadTime(cfg, 4096) * 0.15);
}

TEST(IoTimingTest, DramBackendFasterThanSsds) {
  const ModelConfig cfg = ModelConfig::Llama2_7B();
  StorageIoModel ssd(Platform::DefaultTestbed(1, 4));
  StorageIoModel dram(Platform::CloudDram(GpuSpec::A100()));
  EXPECT_LT(dram.HiddenLayerReadTime(cfg, 4096), ssd.HiddenLayerReadTime(cfg, 4096));
}

TEST(IoTimingTest, WritesSlowerThanReads) {
  StorageIoModel io(Platform::DefaultTestbed(1, 4));
  const IoPattern p{4, 512 * 1024};
  EXPECT_GT(io.WriteTime(p), io.ReadTime(p));
}

TEST(IoTimingTest, EmptyPatternIsFree) {
  StorageIoModel io(Platform::DefaultTestbed(1, 4));
  EXPECT_DOUBLE_EQ(io.ReadTime(IoPattern{}), 0.0);
  EXPECT_DOUBLE_EQ(io.WriteTime(IoPattern{}), 0.0);
}

}  // namespace
}  // namespace hcache
