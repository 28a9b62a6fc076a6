#include "src/tensor/ops.h"

#include <gtest/gtest.h>

#include <cmath>

#include "src/common/rng.h"
#include "src/common/thread_pool.h"

namespace hcache {
namespace {

// Element counts on both sides of the transcendental ops' 512-element floor, split
// evenly or not over 1 to 5 pool participants, up to a 20 x 512 prefill's gate.
constexpr int64_t kElementCounts[] = {1, 512, 513, 1023, 1024, 1025, 3584, 10240};

Tensor Normal(int64_t n, uint64_t seed) {
  Rng rng(seed);
  Tensor t({n});
  for (int64_t i = 0; i < n; ++i) {
    t.at(i) = static_cast<float>(rng.NextNormal(0, 3));
  }
  return t;
}

TEST(OpsTest, SoftmaxSumsToOne) {
  Tensor t = Tensor::FromData({2, 4}, {1, 2, 3, 4, -1, 0, 1, 2});
  SoftmaxLastDim(t);
  for (int64_t r = 0; r < 2; ++r) {
    float sum = 0.0f;
    for (int64_t c = 0; c < 4; ++c) {
      sum += t.at(r, c);
      EXPECT_GT(t.at(r, c), 0.0f);
    }
    EXPECT_NEAR(sum, 1.0f, 1e-6f);
  }
}

TEST(OpsTest, SoftmaxMonotone) {
  Tensor t = Tensor::FromData({1, 3}, {1, 2, 3});
  SoftmaxLastDim(t);
  EXPECT_LT(t.at(0, 0), t.at(0, 1));
  EXPECT_LT(t.at(0, 1), t.at(0, 2));
}

TEST(OpsTest, SoftmaxStableWithLargeValues) {
  Tensor t = Tensor::FromData({1, 2}, {1000.0f, 1001.0f});
  SoftmaxLastDim(t);
  EXPECT_FALSE(std::isnan(t.at(0, 0)));
  EXPECT_NEAR(t.at(0, 0) + t.at(0, 1), 1.0f, 1e-6f);
  EXPECT_GT(t.at(0, 1), t.at(0, 0));
}

TEST(OpsTest, SoftmaxUniformInput) {
  Tensor t = Tensor::FromData({1, 4}, {5, 5, 5, 5});
  SoftmaxLastDim(t);
  for (int64_t c = 0; c < 4; ++c) {
    EXPECT_NEAR(t.at(0, c), 0.25f, 1e-6f);
  }
}

TEST(OpsTest, RmsNormUnitWeight) {
  Tensor x = Tensor::FromData({1, 4}, {2, 2, 2, 2});
  Tensor w = Tensor::FromData({4}, {1, 1, 1, 1});
  Tensor out({1, 4});
  RmsNorm(x, w.data(), 0.0f, out);
  // rms = 2 -> every element becomes 1.
  for (int64_t c = 0; c < 4; ++c) {
    EXPECT_NEAR(out.at(0, c), 1.0f, 1e-5f);
  }
}

TEST(OpsTest, RmsNormAppliesWeight) {
  Tensor x = Tensor::FromData({1, 2}, {3, 4});
  Tensor w = Tensor::FromData({2}, {2, 0.5});
  Tensor out({1, 2});
  RmsNorm(x, w.data(), 0.0f, out);
  const float rms = std::sqrt((9.0f + 16.0f) / 2.0f);
  EXPECT_NEAR(out.at(0, 0), 3.0f / rms * 2.0f, 1e-5f);
  EXPECT_NEAR(out.at(0, 1), 4.0f / rms * 0.5f, 1e-5f);
}

// Blocks of 8 rows, a partial tail, and neither, at the hidden widths the models use
// and at widths that are no multiple of a vector.
TEST(OpsTest, RmsNormRowsEqualRowByRow) {
  for (const int64_t dim : {256, 88, 40, 7}) {
    const Tensor w = Normal(dim, dim);
    for (int64_t rows = 1; rows <= 40; ++rows) {
      const Tensor x = Normal(rows * dim, 1000 * dim + rows);
      Tensor want({rows * dim});
      for (int64_t r = 0; r < rows; ++r) {
        RmsNormRow(x.data() + r * dim, w.data(), 1e-5f, dim, want.data() + r * dim);
      }
      Tensor got({rows * dim});
      RmsNormRows(x.data(), w.data(), 1e-5f, dim, rows, got.data());
      EXPECT_TRUE(Tensor::BitwiseEqual(want, got)) << "dim " << dim << " rows " << rows;
    }
  }
}

TEST(OpsTest, LayerNormZeroMeanUnitVar) {
  Tensor x = Tensor::FromData({1, 4}, {1, 2, 3, 4});
  Tensor w = Tensor::FromData({4}, {1, 1, 1, 1});
  Tensor b = Tensor::FromData({4}, {0, 0, 0, 0});
  Tensor out({1, 4});
  LayerNorm(x, w.data(), b.data(), 0.0f, out);
  float mean = 0.0f, var = 0.0f;
  for (int64_t c = 0; c < 4; ++c) {
    mean += out.at(0, c);
  }
  mean /= 4.0f;
  for (int64_t c = 0; c < 4; ++c) {
    var += (out.at(0, c) - mean) * (out.at(0, c) - mean);
  }
  var /= 4.0f;
  EXPECT_NEAR(mean, 0.0f, 1e-5f);
  EXPECT_NEAR(var, 1.0f, 1e-4f);
}

TEST(OpsTest, LayerNormScaleAndBias) {
  Tensor x = Tensor::FromData({1, 2}, {-1, 1});
  Tensor w = Tensor::FromData({2}, {3, 3});
  Tensor b = Tensor::FromData({2}, {10, 10});
  Tensor out({1, 2});
  LayerNorm(x, w.data(), b.data(), 0.0f, out);
  EXPECT_NEAR(out.at(0, 0), 10.0f - 3.0f, 1e-5f);
  EXPECT_NEAR(out.at(0, 1), 10.0f + 3.0f, 1e-5f);
}

TEST(OpsTest, Silu) {
  Tensor t = Tensor::FromData({3}, {0.0f, 10.0f, -10.0f});
  SiluInPlace(t);
  EXPECT_NEAR(t.at(0), 0.0f, 1e-6f);
  EXPECT_NEAR(t.at(1), 10.0f, 1e-3f);   // x*sigmoid(x) -> x for large x
  EXPECT_NEAR(t.at(2), 0.0f, 1e-3f);    // -> 0 for very negative x
}

TEST(OpsTest, Gelu) {
  Tensor t = Tensor::FromData({3}, {0.0f, 5.0f, -5.0f});
  GeluInPlace(t);
  EXPECT_NEAR(t.at(0), 0.0f, 1e-6f);
  EXPECT_NEAR(t.at(1), 5.0f, 1e-3f);
  EXPECT_NEAR(t.at(2), 0.0f, 1e-3f);
}

TEST(OpsTest, SiluAndGeluBitExactAcrossPoolSizes) {
  for (void (*op)(Tensor&) : {&SiluInPlace, &GeluInPlace}) {
    for (const int64_t n : kElementCounts) {
      const Tensor x = Normal(n, 30 + n);
      ThreadPool::ResizeShared(1);
      Tensor serial = x.Clone();
      op(serial);
      for (size_t threads = 2; threads <= 4; ++threads) {
        ThreadPool::ResizeShared(threads);
        Tensor pooled = x.Clone();
        op(pooled);
        EXPECT_TRUE(Tensor::BitwiseEqual(serial, pooled))
            << (op == &SiluInPlace ? "SiLU " : "GELU ") << n << " at " << threads;
      }
    }
  }
}

TEST(OpsTest, Relu) {
  Tensor t = Tensor::FromData({3}, {-2.0f, 0.0f, 2.0f});
  ReluInPlace(t);
  EXPECT_EQ(t.at(0), 0.0f);
  EXPECT_EQ(t.at(1), 0.0f);
  EXPECT_EQ(t.at(2), 2.0f);
}

TEST(OpsTest, AddMulInPlace) {
  Tensor a = Tensor::FromData({3}, {1, 2, 3});
  Tensor b = Tensor::FromData({3}, {10, 20, 30});
  AddInPlace(a, b);
  EXPECT_EQ(a.at(2), 33.0f);
  MulInPlace(a, b);
  EXPECT_EQ(a.at(0), 110.0f);
}

}  // namespace
}  // namespace hcache
