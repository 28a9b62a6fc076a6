#include "src/tensor/ops.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/common/thread_pool.h"

namespace hcache {
namespace {

// Element counts on both sides of GELU's 512-element and SwiGLU's 1024-element floors,
// split evenly or not over 1 to 5 pool participants, up to a 42 x 512 append's gate.
constexpr int64_t kElementCounts[] = {1, 512, 513, 1023, 1024, 1025, 3584, 10240, 21504};

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

TEST(OpsTest, SwiGlu) {
  // Gate columns first, then up: SiLU(g) * u.
  Tensor gate_up = Tensor::FromData({1, 6}, {0.0f, 10.0f, -10.0f, 5.0f, 2.0f, 3.0f});
  SwiGluInPlace(gate_up);
  EXPECT_NEAR(gate_up.at(0), 0.0f, 1e-6f);
  EXPECT_NEAR(gate_up.at(1), 20.0f, 2e-3f);  // x*sigmoid(x) -> x for large x
  EXPECT_NEAR(gate_up.at(2), 0.0f, 2e-3f);   // -> 0 for very negative x
  EXPECT_EQ(gate_up.at(3), 5.0f);            // the up columns are kept
}

TEST(OpsTest, Gelu) {
  Tensor t = Tensor::FromData({3}, {0.0f, 5.0f, -5.0f});
  GeluInPlace(t);
  EXPECT_NEAR(t.at(0), 0.0f, 1e-6f);
  EXPECT_NEAR(t.at(1), 5.0f, 1e-3f);
  EXPECT_NEAR(t.at(2), 0.0f, 1e-3f);
}

TEST(OpsTest, SwiGluAndGeluBitExactAcrossPoolSizes) {
  const auto swiglu = [](Tensor& t) {
    const int64_t width = t.numel() % 512 == 0 ? 512 : 1;
    Tensor gate_up({t.numel() / width, 2 * width});
    for (int64_t r = 0; r < gate_up.dim(0); ++r) {
      for (int64_t c = 0; c < width; ++c) {
        gate_up.at(r, c) = t.at(r * width + c);
        gate_up.at(r, width + c) = 0.5f + static_cast<float>(c);
      }
    }
    SwiGluInPlace(gate_up);
    for (int64_t r = 0; r < gate_up.dim(0); ++r) {
      std::memcpy(t.data() + r * width, gate_up.row(r),
                  static_cast<size_t>(width) * sizeof(float));
    }
  };
  const std::pair<const char*, std::function<void(Tensor&)>> ops[] = {
      {"SwiGLU", swiglu}, {"GELU", &GeluInPlace}};
  for (const auto& [name, op] : ops) {
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
            << name << " " << n << " at " << threads;
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

TEST(OpsTest, AddInPlace) {
  Tensor a = Tensor::FromData({3}, {1, 2, 3});
  Tensor b = Tensor::FromData({3}, {10, 20, 30});
  AddInPlace(a, b);
  EXPECT_EQ(a.at(2), 33.0f);
}

// ---- the exp kernel ----------------------------------------------------------------

uint32_t Bits(float f) { return std::bit_cast<uint32_t>(f); }

// Distance in representable floats between two finite floats (or two equal infinities).
int64_t UlpDistance(float a, float b) {
  const auto ordered = [](float f) {
    const int64_t bits = std::bit_cast<int32_t>(f);
    return bits < 0 ? std::numeric_limits<int32_t>::min() - bits : bits;
  };
  return std::abs(ordered(a) - ordered(b));
}

float ExpOf(float x) {
  float y;
  ExpRow(&x, 1, &y);
  return y;
}

float RefExp(float x) { return static_cast<float>(std::exp(static_cast<double>(x))); }

// The range where e^x is neither 0 nor +inf once rounded to a float.
constexpr float kExpLo = -103.97f;
constexpr float kExpHi = 88.72f;

TEST(OpsTest, ExpWithin2UlpOfDouble) {
  // Every 97th float from kExpLo up to kExpHi, walked as ordered bit patterns: the
  // negative floats down to -0, then the positive ones.
  std::vector<float> xs;
  for (uint32_t b = Bits(kExpLo); b >= 0x80000000u && b <= Bits(kExpLo); b -= 97) {
    xs.push_back(std::bit_cast<float>(b));
  }
  for (uint32_t b = 0; b <= Bits(kExpHi); b += 97) {
    xs.push_back(std::bit_cast<float>(b));
  }
  std::vector<float> ys(xs.size());
  ExpRow(xs.data(), static_cast<int64_t>(xs.size()), ys.data());
  int64_t worst = 0, subnormals = 0;
  float worst_x = 0.0f;
  for (size_t i = 0; i < xs.size(); ++i) {
    const float want = RefExp(xs[i]);
    subnormals += want != 0.0f && want < std::numeric_limits<float>::min();
    const int64_t d = UlpDistance(ys[i], want);
    if (d > worst) {
      worst = d;
      worst_x = xs[i];
    }
  }
  EXPECT_LE(worst, 2) << "at x = " << worst_x;
  EXPECT_GT(subnormals, 1000);  // the walk reaches the subnormal results
}

TEST(OpsTest, ExpSpecialValues) {
  const float inf = std::numeric_limits<float>::infinity();
  EXPECT_EQ(Bits(ExpOf(0.0f)), Bits(1.0f));
  EXPECT_EQ(Bits(ExpOf(-0.0f)), Bits(1.0f));
  EXPECT_EQ(ExpOf(inf), inf);
  EXPECT_EQ(Bits(ExpOf(-inf)), Bits(0.0f));
  EXPECT_TRUE(std::isnan(ExpOf(std::numeric_limits<float>::quiet_NaN())));
  EXPECT_EQ(ExpOf(1000.0f), inf);
  EXPECT_EQ(Bits(ExpOf(-1000.0f)), Bits(0.0f));
  // Both edges of the range, bit for bit: the largest x with a finite e^x and the
  // smallest above it, and the smallest x with a non-zero e^x (the smallest subnormal)
  // and the largest below it.
  const float last_finite = std::bit_cast<float>(0x42b17217u);  // 88.7228317
  EXPECT_EQ(Bits(ExpOf(last_finite)), Bits(RefExp(last_finite)));
  EXPECT_TRUE(std::isfinite(ExpOf(last_finite)));
  EXPECT_EQ(ExpOf(std::nextafter(last_finite, inf)), inf);
  const float last_nonzero = std::bit_cast<float>(0xc2cff1b4u);  // -103.972076
  EXPECT_EQ(Bits(ExpOf(last_nonzero)), Bits(std::numeric_limits<float>::denorm_min()));
  EXPECT_EQ(Bits(ExpOf(std::nextafter(last_nonzero, -inf))), Bits(0.0f));
  EXPECT_EQ(Bits(RefExp(last_nonzero)), Bits(std::numeric_limits<float>::denorm_min()));
  EXPECT_EQ(Bits(RefExp(std::nextafter(last_nonzero, -inf))), Bits(0.0f));
}

// The exp's bits, pinned: CI runs this test in the default build and at -O3
// -march=native, so a build or a kernel change that moves one of them fails here.
TEST(OpsTest, ExpPinnedBits) {
  constexpr uint32_t kPinned[][2] = {
      {0x00000000u, 0x3f800000u},  // e^0 = 1
      {0x80000000u, 0x3f800000u},  // e^-0 = 1
      {0x3f800000u, 0x402df854u},  // e^1 = 2.71828175
      {0xbf800000u, 0x3ebc5ab2u},  // e^-1 = 0.36787945
      {0x3f000000u, 0x3fd3094cu},  // e^0.5 = 1.64872122
      {0xbf000000u, 0x3f1b4598u},  // e^-0.5 = 0.606530666
      {0x40000000u, 0x40ec7326u},  // e^2 = 7.38905621
      {0xbb23d70au, 0x3f7f5c5du},  // e^-0.00249999994 = 0.997503102
      {0x33d6bf95u, 0x3f800001u},  // e^1.00000001e-07 = 1.00000012
      {0xb3d6bf95u, 0x3f7ffffeu},  // e^-1.00000001e-07 = 0.999999881
      {0x3eb17218u, 0x3fb504f3u},  // e^0.346573591 = 1.41421354
      {0xbeb17218u, 0x3f3504f3u},  // e^-0.346573591 = 0.707106769
      {0x3f317218u, 0x40000000u},  // e^0.693147182 = 2
      {0x40490fdbu, 0x41b92024u},  // e^3.14159274 = 23.1406937
      {0x40f8a3d7u, 0x4514078au},  // e^7.76999998 = 2368.47119
      {0x41200000u, 0x46ac14eeu},  // e^10 = 22026.4648
      {0xc1200000u, 0x383e6bceu},  // e^-10 = 4.5399931e-05
      {0x41a40000u, 0x4e3eb628u},  // e^20.5 = 799902208
      {0xc1a40000u, 0x30abd1d8u},  // e^-20.5 = 1.25015287e-09
      {0xc2053333u, 0x2778b2eau},  // e^-33.2999992 = 3.45139033e-15
      {0x4231999au, 0x5f8508f6u},  // e^44.4000015 = 1.91723646e+19
      {0x42480000u, 0x638c881fu},  // e^50 = 5.18470546e+21
      {0xc2853333u, 0x0f719b23u},  // e^-66.5999985 = 1.19120956e-29
      {0x42a00000u, 0x792abbceu},  // e^80 = 5.54062248e+34
      {0xc2a00000u, 0x05bfecbau},  // e^-80 = 1.80485133e-35
      {0xc2af0000u, 0x006cb2bcu},  // e^-87.5 = 9.9823514e-39
      {0xc2b40000u, 0x0008ec28u},  // e^-90 = 8.19400869e-40
      {0xc2c80000u, 0x0000001bu},  // e^-100 = 3.78350585e-44
      {0xc2ce8eccu, 0x00000001u},  // e^-103.2789 = 1.40129846e-45
      {0x42b17217u, 0x7f7fff84u},  // e^88.7228317 = 3.40279852e+38
      {0xc2cff1b4u, 0x00000001u},  // e^-103.972076 = 1.40129846e-45
      {0xc2cff1b5u, 0x00000000u},  // e^-103.972084 = 0
  };
  for (const auto& [x, want] : kPinned) {
    EXPECT_EQ(Bits(ExpOf(std::bit_cast<float>(x))), want) << std::hex << "x bits 0x" << x;
  }
}

// An input's exp and SwiGLU are the same bits whichever lane or tail
// position it lands in: rows of 1 to 40 elements put one value at every position.
TEST(OpsTest, ExpAndSwiGluIndependentOfPosition) {
  Rng rng(77);
  for (int trial = 0; trial < 20; ++trial) {
    const float v = static_cast<float>(rng.NextNormal(0, 8));
    const float u = static_cast<float>(rng.NextNormal(0, 2));
    const float want_exp = ExpOf(v);
    Tensor one = Tensor::FromData({1, 2}, {v, u});
    SwiGluInPlace(one);
    for (int64_t n = 1; n <= 40; ++n) {
      const Tensor filler = Normal(2 * n, 1000 * trial + n);
      for (int64_t pos = 0; pos < n; ++pos) {
        Tensor in = filler.Clone();
        in.at(pos) = v;
        in.at(n + pos) = u;
        Tensor out({n});
        ExpRow(in.data(), n, out.data());
        ASSERT_EQ(Bits(out.at(pos)), Bits(want_exp)) << "n " << n << " at " << pos;
        Tensor gate_up({1, 2 * n});
        std::memcpy(gate_up.data(), in.data(), static_cast<size_t>(2 * n) * sizeof(float));
        SwiGluInPlace(gate_up);
        ASSERT_EQ(Bits(gate_up.at(pos)), Bits(one.at(0))) << "n " << n << " at " << pos;
      }
    }
  }
}

// SiLU(x) = x / (1 + e^-x) against the same formula in double, over every 211th float
// with |x| < 80; SwiGLU's product with u rounds once more, on top of SiLU's bits.
TEST(OpsTest, SwiGluWithin2UlpOfDouble) {
  std::vector<float> gs;
  for (uint32_t b = 0; b < Bits(80.0f); b += 211) {
    gs.push_back(std::bit_cast<float>(b));
    gs.push_back(std::bit_cast<float>(b | 0x80000000u));
  }
  const int64_t n = static_cast<int64_t>(gs.size());
  Tensor gate_up({2, 2 * n});
  for (int64_t i = 0; i < n; ++i) {
    gate_up.at(0, i) = gate_up.at(1, i) = gs[static_cast<size_t>(i)];
    gate_up.at(0, n + i) = 1.0f;
    gate_up.at(1, n + i) = 0.5f + static_cast<float>(i % 7) * 0.3f;
  }
  Tensor out = gate_up.Clone();
  SwiGluInPlace(out);
  int64_t worst = 0;
  float worst_g = 0.0f;
  for (int64_t i = 0; i < n; ++i) {
    const double g = gs[static_cast<size_t>(i)];
    const int64_t d = UlpDistance(out.at(0, i), static_cast<float>(g / (1.0 + std::exp(-g))));
    if (d > worst) {
      worst = d;
      worst_g = static_cast<float>(g);
    }
    ASSERT_EQ(Bits(out.at(1, i)), Bits(out.at(0, i) * gate_up.at(1, n + i))) << "g = " << g;
  }
  EXPECT_LE(worst, 2) << "at g = " << worst_g;
}

}  // namespace
}  // namespace hcache
