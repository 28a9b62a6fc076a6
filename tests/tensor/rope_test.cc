#include "src/tensor/rope.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "src/common/rng.h"

namespace hcache {
namespace {

Tensor RandomActivations(int64_t n, int64_t dim, uint64_t seed) {
  Rng rng(seed);
  Tensor t({n, dim});
  for (int64_t i = 0; i < t.numel(); ++i) {
    t.at(i) = static_cast<float>(rng.NextNormal(0, 1));
  }
  return t;
}

TEST(RopeTest, PositionZeroIsIdentity) {
  Tensor x = RandomActivations(1, 8, 1);
  Tensor orig = x.Clone();
  ApplyRopeContiguous(x, /*start_pos=*/0, /*num_heads=*/2, /*head_dim=*/4);
  EXPECT_TRUE(Tensor::BitwiseEqual(x, orig) || Tensor::MaxAbsDiff(x, orig) < 1e-7f);
}

TEST(RopeTest, PreservesPairNorms) {
  Tensor x = RandomActivations(3, 16, 2);
  Tensor orig = x.Clone();
  ApplyRopeContiguous(x, 5, 2, 8);
  for (int64_t t = 0; t < 3; ++t) {
    for (int64_t p = 0; p < 8; ++p) {  // 8 rotation pairs per row
      const float a0 = orig.row(t)[2 * p], b0 = orig.row(t)[2 * p + 1];
      const float a1 = x.row(t)[2 * p], b1 = x.row(t)[2 * p + 1];
      EXPECT_NEAR(a0 * a0 + b0 * b0, a1 * a1 + b1 * b1, 1e-4f);
    }
  }
}

TEST(RopeTest, ExplicitPositionsMatchContiguous) {
  Tensor a = RandomActivations(4, 8, 3);
  Tensor b = a.Clone();
  ApplyRopeContiguous(a, 10, 1, 8);
  const int32_t pos[] = {10, 11, 12, 13};
  ApplyRope(b, pos, 1, 8);
  EXPECT_TRUE(Tensor::BitwiseEqual(a, b));
}

TEST(RopeTest, NonContiguousPositionsRotateIndependently) {
  // Token rotated at position 7 must equal the same data rotated at 7 in any batch —
  // this is what lets restoration re-apply RoPE with historical positions.
  Tensor batch = RandomActivations(3, 8, 4);
  Tensor single({1, 8});
  for (int64_t i = 0; i < 8; ++i) {
    single.at(0, i) = batch.at(1, i);
  }
  const int32_t batch_pos[] = {3, 7, 100};
  ApplyRope(batch, batch_pos, 2, 4);
  const int32_t one_pos[] = {7};
  ApplyRope(single, one_pos, 2, 4);
  for (int64_t i = 0; i < 8; ++i) {
    EXPECT_EQ(batch.at(1, i), single.at(0, i));  // bitwise
  }
}

TEST(RopeTest, RelativeAngleProperty) {
  // For a single rotation pair, <rope(q,m), rope(k,n)> depends only on (m-n).
  const int64_t head_dim = 2;
  auto dot_at = [&](int32_t m, int32_t n) {
    Tensor q = Tensor::FromData({1, 2}, {1.0f, 0.5f});
    Tensor k = Tensor::FromData({1, 2}, {0.3f, -0.7f});
    ApplyRope(q, &m, 1, head_dim);
    ApplyRope(k, &n, 1, head_dim);
    return q.at(0, 0) * k.at(0, 0) + q.at(0, 1) * k.at(0, 1);
  };
  EXPECT_NEAR(dot_at(5, 3), dot_at(12, 10), 1e-4f);
  EXPECT_NEAR(dot_at(30, 7), dot_at(123, 100), 1e-3f);
}

TEST(RopeTest, TableHoldsThePerCallExpressions) {
  // The table is built once from RoPE's own expressions; every entry must equal a
  // fresh powf/cosf/sinf evaluation bit for bit, below max_position (table rows) and
  // past it (computed on demand).
  const int64_t head_dim = 64, max_position = 100;
  const RopeTable table(head_dim, max_position);
  std::vector<float> scratch(head_dim);
  for (const int32_t pos : {0, 1, 7, 63, 99, 100, 101, 4095, 70000}) {
    const float* cs = table.CosSin(pos, scratch.data());
    for (int64_t i = 0; i < head_dim / 2; ++i) {
      const float freq = std::pow(10000.0f, -2.0f * static_cast<float>(i) /
                                                static_cast<float>(head_dim));
      const float angle = static_cast<float>(pos) * freq;
      EXPECT_EQ(cs[2 * i], std::cos(angle)) << pos << "," << i;
      EXPECT_EQ(cs[2 * i + 1], std::sin(angle)) << pos << "," << i;
    }
  }
}

TEST(RopeTest, TableRotationEqualsApplyRope) {
  // The transformer rotates through the table; the result must be ApplyRope's bits,
  // including for positions past max_position and with src != dst.
  const int64_t num_heads = 3, head_dim = 16;
  const RopeTable table(head_dim, /*max_position=*/50);
  const int32_t positions[] = {0, 5, 49, 50, 51, 1000};
  const Tensor base = RandomActivations(6, num_heads * head_dim, 7);
  Tensor want = base.Clone();
  ApplyRope(want, positions, num_heads, head_dim);
  Tensor applied = base.Clone();
  table.Apply(applied, positions, num_heads);
  EXPECT_TRUE(Tensor::BitwiseEqual(applied, want));
  Tensor rotated({6, num_heads * head_dim});
  for (int64_t t = 0; t < 6; ++t) {
    table.RotateRow(base.row(t), rotated.row(t), positions[t], num_heads);
  }
  EXPECT_TRUE(Tensor::BitwiseEqual(rotated, want));
}

TEST(RopeTest, DifferentThetaBasesDiffer) {
  Tensor a = RandomActivations(2, 8, 5);
  Tensor b = a.Clone();
  ApplyRopeContiguous(a, 3, 1, 8, 10000.0f);
  ApplyRopeContiguous(b, 3, 1, 8, 500.0f);
  EXPECT_GT(Tensor::MaxAbsDiff(a, b), 1e-4f);
}

}  // namespace
}  // namespace hcache
