#include "src/tensor/gemm.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "src/common/rng.h"

namespace hcache {
namespace {

Tensor RandomMatrix(int64_t r, int64_t c, Rng& rng) {
  Tensor t({r, c});
  for (int64_t i = 0; i < t.numel(); ++i) {
    t.at(i) = static_cast<float>(rng.NextNormal(0, 1));
  }
  return t;
}

// Reference triple loop without blocking.
Tensor NaiveMatMul(const Tensor& a, const Tensor& b) {
  Tensor c({a.dim(0), b.dim(1)});
  for (int64_t i = 0; i < a.dim(0); ++i) {
    for (int64_t j = 0; j < b.dim(1); ++j) {
      double acc = 0.0;
      for (int64_t k = 0; k < a.dim(1); ++k) {
        acc += static_cast<double>(a.at(i, k)) * b.at(k, j);
      }
      c.at(i, j) = static_cast<float>(acc);
    }
  }
  return c;
}

TEST(GemmTest, SmallKnownResult) {
  Tensor a = Tensor::FromData({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor b = Tensor::FromData({3, 2}, {7, 8, 9, 10, 11, 12});
  Tensor c = MatMul(a, b);
  EXPECT_FLOAT_EQ(c.at(0, 0), 58.0f);
  EXPECT_FLOAT_EQ(c.at(0, 1), 64.0f);
  EXPECT_FLOAT_EQ(c.at(1, 0), 139.0f);
  EXPECT_FLOAT_EQ(c.at(1, 1), 154.0f);
}

TEST(GemmTest, MatchesNaiveAcrossShapes) {
  Rng rng(1);
  // Shapes straddling the blocking boundaries (64/256).
  const int64_t shapes[][3] = {{1, 1, 1},   {3, 5, 7},    {64, 64, 64},
                               {65, 257, 3}, {100, 300, 50}, {2, 512, 9}};
  for (const auto& s : shapes) {
    Tensor a = RandomMatrix(s[0], s[1], rng);
    Tensor b = RandomMatrix(s[1], s[2], rng);
    Tensor got = MatMul(a, b);
    Tensor want = NaiveMatMul(a, b);
    EXPECT_LT(Tensor::MaxAbsDiff(got, want), 1e-3f)
        << s[0] << "x" << s[1] << "x" << s[2];
  }
}

TEST(GemmTest, TransposedBMatchesExplicitTranspose) {
  Rng rng(2);
  Tensor x = RandomMatrix(9, 33, rng);
  Tensor w = RandomMatrix(17, 33, rng);  // [out, in]
  Tensor wt({33, 17});
  for (int64_t i = 0; i < 17; ++i) {
    for (int64_t j = 0; j < 33; ++j) {
      wt.at(j, i) = w.at(i, j);
    }
  }
  Tensor got = MatMulTransposedB(x, w);
  Tensor want = MatMul(x, wt);
  EXPECT_LT(Tensor::MaxAbsDiff(got, want), 1e-4f);
}

TEST(GemmTest, AccumulateAddsIntoC) {
  Tensor a = Tensor::FromData({1, 2}, {1, 1});
  Tensor b = Tensor::FromData({2, 1}, {2, 3});
  Tensor c({1, 1});
  c.at(0) = 100.0f;
  GemmNN(a.data(), b.data(), c.data(), 1, 2, 1, /*accumulate=*/true);
  EXPECT_FLOAT_EQ(c.at(0), 105.0f);
  GemmNN(a.data(), b.data(), c.data(), 1, 2, 1, /*accumulate=*/false);
  EXPECT_FLOAT_EQ(c.at(0), 5.0f);
}

TEST(GemmTest, GemmNTRowsIndependentOfBatch) {
  // Determinism contract: the result for a given row must not depend on how many other
  // rows are in the batch. The lossless restoration guarantee rests on this.
  Rng rng(3);
  Tensor w = RandomMatrix(13, 29, rng);
  Tensor big = RandomMatrix(8, 29, rng);
  Tensor one({1, 29});
  for (int64_t i = 0; i < 29; ++i) {
    one.at(0, i) = big.at(5, i);
  }
  Tensor full = MatMulTransposedB(big, w);
  Tensor single = MatMulTransposedB(one, w);
  for (int64_t j = 0; j < 13; ++j) {
    // Bitwise equality, not approximate: identical accumulation order is required.
    EXPECT_EQ(full.at(5, j), single.at(0, j));
  }
}

Tensor Transpose(const Tensor& w) {
  Tensor t({w.dim(1), w.dim(0)});
  for (int64_t i = 0; i < w.dim(0); ++i) {
    for (int64_t j = 0; j < w.dim(1); ++j) {
      t.at(j, i) = w.at(i, j);
    }
  }
  return t;
}

TEST(GemmTest, PackedMatchesNaiveAcrossShapes) {
  // m across the 4-row register tile and the 64-row block, n off the 16-column panels,
  // k past one 256-deep k block.
  Rng rng(4);
  for (const int64_t m : {1, 3, 4, 17, 67}) {
    for (const int64_t n : {5, 37, 300}) {
      for (const int64_t k : {7, 300, 513}) {
        SCOPED_TRACE(testing::Message() << m << "x" << k << "x" << n);
        const Tensor x = RandomMatrix(m, k, rng);
        const Tensor w = RandomMatrix(n, k, rng);
        const Tensor got = MatMulTransposedB(x, PackedWeight(w));
        EXPECT_LT(Tensor::MaxAbsDiff(got, NaiveMatMul(x, Transpose(w))), 2e-3f);
        // Packing once at load and packing per call build the same panels.
        EXPECT_TRUE(Tensor::BitwiseEqual(got, MatMulTransposedB(x, w)));
      }
    }
  }
}

TEST(GemmTest, PackedWeightUnpacksToRawRows) {
  Rng rng(5);
  const Tensor top = RandomMatrix(21, 33, rng);
  const Tensor bottom = RandomMatrix(21, 33, rng);
  const PackedWeight one(top);
  EXPECT_EQ(one.rows(), 21);
  EXPECT_EQ(one.cols(), 33);
  EXPECT_TRUE(Tensor::BitwiseEqual(one.Unpack(), top));
  const PackedWeight stacked = PackedWeight::Stack(top, bottom);
  EXPECT_EQ(stacked.rows(), 42);
  EXPECT_TRUE(Tensor::BitwiseEqual(stacked.UnpackRows(0, 21), top));
  EXPECT_TRUE(Tensor::BitwiseEqual(stacked.UnpackRows(21, 42), bottom));
  // An absent tensor stays absent.
  EXPECT_TRUE(PackedWeight(Tensor()).empty());
  EXPECT_EQ(PackedWeight(Tensor()).Unpack().rank(), 0);
}

TEST(GemmTest, StackedKvGemmEqualsSeparateGemms) {
  // Column independence: the fused [W_k; W_v] projection must give each column exactly
  // the bits of its own GEMM, including at kv_dim % 16 != 0, where a 16-column panel
  // holds both K and V columns.
  Rng rng(6);
  const int64_t hidden = 300;
  for (const int64_t kv_dim : {24, 40}) {
    for (const int64_t m : {1, 7, 33}) {
      SCOPED_TRACE(testing::Message() << "kv_dim " << kv_dim << " m " << m);
      const Tensor x = RandomMatrix(m, hidden, rng);
      const Tensor wk = RandomMatrix(kv_dim, hidden, rng);
      const Tensor wv = RandomMatrix(kv_dim, hidden, rng);
      const Tensor kv = MatMulTransposedB(x, PackedWeight::Stack(wk, wv));
      const Tensor k = MatMulTransposedB(x, PackedWeight(wk));
      const Tensor v = MatMulTransposedB(x, PackedWeight(wv));
      for (int64_t i = 0; i < m; ++i) {
        for (int64_t j = 0; j < kv_dim; ++j) {
          ASSERT_EQ(kv.at(i, j), k.at(i, j)) << i << "," << j;
          ASSERT_EQ(kv.at(i, kv_dim + j), v.at(i, j)) << i << "," << j;
        }
      }
    }
  }
}

TEST(GemmTest, PackedHonorsLeadingDimensions) {
  // GemmPacked reads A rows `lda` apart and writes C rows `ldc` apart, leaving the
  // columns past n alone; the serial form computes the same bits.
  Rng rng(7);
  const int64_t m = 9, k = 20, n = 18, lda = 25, ldc = 30;
  const Tensor a = RandomMatrix(m, lda, rng);
  const Tensor w = RandomMatrix(n, k, rng);
  const PackedWeight pw(w);
  Tensor c({m, ldc});
  c.Fill(-7.0f);
  GemmPacked(a.data(), lda, pw, c.data(), ldc, m);
  Tensor serial({m, ldc});
  serial.Fill(-7.0f);
  GemmPackedSerial(a.data(), lda, pw, serial.data(), ldc, m);
  EXPECT_TRUE(Tensor::BitwiseEqual(c, serial));
  Tensor dense({m, k});
  for (int64_t i = 0; i < m; ++i) {
    std::copy(a.row(i), a.row(i) + k, dense.row(i));
  }
  const Tensor want = MatMulTransposedB(dense, w);
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < ldc; ++j) {
      EXPECT_EQ(c.at(i, j), j < n ? want.at(i, j) : -7.0f) << i << "," << j;
    }
  }
}

TEST(GemmTest, FlopCountConvention) {
  EXPECT_DOUBLE_EQ(GemmFlops(2, 3, 4), 48.0);  // 2*m*k*n
}

TEST(GemmTest, ZeroSizedDims) {
  Tensor a({0, 5});
  Tensor b({5, 3});
  Tensor c = MatMul(a, b);
  EXPECT_EQ(c.dim(0), 0);
  EXPECT_EQ(c.dim(1), 3);
}

}  // namespace
}  // namespace hcache
