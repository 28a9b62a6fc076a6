#include "src/tensor/ops.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "src/common/thread_pool.h"

namespace hcache {

namespace {

// Rows per ParallelFor subrange for the row-wise ops, sized so a subrange carries at
// least a few thousand elements of work regardless of row width. Every row is computed
// entirely by one thread in the serial order, so partitioning never changes a bit.
int64_t RowGrain(int64_t row_width) {
  return std::max<int64_t>(1, 4096 / std::max<int64_t>(row_width, 1));
}

// Elements per subrange for the flat element-wise ops.
constexpr int64_t kElemGrain = 1 << 14;

// Items per subrange for the ops that cost more per element than a dispatch amortizes
// at kElemGrain: an even share for each pool participant, so a short prefill keeps the
// whole pool busy instead of running on the caller, but never below `min_items`, so
// the shortest calls (a decode step) stay on the caller.
int64_t EvenShareGrain(int64_t items, int64_t min_items) {
  const int64_t participants = ParallelParticipants();
  return std::max((items + participants - 1) / participants, min_items);
}

// The floors, sized on a 4-vCPU Xeon at -O3 -march=native with two workers plus the
// caller, where a dispatch costs a microsecond or two:
//   * GELU calls tanhf on every element, ~5.4 ns each, so an even split first beats
//     one thread at 600-800 elements: at least 512 elements per subrange.
//   * SwiGLU's vector pass costs ~0.4 ns per element. Splitting its rows evenly first
//     beat one thread at ~2000 elements (4 rows of 512) and cut a 20-row prefill's pass
//     from 7-11 us to 3.5-4.6 us, while 16384-element subranges left a 42-row append's
//     on one or two threads: at least 1024 elements' worth of rows per subrange.
constexpr int64_t kMinGeluGrain = 512;
constexpr int64_t kMinSwiGluElems = 1024;

// The exp kernel's vector: kExpLanes floats as one GCC vector value, and its bits.
constexpr int64_t kExpLanes = 16;
typedef float ExpVec __attribute__((vector_size(kExpLanes * sizeof(float))));
typedef uint32_t ExpBits __attribute__((vector_size(kExpLanes * sizeof(uint32_t))));

// Lanes [0, n) of `v` loaded from `src`, the rest `pad`; n <= kExpLanes.
void LoadLanes(const float* src, int64_t n, float pad, ExpVec& v) {
  v = ExpVec{} + pad;
  std::memcpy(&v, src, static_cast<size_t>(n) * sizeof(float));
}

// out = e^x in every lane, within 2 ULP of the correctly rounded result (Cephes' expf):
// x = k ln2 + r with k = round(x log2e) and |r| <= ~ln2/2, r taken in two parts
// (k * kLn2Hi is exact: kLn2Hi has 9 significant bits), e^r from one degree-6
// polynomial, and 2^k applied as 2^(k >> 1) * 2^(k - (k >> 1)), so the first product
// is exact and a subnormal result is rounded once. x is clamped to [-104, 89] first:
// e^x is 0 below -103.97 and +inf above 88.73, -inf and +inf included; NaN stays NaN.
// Every lane runs the same operations, so a value's exp does not depend on its lane or
// row position, and contraction is off (as in every caller it is inlined into), so
// the default and -march=native builds round every step alike and agree bit for bit.
__attribute__((always_inline, optimize("fp-contract=off"))) inline void ExpLanes(
    const ExpVec& x, ExpVec& out) {
  constexpr float kLog2e = 1.44269504088896341f;
  constexpr float kLn2Hi = 0.693359375f;
  constexpr float kLn2Lo = -2.12194440e-4f;
  // 1.5 * 2^23: adding it rounds any |v| < 2^22 to an integer, held in the low bits.
  constexpr float kRound = 12582912.0f;
  // The low bits of kRound + k for k = -150, the smallest k after the clamp.
  constexpr uint32_t kRoundBitsMinus150 = 0x4b400000u - 150u;
  const ExpVec lo = ExpVec{} - 104.0f, hi = ExpVec{} + 89.0f;
  ExpVec c = x < lo ? lo : x;
  c = c > hi ? hi : c;
  const ExpVec t = c * kLog2e + kRound;
  const ExpVec k = t - kRound;
  ExpVec r = c - k * kLn2Hi;
  r = r - k * kLn2Lo;
  const ExpVec z = r * r;
  ExpVec p = 1.9875691500e-4f * r + 1.3981999507e-3f;
  p = p * r + 8.3334519073e-3f;
  p = p * r + 4.1665795894e-2f;
  p = p * r + 1.6666665459e-1f;
  p = p * r + 5.0000001201e-1f;
  const ExpVec y = p * z + r + 1.0f;
  // k + 150 in [0, 278]; its halves k1 = k >> 1 and k - k1 each lie in [-75, 64], so
  // each 2^ is a normal float with biased exponent 127 - 75 + the half's offset. (A
  // cast between GCC vector types of one size keeps the bits.)
  const ExpBits kb = (ExpBits)t - kRoundBitsMinus150;
  const ExpBits k1b = kb >> 1;
  const ExpVec s1 = (ExpVec)((k1b + 52u) << 23);
  const ExpVec s2 = (ExpVec)((kb - k1b + 52u) << 23);
  out = y * s1 * s2;
}

// The tail of RmsNormRow once a row's sum of squares is known.
void RmsScaleRow(const float* in, const float* weight, float eps, int64_t dim, double ssq,
                 float* out) {
  const float scale =
      1.0f / std::sqrt(static_cast<float>(ssq / static_cast<double>(dim)) + eps);
  for (int64_t i = 0; i < dim; ++i) {
    out[i] = in[i] * scale * weight[i];
  }
}

}  // namespace

__attribute__((optimize("fp-contract=off"))) void ExpRow(const float* in, int64_t n,
                                                         float* out) {
  int64_t i = 0;
  for (; i + kExpLanes <= n; i += kExpLanes) {
    ExpVec v;
    std::memcpy(&v, in + i, sizeof(v));
    ExpLanes(v, v);
    std::memcpy(out + i, &v, sizeof(v));
  }
  if (i < n) {
    ExpVec v;
    LoadLanes(in + i, n - i, 0.0f, v);
    ExpLanes(v, v);
    std::memcpy(out + i, &v, static_cast<size_t>(n - i) * sizeof(float));
  }
}

// The max is the same value in any order (a signed zero aside, whose exp is 1 either
// way). The sum keeps kExpLanes partial sums, one per lane, each adding its lane's
// elements in row order, and then adds the partials in lane order, so it depends only
// on n. Contraction is off here too, as everywhere the exp kernel may be inlined.
__attribute__((optimize("fp-contract=off"))) void SoftmaxRow(float* row, int64_t n) {
  if (n <= 0) {
    return;
  }
  ExpVec max_lanes = ExpVec{} + row[0];
  int64_t i = 0;
  for (; i + kExpLanes <= n; i += kExpLanes) {
    ExpVec v;
    std::memcpy(&v, row + i, sizeof(v));
    max_lanes = v > max_lanes ? v : max_lanes;
  }
  float max_v = row[0];
  for (int64_t j = 0; j < kExpLanes; ++j) {
    max_v = std::max(max_v, max_lanes[j]);
  }
  for (; i < n; ++i) {
    max_v = std::max(max_v, row[i]);
  }
  for (i = 0; i < n; ++i) {
    row[i] -= max_v;
  }
  ExpRow(row, n, row);
  ExpVec sums = {};
  for (i = 0; i + kExpLanes <= n; i += kExpLanes) {
    ExpVec v;
    std::memcpy(&v, row + i, sizeof(v));
    sums += v;
  }
  if (i < n) {
    ExpVec v;
    LoadLanes(row + i, n - i, 0.0f, v);
    sums += v;
  }
  float sum = 0.0f;
  for (int64_t j = 0; j < kExpLanes; ++j) {
    sum += sums[j];
  }
  const float inv = 1.0f / sum;
  for (i = 0; i < n; ++i) {
    row[i] *= inv;
  }
}

void SoftmaxLastDim(Tensor& t) {
  CHECK_EQ(t.rank(), 2);
  const int64_t cols = t.dim(1);
  ParallelFor(0, t.dim(0), RowGrain(cols), [&](int64_t r0, int64_t r1) {
    for (int64_t r = r0; r < r1; ++r) {
      SoftmaxRow(t.row(r), cols);
    }
  });
}

void RmsNormRow(const float* in, const float* weight, float eps, int64_t dim, float* out) {
  double ssq = 0.0;
  for (int64_t i = 0; i < dim; ++i) {
    ssq += static_cast<double>(in[i]) * in[i];
  }
  RmsScaleRow(in, weight, eps, dim, ssq, out);
}

// A float squared is exact in double (24 + 24 significand bits), so an FMA contraction
// of `ssq + x * x` rounds once, as the separate add does, and cannot move a bit.
void RmsNormRows(const float* in, const float* weight, float eps, int64_t dim, int64_t rows,
                 float* out) {
  constexpr int64_t kBlock = 8;
  int64_t r = 0;
  for (; r + kBlock <= rows; r += kBlock) {
    const float* x = in + r * dim;
    double ssq[kBlock] = {};
    for (int64_t i = 0; i < dim; ++i) {
      for (int64_t j = 0; j < kBlock; ++j) {
        ssq[j] += static_cast<double>(x[j * dim + i]) * x[j * dim + i];
      }
    }
    for (int64_t j = 0; j < kBlock; ++j) {
      RmsScaleRow(x + j * dim, weight, eps, dim, ssq[j], out + (r + j) * dim);
    }
  }
  for (; r < rows; ++r) {
    RmsNormRow(in + r * dim, weight, eps, dim, out + r * dim);
  }
}

void LayerNormRow(const float* in, const float* weight, const float* bias, float eps,
                  int64_t dim, float* out) {
  double mean = 0.0;
  for (int64_t i = 0; i < dim; ++i) {
    mean += in[i];
  }
  mean /= static_cast<double>(dim);
  double var = 0.0;
  for (int64_t i = 0; i < dim; ++i) {
    const double d = in[i] - mean;
    var += d * d;
  }
  var /= static_cast<double>(dim);
  const float inv = 1.0f / std::sqrt(static_cast<float>(var) + eps);
  for (int64_t i = 0; i < dim; ++i) {
    out[i] = (in[i] - static_cast<float>(mean)) * inv * weight[i] + bias[i];
  }
}

void RmsNorm(const Tensor& x, const float* weight, float eps, Tensor& out) {
  CHECK_EQ(x.rank(), 2);
  CHECK(x.shape() == out.shape());
  const int64_t dim = x.dim(1);
  ParallelFor(0, x.dim(0), RowGrain(dim), [&](int64_t r0, int64_t r1) {
    RmsNormRows(x.row(r0), weight, eps, dim, r1 - r0, out.row(r0));
  });
}

void LayerNorm(const Tensor& x, const float* weight, const float* bias, float eps,
               Tensor& out) {
  CHECK_EQ(x.rank(), 2);
  CHECK(x.shape() == out.shape());
  const int64_t dim = x.dim(1);
  ParallelFor(0, x.dim(0), RowGrain(dim), [&](int64_t r0, int64_t r1) {
    for (int64_t r = r0; r < r1; ++r) {
      LayerNormRow(x.row(r), weight, bias, eps, dim, out.row(r));
    }
  });
}

namespace {

// o = SiLU(g) * u = g / (1 + e^-g) * u in every lane: negating g is exact, and the add,
// the divide and the multiply round in that order.
__attribute__((always_inline, optimize("fp-contract=off"))) inline void SwiGluLanes(
    const ExpVec& g, const ExpVec& u, ExpVec& o) {
  ExpVec e;
  ExpLanes(-g, e);
  o = g / (1.0f + e) * u;
}

// `out` may be `gate`: each vector is loaded before its result is stored.
__attribute__((optimize("fp-contract=off"))) void SwiGluRow(const float* gate,
                                                            const float* up, int64_t n,
                                                            float* out) {
  int64_t i = 0;
  for (; i + kExpLanes <= n; i += kExpLanes) {
    ExpVec g, u, o;
    std::memcpy(&g, gate + i, sizeof(g));
    std::memcpy(&u, up + i, sizeof(u));
    SwiGluLanes(g, u, o);
    std::memcpy(out + i, &o, sizeof(o));
  }
  if (i < n) {
    ExpVec g, u, o;
    LoadLanes(gate + i, n - i, 0.0f, g);
    LoadLanes(up + i, n - i, 0.0f, u);
    SwiGluLanes(g, u, o);
    std::memcpy(out + i, &o, static_cast<size_t>(n - i) * sizeof(float));
  }
}

}  // namespace

void SwiGluInPlace(Tensor& gate_up) {
  CHECK_EQ(gate_up.rank(), 2);
  CHECK_EQ(gate_up.dim(1) % 2, 0);
  const int64_t rows = gate_up.dim(0);
  const int64_t width = gate_up.dim(1) / 2;
  const int64_t min_rows = std::max<int64_t>(1, kMinSwiGluElems / std::max<int64_t>(width, 1));
  ParallelFor(0, rows, EvenShareGrain(rows, min_rows), [&](int64_t r0, int64_t r1) {
    for (int64_t r = r0; r < r1; ++r) {
      float* gate = gate_up.row(r);
      SwiGluRow(gate, gate + width, width, gate);
    }
  });
}

void GeluInPlace(Tensor& t) {
  constexpr float kSqrt2OverPi = 0.7978845608028654f;
  ParallelFor(0, t.numel(), EvenShareGrain(t.numel(), kMinGeluGrain), [&](int64_t i0,
                                                                         int64_t i1) {
    for (int64_t i = i0; i < i1; ++i) {
      const float x = t.at(i);
      const float inner = kSqrt2OverPi * (x + 0.044715f * x * x * x);
      t.at(i) = 0.5f * x * (1.0f + std::tanh(inner));
    }
  });
}

void ReluInPlace(Tensor& t) {
  ParallelFor(0, t.numel(), kElemGrain, [&](int64_t i0, int64_t i1) {
    for (int64_t i = i0; i < i1; ++i) {
      t.at(i) = std::max(0.0f, t.at(i));
    }
  });
}

void AddInPlace(Tensor& out, const Tensor& a) {
  CHECK(out.shape() == a.shape());
  ParallelFor(0, out.numel(), kElemGrain, [&](int64_t i0, int64_t i1) {
    for (int64_t i = i0; i < i1; ++i) {
      out.at(i) += a.at(i);
    }
  });
}

}  // namespace hcache
