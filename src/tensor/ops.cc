#include "src/tensor/ops.h"

#include <algorithm>
#include <cmath>

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

// Elements per subrange for the ops that call expf or tanhf on every element: an even
// share for each pool participant, so a short prefill's SiLU (a 20 x 512 gate) keeps
// the whole pool busy instead of running on the caller, but never below
// kMinTranscendentalGrain. On a 4-vCPU Xeon at -O3 an expf costs ~5.4 ns and a dispatch
// a microsecond or two, so an even split over two workers plus the caller first beats
// one thread at 600-800 elements; a decode step's 512-element gate stays on the caller.
constexpr int64_t kMinTranscendentalGrain = 512;

int64_t TranscendentalGrain(int64_t numel) {
  if (numel <= kMinTranscendentalGrain) {
    return kMinTranscendentalGrain;
  }
  const int64_t participants = ParallelParticipants();
  return std::max((numel + participants - 1) / participants, kMinTranscendentalGrain);
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

void SoftmaxRow(float* row, int64_t n) {
  if (n <= 0) {
    return;
  }
  float max_v = row[0];
  for (int64_t i = 1; i < n; ++i) {
    max_v = std::max(max_v, row[i]);
  }
  float sum = 0.0f;
  for (int64_t i = 0; i < n; ++i) {
    row[i] = std::exp(row[i] - max_v);
    sum += row[i];
  }
  const float inv = 1.0f / sum;
  for (int64_t i = 0; i < n; ++i) {
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

void SiluInPlace(Tensor& t) {
  ParallelFor(0, t.numel(), TranscendentalGrain(t.numel()), [&](int64_t i0, int64_t i1) {
    for (int64_t i = i0; i < i1; ++i) {
      const float x = t.at(i);
      t.at(i) = x / (1.0f + std::exp(-x));
    }
  });
}

void GeluInPlace(Tensor& t) {
  constexpr float kSqrt2OverPi = 0.7978845608028654f;
  ParallelFor(0, t.numel(), TranscendentalGrain(t.numel()), [&](int64_t i0, int64_t i1) {
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

void MulInPlace(Tensor& out, const Tensor& a) {
  CHECK(out.shape() == a.shape());
  ParallelFor(0, out.numel(), kElemGrain, [&](int64_t i0, int64_t i1) {
    for (int64_t i = i0; i < i1; ++i) {
      out.at(i) *= a.at(i);
    }
  });
}

}  // namespace hcache
