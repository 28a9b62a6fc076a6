// Elementwise / reduction kernels for the transformer forward pass.
//
// These cover both model families the paper evaluates:
//   * Llama2 uses RMSNorm + SwiGLU FFN,
//   * OPT uses LayerNorm + GELU(ReLU in some variants) FFN.
#ifndef HCACHE_SRC_TENSOR_OPS_H_
#define HCACHE_SRC_TENSOR_OPS_H_

#include <cstdint>

#include "src/tensor/tensor.h"

namespace hcache {

// In-place numerically-stable softmax over the last `n` entries of `row`.
void SoftmaxRow(float* row, int64_t n);

// Softmax over the last dimension of a rank-2 tensor, row by row.
void SoftmaxLastDim(Tensor& t);

// out[i] = x[i] * rsqrt(mean(x^2) + eps) * weight[i], per row of x [tokens, dim].
void RmsNorm(const Tensor& x, const float* weight, float eps, Tensor& out);

// Classic LayerNorm with learned scale+bias, per row of x [tokens, dim].
void LayerNorm(const Tensor& x, const float* weight, const float* bias, float eps,
               Tensor& out);

// One row of RmsNorm / LayerNorm: the tensor forms run exactly this per row, so a
// caller normalizing rows into its own scratch gets the same bits.
void RmsNormRow(const float* in, const float* weight, float eps, int64_t dim, float* out);
void LayerNormRow(const float* in, const float* weight, const float* bias, float eps,
                  int64_t dim, float* out);

// RmsNormRow over `rows` contiguous rows of `dim` floats, bit for bit: each row keeps
// its own sum of squares in RmsNormRow's order, but 8 rows accumulate side by side, so
// their chains overlap instead of running one after another.
void RmsNormRows(const float* in, const float* weight, float eps, int64_t dim, int64_t rows,
                 float* out);

// SiLU (x * sigmoid(x)), in place.
void SiluInPlace(Tensor& t);

// Tanh-approximated GELU, in place.
void GeluInPlace(Tensor& t);

// ReLU, in place.
void ReluInPlace(Tensor& t);

// out[i] += a[i].
void AddInPlace(Tensor& out, const Tensor& a);

// out[i] *= a[i] (used by SwiGLU's gate).
void MulInPlace(Tensor& out, const Tensor& a);

}  // namespace hcache

#endif  // HCACHE_SRC_TENSOR_OPS_H_
