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

// out[i] = e^in[i] for i < n, through the forward's one exp kernel (SoftmaxRow and
// SwiGluInPlace use it): 16 lanes of range reduction and one polynomial, within 2 ULP of
// the correctly rounded e^x (subnormal results included; 0 below -103.97, +inf above
// 88.73, NaN stays NaN). It calls no libm function, so its bits do not depend on the
// host's libm, and they do not depend on an element's position or n, or on the build's
// -march (contraction off).
void ExpRow(const float* in, int64_t n, float* out);

// In-place numerically-stable softmax over the first `n` entries of `row`: the max,
// e^(x - max) through ExpRow's kernel, a sum whose order depends only on n, and the
// scale by 1 / sum. An element's result depends only on the row's values and n.
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

// SwiGLU's gating in place, for gate_up [rows, 2 * width], the output of one GEMM over a
// stacked [W_gate; W_up]: each gate element g = gate_up[r][c] becomes
// SiLU(g) * u = g / (1 + e^-g) * u with u = gate_up[r][width + c]; the up columns keep
// their values. e^-g comes from ExpRow's kernel.
void SwiGluInPlace(Tensor& gate_up);

// Tanh-approximated GELU, in place.
void GeluInPlace(Tensor& t);

// ReLU, in place.
void ReluInPlace(Tensor& t);

// out[i] += a[i].
void AddInPlace(Tensor& out, const Tensor& a);

}  // namespace hcache

#endif  // HCACHE_SRC_TENSOR_OPS_H_
