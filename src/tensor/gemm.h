// Dense matrix multiplication kernels.
//
// The transformer stores weight matrices as [out_features, in_features] (the layout
// used by Llama/OPT checkpoints), so the projection of activations X [m, in] is
// X * W^T. Every weight is packed once, when it is built or loaded, into the panels
// the microkernel reads (PackedWeight); GemmPacked then runs on those panels with no
// per-call packing of the weight. GemmNT and GemmNN serve callers holding a plain
// row-major right operand: they pack it and run the same packed slab loop, so there
// is one slab loop for every GEMM.
//
// The kernels are cache-blocked loops over GCC vector types; they exist to make
// the functional plane *real*, not to compete with BLAS. Determinism matters more than
// speed: a fixed loop order guarantees bit-identical results for identical inputs,
// which the lossless-restoration tests rely on. Each output element's reduction order
// depends only on k, never on m, on which columns share a call (a stacked [W_k; W_v]
// equals two separate GEMMs bit for bit), or on the thread count.
#ifndef HCACHE_SRC_TENSOR_GEMM_H_
#define HCACHE_SRC_TENSOR_GEMM_H_

#include <cstdint>
#include <vector>

#include "src/tensor/tensor.h"

namespace hcache {

// A weight W [n, k] packed into kNr(16)-column panels: panel s holds columns
// [16s, 16s + 16) of W^T for every k, row p at floats [p * 16, p * 16 + 16), with the
// columns past n zero-filled; GemmNT builds the same panels from a raw W per call. The
// packed form replaces the raw tensor, so it gives the raw row-major rows back (the
// checkpoint layout).
class PackedWeight {
 public:
  PackedWeight() = default;
  // Packs a row-major [n, k] tensor; a rank-0 (absent) tensor packs to an empty weight.
  explicit PackedWeight(const Tensor& w);
  // Packs [top; bottom]: W's rows are top's rows followed by bottom's (same k).
  static PackedWeight Stack(const Tensor& top, const Tensor& bottom);

  PackedWeight(PackedWeight&&) noexcept = default;
  PackedWeight& operator=(PackedWeight&&) noexcept = default;
  PackedWeight(const PackedWeight&) = delete;
  PackedWeight& operator=(const PackedWeight&) = delete;

  bool empty() const { return !present_; }
  int64_t rows() const { return rows_; }  // n, out_features
  int64_t cols() const { return cols_; }  // k, in_features
  const float* panels() const { return panels_.data(); }

  // Rows [r0, r1) of W in row-major order, [r1 - r0, k].
  Tensor UnpackRows(int64_t r0, int64_t r1) const;
  // W itself; a rank-0 tensor when empty.
  Tensor Unpack() const;

 private:
  bool present_ = false;
  int64_t rows_ = 0;
  int64_t cols_ = 0;
  std::vector<float> panels_;
};

// C[m,n] = A[m,k] * W^T; A row-major with leading dimension lda, C with ldc,
// n = w.rows(). Work-shares row or column slabs on the shared pool once the GEMM is
// large enough to pay for the dispatch.
void GemmPacked(const float* a, int64_t lda, const PackedWeight& w, float* c, int64_t ldc,
                int64_t m);

// GemmPacked on the calling thread only, for callers that already work-share rows.
void GemmPackedSerial(const float* a, int64_t lda, const PackedWeight& w, float* c,
                      int64_t ldc, int64_t m);

// C[m,n] = A[m,k] * B[k,n]  (+ C when accumulate).
void GemmNN(const float* a, const float* b, float* c, int64_t m, int64_t k, int64_t n,
            bool accumulate = false);

// C[m,n] = A[m,k] * B[n,k]^T  (+ C when accumulate). B is row-major [n, k].
void GemmNT(const float* a, const float* b, float* c, int64_t m, int64_t k, int64_t n,
            bool accumulate = false);

// Tensor conveniences (shapes are checked).
Tensor MatMul(const Tensor& a, const Tensor& b);                     // [m,k]x[k,n]
Tensor MatMulTransposedB(const Tensor& x, const Tensor& w);          // [m,k]x[n,k]^T
Tensor MatMulTransposedB(const Tensor& x, const PackedWeight& w);    // [m,k]x[n,k]^T

// FLOP count of a GEMM under the paper's convention (one multiply-add = 2 FLOPs).
constexpr double GemmFlops(int64_t m, int64_t k, int64_t n) {
  return 2.0 * static_cast<double>(m) * static_cast<double>(k) * static_cast<double>(n);
}

}  // namespace hcache

#endif  // HCACHE_SRC_TENSOR_GEMM_H_
