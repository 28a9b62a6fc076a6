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

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <vector>

#include "src/tensor/tensor.h"

namespace hcache {

// The panel width: weights are packed in kNr-column panels, and attention packs its
// keys in kNr-key tiles of the same form. The GEMM's register tile spans one panel, or
// two adjacent ones where a VecNr is one vector register (see gemm.cc).
inline constexpr int64_t kNr = 16;

// kNr floats as one GCC vector value, so the microkernels' accumulators stay in vector
// registers for a whole reduction (as float arrays, GCC spilled them to the stack once
// it unrolled the loop). Lane j of `acc += a * b` computes exactly the scalar
// expression acc[j] += a * b[j].
typedef float VecNr __attribute__((vector_size(kNr * sizeof(float))));

typedef int32_t VecNrIndex __attribute__((vector_size(kNr * sizeof(int32_t))));

// Transposes the kNr x kNr block held in rows[0..kNr) in registers: four rounds that
// each swap the off-diagonal b x b sub-blocks (b = 8, 4, 2, 1) of every 2b x 2b block.
inline void TransposeNr(VecNr* rows) {
  static_assert(kNr == 16, "the transpose rounds assume 16 lanes");
  const auto round = [rows](int b, VecNrIndex lo, VecNrIndex hi) {
    for (int i = 0; i < kNr; ++i) {
      if ((i & b) == 0) {
        const VecNr top = rows[i];
        const VecNr bottom = rows[i + b];
        rows[i] = __builtin_shuffle(top, bottom, lo);
        rows[i + b] = __builtin_shuffle(top, bottom, hi);
      }
    }
  };
  round(8, VecNrIndex{0, 1, 2, 3, 4, 5, 6, 7, 16, 17, 18, 19, 20, 21, 22, 23},
        VecNrIndex{8, 9, 10, 11, 12, 13, 14, 15, 24, 25, 26, 27, 28, 29, 30, 31});
  round(4, VecNrIndex{0, 1, 2, 3, 16, 17, 18, 19, 8, 9, 10, 11, 24, 25, 26, 27},
        VecNrIndex{4, 5, 6, 7, 20, 21, 22, 23, 12, 13, 14, 15, 28, 29, 30, 31});
  round(2, VecNrIndex{0, 1, 16, 17, 4, 5, 20, 21, 8, 9, 24, 25, 12, 13, 28, 29},
        VecNrIndex{2, 3, 18, 19, 6, 7, 22, 23, 10, 11, 26, 27, 14, 15, 30, 31});
  round(1, VecNrIndex{0, 16, 2, 18, 4, 20, 6, 22, 8, 24, 10, 26, 12, 28, 14, 30},
        VecNrIndex{1, 17, 3, 19, 5, 21, 7, 23, 9, 25, 11, 27, 13, 29, 15, 31});
}

// Packs W [n, k], whose row j starts at row(j), into kNr-column panels at `out`:
// out[s * k * kNr + p * kNr + j] = W[s * kNr + j][p], zero past row n.
template <typename RowPtr>
void PackRows(int64_t n, int64_t k, RowPtr row, float* out) {
  for (int64_t s = 0; s * kNr < n; ++s) {
    const int64_t cols = std::min(kNr, n - s * kNr);
    const float* src[kNr] = {};
    for (int64_t j = 0; j < cols; ++j) {
      src[j] = row(s * kNr + j);
    }
    float* panel = out + s * k * kNr;
    int64_t p = 0;
    if (cols == kNr) {  // whole kNr x kNr blocks transpose in registers
      for (; p + kNr <= k; p += kNr) {
        VecNr block[kNr];
        for (int64_t j = 0; j < kNr; ++j) {
          std::memcpy(&block[j], src[j] + p, sizeof(VecNr));
        }
        TransposeNr(block);
        std::memcpy(panel + p * kNr, block, sizeof(block));
      }
    }
    for (; p < k; ++p) {
      float* dst = panel + p * kNr;
      for (int64_t j = 0; j < cols; ++j) {
        dst[j] = src[j][p];
      }
      std::fill(dst + cols, dst + kNr, 0.0f);
    }
  }
}

// A weight W [n, k] packed into kNr-column panels: panel s holds columns
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
// large enough to pay for the dispatch; a GEMM with fewer row slabs than the pool has
// participants (a short prefill, a decode GEMV) gives each one an equal share of its
// columns.
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
