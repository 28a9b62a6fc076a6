#include "src/tensor/gemm.h"

#include <algorithm>
#include <cstring>
#include <vector>

#include "src/common/thread_pool.h"

namespace hcache {

namespace {

// BLIS-style cache blocking: a kKc x kNc B-panel (~256 KiB) stays L2-resident while a
// kMc x kKc A-block (~64 KiB) streams through L1. The register tile is kMr x kNr
// (4 x 16 floats = one 4x16 accumulator block the compiler keeps in vector registers).
constexpr int64_t kMc = 64;
constexpr int64_t kKc = 256;
constexpr int64_t kNc = 256;
constexpr int64_t kMr = 4;

// Below this many multiply-adds a GEMM runs on the calling thread: dispatching to the
// shared pool costs more than the work. Measured with hcache_serve's chat workload
// (hidden 256, kv 256, ffn 512, vocab 1024; 4 vCPUs, two spinning pool workers plus
// the caller; median of 4 alternating runs): a decode step's one-row GEMMs stream
// their weights from L3, so splitting even a 256 x 256 GEMV beat running it serially
// (tpot_p50 1.17 ms, against 1.22 ms with this threshold and kMinSlabWork at
// 1 << 16 / 1 << 15, and 2.18 ms at 1 << 19 / 1 << 18).
//
// Above it, RunPacked splits the GEMM over the pool's participants (see there). A
// column slab carries at least kMinSlabWork multiply-adds and kMinSlabCols columns,
// because each one packs all of A again (at 16 columns, packing A cost as much as the
// arithmetic); with a handful of participants the even split is wider than both.
constexpr int64_t kParallelWorkThreshold = 1 << 15;
constexpr int64_t kMinSlabWork = 1 << 14;
constexpr int64_t kMinSlabCols = 4 * kNr;

constexpr int64_t CeilDiv(int64_t a, int64_t b) { return (a + b - 1) / b; }

// Floats in the panels of a W [n, k]: whole kNr-column panels of k rows each.
constexpr int64_t PanelFloats(int64_t n, int64_t k) { return CeilDiv(n, kNr) * kNr * k; }

// Packs W = B^T for a row-major B [k, n] (GemmNN's right operand) into the same panels.
void PackColumns(const float* b, int64_t k, int64_t n, float* out) {
  for (int64_t s = 0; s < CeilDiv(n, kNr); ++s) {
    float* panel = out + s * k * kNr;
    const int64_t cols = std::min(kNr, n - s * kNr);
    for (int64_t p = 0; p < k; ++p) {
      const float* src = b + p * n + s * kNr;
      float* dst = panel + p * kNr;
      std::copy(src, src + cols, dst);
      std::fill(dst + cols, dst + kNr, 0.0f);
    }
  }
}

// Packs the mc x kc block of A starting at `a` (row-major, leading dimension lda) into
// kMr-row strips: ap[strip][p * kMr + r] = A[strip * kMr + r][p]. Rows past mc are
// zero-filled so the microkernel always runs a full kMr x kNr tile; the padded rows'
// outputs are simply never stored.
void PackA(const float* a, int64_t lda, int64_t mc, int64_t kc, float* ap) {
  for (int64_t i0 = 0; i0 < mc; i0 += kMr) {
    const int64_t rows = std::min(kMr, mc - i0);
    for (int64_t p = 0; p < kc; ++p) {
      for (int64_t r = 0; r < rows; ++r) {
        ap[p * kMr + r] = a[(i0 + r) * lda + p];
      }
      for (int64_t r = rows; r < kMr; ++r) {
        ap[p * kMr + r] = 0.0f;
      }
    }
    ap += kc * kMr;
  }
}

// Register-tiled inner kernel: accumulates a full kMr x kNr tile over kc in four
// vector accumulators (four independent fma streams over kNr lanes), then stores the
// mr x nr valid region.
// `assign` overwrites C (first k-block of a non-accumulating GEMM); otherwise the tile
// sum is added — so per element C[i][j] receives its k-partial sums in a fixed order
// that depends only on the k blocking, never on the m/n partitioning or thread count.
static_assert(kMr == 4, "the microkernel unrolls up to four A rows");

// Overwrites (assign) or adds into c_row the first nr lanes of one accumulator.
inline void StoreRow(const VecNr& acc, float* c_row, int64_t nr, bool assign) {
  float lanes[kNr];
  std::memcpy(lanes, &acc, sizeof(lanes));
  if (nr == kNr) {  // full-width tile: fixed-bound stores
    if (assign) {
      for (int64_t j = 0; j < kNr; ++j) {
        c_row[j] = lanes[j];
      }
    } else {
      for (int64_t j = 0; j < kNr; ++j) {
        c_row[j] += lanes[j];
      }
    }
    return;
  }
  if (assign) {
    for (int64_t j = 0; j < nr; ++j) {
      c_row[j] = lanes[j];
    }
  } else {
    for (int64_t j = 0; j < nr; ++j) {
      c_row[j] += lanes[j];
    }
  }
}

// MR is the number of live A rows in the tile (1..kMr); rows past MR are the zero
// padding PackA added and their accumulators are never materialized, so a 1-row GEMM
// (decode, GEMV shape) does 1/4 of the tile work. Each surviving lane's chain
// `acc_r[j] += a_r * b_j` is textually identical in every instantiation, keeping the
// result bit-independent of which MR the tile geometry selects.
template <int MR>
void MicroKernelImpl(const float* ap, const float* bp, int64_t kc, float* c, int64_t ldc,
                     int64_t mr, int64_t nr, bool assign) {
  VecNr acc0 = {}, acc1 = {}, acc2 = {}, acc3 = {};
  for (int64_t p = 0; p < kc; ++p) {
    const float* a_col = ap + p * kMr;
    VecNr b;
    std::memcpy(&b, bp + p * kNr, sizeof(b));
    acc0 += a_col[0] * b;
    if constexpr (MR > 1) acc1 += a_col[1] * b;
    if constexpr (MR > 2) acc2 += a_col[2] * b;
    if constexpr (MR > 3) acc3 += a_col[3] * b;
  }
  const VecNr* rows[kMr] = {&acc0, &acc1, &acc2, &acc3};
  for (int64_t r = 0; r < mr; ++r) {
    StoreRow(*rows[r], c + r * ldc, nr, assign);
  }
}

void MicroKernel(const float* ap, const float* bp, int64_t kc, float* c, int64_t ldc,
                 int64_t mr, int64_t nr, bool assign) {
  switch (mr) {
    case 1: MicroKernelImpl<1>(ap, bp, kc, c, ldc, mr, nr, assign); break;
    case 2: MicroKernelImpl<2>(ap, bp, kc, c, ldc, mr, nr, assign); break;
    case 3: MicroKernelImpl<3>(ap, bp, kc, c, ldc, mr, nr, assign); break;
    default: MicroKernelImpl<4>(ap, bp, kc, c, ldc, mr, nr, assign); break;
  }
}

// Computes rows [r0, r1) x cols [c0, c1) of C = A * W^T (+ C when accumulate) from
// W's panels, serially; c0 is a multiple of kNr. Each output element's reduction runs
// over k in kKc blocks in ascending order with a fixed intra-block order, so results
// are bitwise identical no matter how the row/column ranges are partitioned across
// calls. A kKc x kNc block of the panels (~256 KiB) stays L2-resident while kMc-row
// blocks of A stream through it.
void PackedSlab(const float* a, int64_t lda, const float* panels, int64_t k, float* c,
                int64_t ldc, int64_t r0, int64_t r1, int64_t c0, int64_t c1,
                bool accumulate) {
  thread_local std::vector<float> a_pack;
  a_pack.resize(static_cast<size_t>(CeilDiv(kMc, kMr) * kMr * kKc));

  for (int64_t jc = c0; jc < c1; jc += kNc) {
    const int64_t nc = std::min(kNc, c1 - jc);
    for (int64_t pc = 0; pc < k; pc += kKc) {
      const int64_t kc = std::min(kKc, k - pc);
      const bool assign = !accumulate && pc == 0;
      for (int64_t ic = r0; ic < r1; ic += kMc) {
        const int64_t mc = std::min(kMc, r1 - ic);
        PackA(a + ic * lda + pc, lda, mc, kc, a_pack.data());
        for (int64_t jr = 0; jr < nc; jr += kNr) {
          const float* bp = panels + ((jc + jr) / kNr) * k * kNr + pc * kNr;
          for (int64_t ir = 0; ir < mc; ir += kMr) {
            MicroKernel(a_pack.data() + (ir / kMr) * kc * kMr, bp, kc,
                        c + (ic + ir) * ldc + jc + jr, ldc, std::min(kMr, mc - ir),
                        std::min(kNr, nc - jr), assign);
          }
        }
      }
    }
  }
}

// C[m, n] = A * W^T (+ C) over W's panels. With `parallel`, a GEMM past
// kParallelWorkThreshold work-shares row slabs (kMc rows) or column slabs, whichever
// dimension splits into more. Column slabs split n evenly (kNr-aligned) over the
// pool's participants, one slab each unless the floors above make them wider, so a
// GEMM with fewer row slabs than participants (a prefill of up to a few dozen rows, a
// decode GEMV) gives every participant an equal share of its columns.
// The slab boundaries never affect per-element reduction order, so any thread count
// produces bit-identical output.
void RunPacked(const float* a, int64_t lda, const float* panels, int64_t k, int64_t n,
               float* c, int64_t ldc, int64_t m, bool accumulate, bool parallel) {
  if (m <= 0 || n <= 0) {
    return;
  }
  if (k <= 0) {
    if (!accumulate) {
      for (int64_t i = 0; i < m; ++i) {
        std::fill(c + i * ldc, c + i * ldc + n, 0.0f);
      }
    }
    return;
  }
  const auto slab = [&](int64_t r0, int64_t r1, int64_t c0, int64_t c1) {
    PackedSlab(a, lda, panels, k, c, ldc, r0, r1, c0, c1, accumulate);
  };
  const int64_t participants =
      parallel && m * n * k >= kParallelWorkThreshold ? ParallelParticipants() : 1;
  if (participants == 1) {
    slab(0, m, 0, n);
    return;
  }
  const int64_t col_grain =
      kNr * std::max({CeilDiv(CeilDiv(n, kNr), participants),
                      CeilDiv(kMinSlabWork, m * k * kNr), kMinSlabCols / kNr});
  if (CeilDiv(m, kMc) >= CeilDiv(n, col_grain)) {
    ParallelFor(0, m, kMc, [&slab, n](int64_t r0, int64_t r1) { slab(r0, r1, 0, n); });
  } else {
    ParallelFor(0, n, col_grain, [&slab, m](int64_t c0, int64_t c1) { slab(0, m, c0, c1); });
  }
}

}  // namespace

PackedWeight::PackedWeight(const Tensor& w) {
  if (w.rank() == 0) {
    return;
  }
  CHECK_EQ(w.rank(), 2);
  present_ = true;
  rows_ = w.dim(0);
  cols_ = w.dim(1);
  panels_.resize(static_cast<size_t>(PanelFloats(rows_, cols_)));
  PackRows(rows_, cols_, [&](int64_t j) { return w.row(j); }, panels_.data());
}

PackedWeight PackedWeight::Stack(const Tensor& top, const Tensor& bottom) {
  CHECK_EQ(top.rank(), 2);
  CHECK_EQ(bottom.rank(), 2);
  CHECK_EQ(top.dim(1), bottom.dim(1));
  PackedWeight w;
  w.present_ = true;
  w.rows_ = top.dim(0) + bottom.dim(0);
  w.cols_ = top.dim(1);
  w.panels_.resize(static_cast<size_t>(PanelFloats(w.rows_, w.cols_)));
  const int64_t split = top.dim(0);
  PackRows(
      w.rows_, w.cols_,
      [&](int64_t j) { return j < split ? top.row(j) : bottom.row(j - split); },
      w.panels_.data());
  return w;
}

Tensor PackedWeight::UnpackRows(int64_t r0, int64_t r1) const {
  CHECK(present_);
  CHECK_GE(r0, 0);
  CHECK_LE(r0, r1);
  CHECK_LE(r1, rows_);
  Tensor t({r1 - r0, cols_});
  for (int64_t j = r0; j < r1; ++j) {
    const float* panel = panels_.data() + (j / kNr) * cols_ * kNr + j % kNr;
    float* dst = t.row(j - r0);
    for (int64_t p = 0; p < cols_; ++p) {
      dst[p] = panel[p * kNr];
    }
  }
  return t;
}

Tensor PackedWeight::Unpack() const { return present_ ? UnpackRows(0, rows_) : Tensor(); }

void GemmPacked(const float* a, int64_t lda, const PackedWeight& w, float* c, int64_t ldc,
                int64_t m) {
  CHECK(!w.empty());
  RunPacked(a, lda, w.panels(), w.cols(), w.rows(), c, ldc, m, /*accumulate=*/false,
            /*parallel=*/true);
}

void GemmPackedSerial(const float* a, int64_t lda, const PackedWeight& w, float* c,
                      int64_t ldc, int64_t m) {
  CHECK(!w.empty());
  RunPacked(a, lda, w.panels(), w.cols(), w.rows(), c, ldc, m, /*accumulate=*/false,
            /*parallel=*/false);
}

void GemmNN(const float* a, const float* b, float* c, int64_t m, int64_t k, int64_t n,
            bool accumulate) {
  std::vector<float> panels(static_cast<size_t>(PanelFloats(std::max<int64_t>(n, 0),
                                                            std::max<int64_t>(k, 0))));
  PackColumns(b, k, n, panels.data());
  RunPacked(a, k, panels.data(), k, n, c, n, m, accumulate, /*parallel=*/true);
}

void GemmNT(const float* a, const float* b, float* c, int64_t m, int64_t k, int64_t n,
            bool accumulate) {
  std::vector<float> panels(static_cast<size_t>(PanelFloats(std::max<int64_t>(n, 0),
                                                            std::max<int64_t>(k, 0))));
  PackRows(n, k, [&](int64_t j) { return b + j * k; }, panels.data());
  RunPacked(a, k, panels.data(), k, n, c, n, m, accumulate, /*parallel=*/true);
}

Tensor MatMul(const Tensor& a, const Tensor& b) {
  CHECK_EQ(a.rank(), 2);
  CHECK_EQ(b.rank(), 2);
  CHECK_EQ(a.dim(1), b.dim(0));
  Tensor c({a.dim(0), b.dim(1)});
  GemmNN(a.data(), b.data(), c.data(), a.dim(0), a.dim(1), b.dim(1));
  return c;
}

Tensor MatMulTransposedB(const Tensor& x, const Tensor& w) {
  CHECK_EQ(x.rank(), 2);
  CHECK_EQ(w.rank(), 2);
  CHECK_EQ(x.dim(1), w.dim(1));
  Tensor c({x.dim(0), w.dim(0)});
  GemmNT(x.data(), w.data(), c.data(), x.dim(0), x.dim(1), w.dim(0));
  return c;
}

Tensor MatMulTransposedB(const Tensor& x, const PackedWeight& w) {
  CHECK_EQ(x.rank(), 2);
  CHECK_EQ(x.dim(1), w.cols());
  Tensor c({x.dim(0), w.rows()});
  GemmPacked(x.data(), w.cols(), w, c.data(), w.rows(), x.dim(0));
  return c;
}

}  // namespace hcache
