#include "src/tensor/gemm.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <utility>
#include <vector>

#include "src/common/thread_pool.h"

namespace hcache {

namespace {

// BLIS-style cache blocking: a kKc x kNc B-panel (~256 KiB) stays L2-resident while a
// kMc x kKc A-block (~64 KiB) streams through L1.
constexpr int64_t kMc = 64;
constexpr int64_t kKc = 256;
constexpr int64_t kNc = 256;

// The register tile: kMr rows by kTilePanels adjacent kNr-column panels, one vector
// accumulator per (row, panel) and so kMr * kTilePanels independent multiply-add
// chains. A chain waits on its own previous multiply-add, so the tile needs
// latency x issue ports chains to keep every FMA port busy (Low et al., "Analytical
// Modeling Is Enough for High-Performance BLIS", TOMS 2016): with AVX-512 a VecNr is
// one zmm register, and two FMA ports at 4-cycle latency want 8 chains or more, so
// the tile is 8 x 32 (16 accumulators, 2 B loads and 8 broadcasts per 16 FMAs; an
// 8 x 16 tile was load-bound and 4 x 32 in between). Elsewhere a VecNr spans several
// narrower registers and 4 x 16 already holds enough chains (8 ymm with AVX2).
#if defined(__AVX512F__)
constexpr int64_t kMr = 8;
constexpr int64_t kTilePanels = 2;
#else
constexpr int64_t kMr = 4;
constexpr int64_t kTilePanels = 1;
#endif
constexpr int64_t kTileCols = kTilePanels * kNr;
static_assert(kMc % kMr == 0 && kNc % kTileCols == 0, "blocks hold whole tiles");
static_assert(kMr <= kNr, "PackA transposes a strip as the top rows of a kNr block");

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
// zero-filled; the microkernel reads only a strip's live rows. Whole kNr-deep blocks
// transpose in registers, as PackRows does, with the strip's rows as the block's first
// kMr rows; the tail past the last whole block is gathered one element at a time.
void PackA(const float* a, int64_t lda, int64_t mc, int64_t kc, float* ap) {
  for (int64_t i0 = 0; i0 < mc; i0 += kMr) {
    const int64_t rows = std::min(kMr, mc - i0);
    int64_t p = 0;
    for (; p + kNr <= kc; p += kNr) {
      VecNr block[kNr] = {};
      for (int64_t r = 0; r < kMr; ++r) {
        if (r < rows) {
          std::memcpy(&block[r], a + (i0 + r) * lda + p, sizeof(VecNr));
        }
      }
      TransposeNr(block);
      for (int64_t j = 0; j < kNr; ++j) {
        std::memcpy(ap + (p + j) * kMr, &block[j], kMr * sizeof(float));
      }
    }
    for (; p < kc; ++p) {
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

// Overwrites (assign) or adds into c_row the first nr lanes of one accumulator. Lane
// j of the vector add is exactly the scalar c_row[j] + acc[j].
inline void StoreRow(const VecNr& acc, float* c_row, int64_t nr, bool assign) {
  if (nr == kNr) {  // full-width tile: one vector store
    VecNr out = acc;
    if (!assign) {
      std::memcpy(&out, c_row, sizeof(out));
      out += acc;
    }
    std::memcpy(c_row, &out, sizeof(out));
    return;
  }
  float lanes[kNr];
  std::memcpy(lanes, &acc, sizeof(lanes));
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

// Register-tiled inner kernel: accumulates MR rows (1..kMr) of A against NP adjacent
// panels (1..kTilePanels; `panel_stride` floats apart) over kc, then stores the
// MR x nr valid region, nr <= NP * kNr. Rows past MR are the zero padding PackA added
// and get no accumulator, so a 1-row GEMM (decode, GEMV shape) does only its own row's
// work. `assign` overwrites C (first k-block of a non-accumulating GEMM); otherwise the
// tile sum is added — so per element C[i][j] receives its k-partial sums in a fixed
// order that depends only on the k blocking. Each lane's chain `acc[r][q][j] +=
// a_r * b_q[j]` is textually identical in every instantiation, so an element's bits
// never depend on which tile shape covers it, nor on the m/n partitioning or thread
// count.
template <int MR, int NP>
void MicroKernelImpl(const float* ap, const float* bp, int64_t panel_stride, int64_t kc,
                     float* c, int64_t ldc, int64_t nr, bool assign) {
  VecNr acc[MR][NP] = {};
  for (int64_t p = 0; p < kc; ++p) {
    const float* a_col = ap + p * kMr;
    VecNr b[NP];
    for (int q = 0; q < NP; ++q) {
      std::memcpy(&b[q], bp + q * panel_stride + p * kNr, sizeof(VecNr));
    }
    for (int r = 0; r < MR; ++r) {
      for (int q = 0; q < NP; ++q) {
        acc[r][q] += a_col[r] * b[q];
      }
    }
  }
  for (int r = 0; r < MR; ++r) {
    for (int q = 0; q < NP; ++q) {
      StoreRow(acc[r][q], c + r * ldc + q * kNr, std::min(kNr, nr - q * kNr), assign);
    }
  }
}

using MicroKernelFn = void (*)(const float* ap, const float* bp, int64_t panel_stride,
                               int64_t kc, float* c, int64_t ldc, int64_t nr, bool assign);

// kMicroKernels[np - 1][mr - 1] is the MR = mr, NP = np instantiation.
template <int NP, size_t... R>
constexpr std::array<MicroKernelFn, kMr> MicroKernelRow(std::index_sequence<R...>) {
  return {&MicroKernelImpl<static_cast<int>(R) + 1, NP>...};
}
template <size_t... P>
constexpr std::array<std::array<MicroKernelFn, kMr>, kTilePanels> MicroKernelTable(
    std::index_sequence<P...>) {
  return {MicroKernelRow<static_cast<int>(P) + 1>(std::make_index_sequence<kMr>())...};
}
constexpr auto kMicroKernels = MicroKernelTable(std::make_index_sequence<kTilePanels>());

// Computes rows [r0, r1) x cols [c0, c1) of C = A * W^T (+ C when accumulate) from
// W's panels, serially; c0 is a multiple of kNr. Each output element's reduction runs
// over k in kKc blocks in ascending order with a fixed intra-block order, so results
// are bitwise identical no matter how the row/column ranges are partitioned across
// calls. A kKc x kNc block of the panels (~256 KiB) stays L2-resident while kMc-row
// blocks of A stream through it. Tiles walk kTilePanels panels at a time from c0; a
// slab whose columns end on a partial tile runs it with fewer panels.
void PackedSlab(const float* a, int64_t lda, const float* panels, int64_t k, float* c,
                int64_t ldc, int64_t r0, int64_t r1, int64_t c0, int64_t c1,
                bool accumulate) {
  // One packed kMc x kKc block of A (64 KiB), on the stack: no thread allocates it, so
  // the first GEMM a thread runs (a restore's transmission thread assists mid-restore)
  // costs no heap growth.
  alignas(64) float a_pack[CeilDiv(kMc, kMr) * kMr * kKc];

  for (int64_t jc = c0; jc < c1; jc += kNc) {
    const int64_t nc = std::min(kNc, c1 - jc);
    for (int64_t pc = 0; pc < k; pc += kKc) {
      const int64_t kc = std::min(kKc, k - pc);
      const bool assign = !accumulate && pc == 0;
      for (int64_t ic = r0; ic < r1; ic += kMc) {
        const int64_t mc = std::min(kMc, r1 - ic);
        PackA(a + ic * lda + pc, lda, mc, kc, a_pack);
        for (int64_t jr = 0; jr < nc; jr += kTileCols) {
          const float* bp = panels + ((jc + jr) / kNr) * k * kNr + pc * kNr;
          const int64_t nr = std::min(kTileCols, nc - jr);
          const auto& kernels = kMicroKernels[static_cast<size_t>(CeilDiv(nr, kNr) - 1)];
          for (int64_t ir = 0; ir < mc; ir += kMr) {
            kernels[static_cast<size_t>(std::min(kMr, mc - ir) - 1)](
                a_pack + (ir / kMr) * kc * kMr, bp, k * kNr, kc,
                c + (ic + ir) * ldc + jc + jr, ldc, nr, assign);
          }
        }
      }
    }
  }
}

// C[m, n] = A * W^T (+ C) over W's panels. With `parallel`, a GEMM past
// kParallelWorkThreshold work-shares row slabs (kMc rows) or column slabs, whichever
// dimension splits into more. Column slabs split n evenly over the pool's
// participants, aligned to the register tile's width so no slab ends on a narrow tile
// where a wide one fits, one slab each unless the floors above make them wider, so a
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
      kTileCols * std::max({CeilDiv(CeilDiv(n, kTileCols), participants),
                            CeilDiv(kMinSlabWork, m * k * kTileCols),
                            CeilDiv(kMinSlabCols, kTileCols)});
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
