#ifndef UMVSC_LA_GEMM_KERNEL_IMPL_H_
#define UMVSC_LA_GEMM_KERNEL_IMPL_H_

// Register-blocked, packed-panel GEMM, a template over the 4-lane backend
// (la/simd.h). gemm_kernel.cc instantiates it on simd::NativeVec4; tests
// instantiate it on simd::ScalarVec4 to check the two agree.
//
// Structure (BLIS-style, specialized to row-major operands):
//
//   for kk over k in kc blocks:            · fixed kc grid = the
//     B[kk:kk+kc, :] as nr strips            accumulation contract
//       (packed per call, or read from a PackedB)
//     one-row range: 1×2nr register kernel over the strips, adds into C
//     else for i0 over rows in mc blocks:
//       pack A[i0:i0+mc, kk:kk+kc] into mr strips
//       for each mr strip × nr strip:
//         mr×nr register tile accumulates serially over the kc block
//         tile adds into C
//
// Determinism: every C element accumulates (a) serially in ascending p
// inside each kc block — its own register lane, no cross-lane math — and
// (b) across kc blocks in ascending order via the C read-modify-write.
// The grid depends only on k (and the kKc constant), so the result is
// independent of the row range, the tile a value lands in (4×8 or 1×16),
// zero-padded edges, whether B was packed per call, and the backend V.

#include <algorithm>
#include <cstddef>
#include <vector>

#include "la/gemm_kernel.h"
#include "la/simd.h"

namespace umvsc::la::kernel::detail {

/// Register-tile rows: 4 broadcast-from-A values held per p step.
inline constexpr std::size_t kMr = 4;
/// Register-tile columns: two 4-lane vectors of packed B.
inline constexpr std::size_t kNr = 2 * simd::kSimdLanes;
/// mc: rows of A packed per cache block (kMc·kKc doubles ≈ 128 KiB).
inline constexpr std::size_t kMc = 64;
static_assert(kMc % kMr == 0, "A-panel strips must tile kMc exactly");

/// Doubles per p row of a packed B block: ⌈n/kNr⌉ strips of kNr.
inline std::size_t PackedWidth(std::size_t n) {
  return (n + kNr - 1) / kNr * kNr;
}

/// Packs B rows [kk, kk+kcb) × all n columns into nr-wide strips, p-major
/// within a strip (kNr contiguous doubles per p), zero-padding the last
/// strip. Padding lanes multiply into discarded tile slots only.
inline void PackB(const Operand& b, std::size_t kk, std::size_t kcb,
                  std::size_t n, double* bp) {
  const std::size_t strips = (n + kNr - 1) / kNr;
  for (std::size_t s = 0; s < strips; ++s) {
    const std::size_t j0 = s * kNr;
    const std::size_t jw = std::min(kNr, n - j0);
    double* dst = bp + s * kNr * kcb;
    if (!b.transposed) {
      for (std::size_t p = 0; p < kcb; ++p) {
        const double* src = b.data + (kk + p) * b.stride + j0;
        for (std::size_t u = 0; u < jw; ++u) dst[u] = src[u];
        for (std::size_t u = jw; u < kNr; ++u) dst[u] = 0.0;
        dst += kNr;
      }
    } else {
      for (std::size_t p = 0; p < kcb; ++p) {
        for (std::size_t u = 0; u < jw; ++u) {
          dst[u] = b.data[(j0 + u) * b.stride + (kk + p)];
        }
        for (std::size_t u = jw; u < kNr; ++u) dst[u] = 0.0;
        dst += kNr;
      }
    }
  }
}

/// Packs A rows [i0, i0+mb) × [kk, kk+kcb) into mr-row strips, p-major
/// (kMr contiguous doubles per p), zero-padding the last strip's rows.
inline void PackA(const Operand& a, std::size_t i0, std::size_t mb,
                  std::size_t kk, std::size_t kcb, double* ap) {
  const std::size_t strips = (mb + kMr - 1) / kMr;
  for (std::size_t s = 0; s < strips; ++s) {
    const std::size_t r0 = s * kMr;
    const std::size_t rw = std::min(kMr, mb - r0);
    double* dst = ap + s * kMr * kcb;
    if (!a.transposed) {
      for (std::size_t p = 0; p < kcb; ++p) {
        const double* col = a.data + (i0 + r0) * a.stride + (kk + p);
        for (std::size_t r = 0; r < rw; ++r) dst[r] = col[r * a.stride];
        for (std::size_t r = rw; r < kMr; ++r) dst[r] = 0.0;
        dst += kMr;
      }
    } else {
      for (std::size_t p = 0; p < kcb; ++p) {
        const double* row = a.data + (kk + p) * a.stride + (i0 + r0);
        for (std::size_t r = 0; r < rw; ++r) dst[r] = row[r];
        for (std::size_t r = rw; r < kMr; ++r) dst[r] = 0.0;
        dst += kMr;
      }
    }
  }
}

/// The mr×nr micro-kernel: tile[r][u] = Σ_p ap[p·kMr + r] · bp[p·kNr + u],
/// all eight kMr × (kNr/kSimdLanes) accumulators held in registers across
/// the whole kc block.
template <class V>
inline void MicroKernel(const double* ap, const double* bp, std::size_t kcb,
                        double* tile) {
  using Reg = typename V::Reg;
  Reg c00 = V::Zero(), c01 = V::Zero();
  Reg c10 = V::Zero(), c11 = V::Zero();
  Reg c20 = V::Zero(), c21 = V::Zero();
  Reg c30 = V::Zero(), c31 = V::Zero();
  for (std::size_t p = 0; p < kcb; ++p) {
    const Reg b0 = V::Load(bp);
    const Reg b1 = V::Load(bp + simd::kSimdLanes);
    const Reg a0 = V::Broadcast(ap[0]);
    c00 = V::MulAdd(a0, b0, c00);
    c01 = V::MulAdd(a0, b1, c01);
    const Reg a1 = V::Broadcast(ap[1]);
    c10 = V::MulAdd(a1, b0, c10);
    c11 = V::MulAdd(a1, b1, c11);
    const Reg a2 = V::Broadcast(ap[2]);
    c20 = V::MulAdd(a2, b0, c20);
    c21 = V::MulAdd(a2, b1, c21);
    const Reg a3 = V::Broadcast(ap[3]);
    c30 = V::MulAdd(a3, b0, c30);
    c31 = V::MulAdd(a3, b1, c31);
    ap += kMr;
    bp += kNr;
  }
  V::Store(tile + 0 * kNr, c00);
  V::Store(tile + 0 * kNr + simd::kSimdLanes, c01);
  V::Store(tile + 1 * kNr, c10);
  V::Store(tile + 1 * kNr + simd::kSimdLanes, c11);
  V::Store(tile + 2 * kNr, c20);
  V::Store(tile + 2 * kNr + simd::kSimdLanes, c21);
  V::Store(tile + 3 * kNr, c30);
  V::Store(tile + 3 * kNr + simd::kSimdLanes, c31);
}

/// The one-row register kernel: out[u] = Σ_p x[p·x_step] · b0[p·kNr + u]
/// and out[kNr + u] likewise over b1 — two packed strips against one
/// broadcast A value per p, four accumulators held across the kc block.
/// Each lane is the same serial unfused chain in ascending p that
/// MicroKernel runs, so the two kernels give the same bits.
template <class V>
inline void OneRowKernel(const double* x, std::size_t x_step, const double* b0,
                         const double* b1, std::size_t kcb, double* out) {
  using Reg = typename V::Reg;
  Reg c0 = V::Zero(), c1 = V::Zero(), c2 = V::Zero(), c3 = V::Zero();
  for (std::size_t p = 0; p < kcb; ++p) {
    const Reg a = V::Broadcast(x[p * x_step]);
    c0 = V::MulAdd(a, V::Load(b0), c0);
    c1 = V::MulAdd(a, V::Load(b0 + simd::kSimdLanes), c1);
    c2 = V::MulAdd(a, V::Load(b1), c2);
    c3 = V::MulAdd(a, V::Load(b1 + simd::kSimdLanes), c3);
    b0 += kNr;
    b1 += kNr;
  }
  V::Store(out, c0);
  V::Store(out + simd::kSimdLanes, c1);
  V::Store(out + kNr, c2);
  V::Store(out + kNr + simd::kSimdLanes, c3);
}

/// Per-thread A-panel scratch: one mc × kc block, allocated once per thread
/// and reused by every call on it (GemmAdd never re-enters itself).
inline double* APanelScratch() {
  static thread_local std::vector<double> ap(kMc * kKc);
  return ap.data();
}

/// The shared block loop of both GemmAdd entries. `panel(kk, kcb)` returns
/// the packed B block for rows [kk, kk+kcb) — packed on demand or read from
/// a PackedB; the loop only reads it.
template <class V, class Panel>
void GemmBlocks(std::size_t n, std::size_t k, const Operand& a,
                const Panel& panel, double* c, std::size_t c_stride,
                std::size_t row_begin, std::size_t row_end) {
  const std::size_t strips_n = (n + kNr - 1) / kNr;
  double tile[kMr * kNr];

  for (std::size_t kk = 0; kk < k; kk += kKc) {
    const std::size_t kcb = std::min(kKc, k - kk);
    const double* bp = panel(kk, kcb);
    if (row_end - row_begin == 1) {
      // One row: A needs no packing; stream B two strips at a time (an odd
      // last strip pairs with itself and its copy is discarded).
      const std::size_t i = row_begin;
      const double* x = a.transposed ? a.data + kk * a.stride + i
                                     : a.data + i * a.stride + kk;
      const std::size_t x_step = a.transposed ? a.stride : 1;
      double* crow = c + i * c_stride;
      for (std::size_t s = 0; s < strips_n; s += 2) {
        const double* b0 = bp + s * kNr * kcb;
        const double* b1 = s + 1 < strips_n ? b0 + kNr * kcb : b0;
        OneRowKernel<V>(x, x_step, b0, b1, kcb, tile);
        const std::size_t j0 = s * kNr;
        const std::size_t jw = std::min(2 * kNr, n - j0);
        for (std::size_t u = 0; u < jw; ++u) crow[j0 + u] += tile[u];
      }
      continue;
    }
    double* ap = APanelScratch();
    for (std::size_t i0 = row_begin; i0 < row_end; i0 += kMc) {
      const std::size_t mb = std::min(kMc, row_end - i0);
      PackA(a, i0, mb, kk, kcb, ap);
      for (std::size_t r0 = 0; r0 < mb; r0 += kMr) {
        const std::size_t rw = std::min(kMr, mb - r0);
        const double* apk = ap + (r0 / kMr) * kMr * kcb;
        for (std::size_t s = 0; s < strips_n; ++s) {
          const std::size_t j0 = s * kNr;
          const std::size_t jw = std::min(kNr, n - j0);
          MicroKernel<V>(apk, bp + s * kNr * kcb, kcb, tile);
          for (std::size_t r = 0; r < rw; ++r) {
            double* crow = c + (i0 + r0 + r) * c_stride + j0;
            const double* trow = tile + r * kNr;
            for (std::size_t u = 0; u < jw; ++u) crow[u] += trow[u];
          }
        }
      }
    }
  }
}

/// GemmAdd: packs each kc block of B into a per-call buffer (it grows with
/// n, so it is not cached), then runs the shared block loop.
template <class V>
void GemmAddImpl(std::size_t n, std::size_t k, const Operand& a,
                 const Operand& b, double* c, std::size_t c_stride,
                 std::size_t row_begin, std::size_t row_end) {
  if (row_end <= row_begin || n == 0 || k == 0) return;
  std::vector<double> bp(PackedWidth(n) * std::min(k, kKc));
  GemmBlocks<V>(
      n, k, a,
      [&](std::size_t kk, std::size_t kcb) {
        PackB(b, kk, kcb, n, bp.data());
        return bp.data();
      },
      c, c_stride, row_begin, row_end);
}

/// GemmAdd against a PackedB: block kk starts kk full-width rows in.
template <class V>
void GemmAddPackedImpl(const Operand& a, const PackedB& b, double* c,
                       std::size_t c_stride, std::size_t row_begin,
                       std::size_t row_end) {
  if (row_end <= row_begin || b.n == 0 || b.k == 0) return;
  const std::size_t width = PackedWidth(b.n);
  GemmBlocks<V>(
      b.n, b.k, a,
      [&](std::size_t kk, std::size_t) { return b.strips.data() + width * kk; },
      c, c_stride, row_begin, row_end);
}

}  // namespace umvsc::la::kernel::detail

#endif  // UMVSC_LA_GEMM_KERNEL_IMPL_H_
