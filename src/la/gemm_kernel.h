#ifndef UMVSC_LA_GEMM_KERNEL_H_
#define UMVSC_LA_GEMM_KERNEL_H_

#include <cstddef>
#include <vector>

namespace umvsc::la::kernel {

/// A GEMM input: a row-major array read as-is (logical(i, j) =
/// data[i·stride + j]) or transposed (logical(i, j) = data[j·stride + i])
/// without materializing the transpose.
struct Operand {
  const double* data;
  std::size_t stride;
  bool transposed;

  double At(std::size_t i, std::size_t j) const {
    return transposed ? data[j * stride + i] : data[i * stride + j];
  }
};

/// kc: the p-block edge of GemmAdd's accumulation grid. THE
/// determinism-relevant constant — the grid is the ⌈k/kKc⌉ blocking of the
/// inner dimension and nothing else. Callers that reproduce a GemmAdd
/// element by hand (mvsc/anchor_assign's BlockedVecMatAdd) block on it.
inline constexpr std::size_t kKc = 256;

/// C[i, 0..n) += Σ_p A(i, p)·B(p, j) for i in [row_begin, row_end) — the
/// register-blocked, packed-panel GEMM micro-kernel (mr×nr register tiles,
/// B-panel packing, kc/mc cache blocking; see gemm_kernel_impl.h). A
/// one-row range runs a 1×16 register kernel over the same packed B.
///
/// Accumulation grid (the determinism contract): the p dimension is cut
/// into fixed kc-sized blocks, every C element accumulates its block
/// partial serially in ascending p and the partials add into C in
/// ascending block order. That grid is a pure function of k alone —
/// independent of the row range (thread partition), the register tile a
/// value lands in, edge handling, and the SIMD backend — so results are
/// bitwise identical across 1/2/8 threads and across AVX2/SSE2/NEON/
/// scalar builds (modulo FMA contraction of the scalar fallback on
/// non-x86 compilers; see docs/THREADING.md).
///
/// Callers parallelize by row range: any partition of [0, m) yields the
/// same bits. Runs the simd::NativeVec4 instantiation, which is the scalar
/// emulation in -DUMVSC_DISABLE_SIMD builds.
void GemmAdd(std::size_t n, std::size_t k, const Operand& a, const Operand& b,
             double* c, std::size_t c_stride, std::size_t row_begin,
             std::size_t row_end);

/// A k × n B operand packed once into GemmAdd's panel layout, for a B that
/// many calls share (a served model's anchors). `strips` holds the kc
/// blocks of B's k rows one after another; inside a block, ⌈n/8⌉ column
/// strips, each p-major with 8 contiguous doubles per p (the last strip
/// zero-padded) — exactly the panel GemmAdd packs per call. Immutable once
/// built, so concurrent GemmAdd calls may share one.
struct PackedB {
  std::size_t n = 0;
  std::size_t k = 0;
  std::vector<double> strips;
};

/// Packs the k × n operand `b` (plain or transposed) into a PackedB.
PackedB PackB(std::size_t n, std::size_t k, const Operand& b);

/// GemmAdd against a pre-packed B: runs the same block loop without
/// packing B, so C gets the bits GemmAdd(b.n, b.k, a, <the packed operand>,
/// c, c_stride, row_begin, row_end) would give.
void GemmAdd(const Operand& a, const PackedB& b, double* c,
             std::size_t c_stride, std::size_t row_begin, std::size_t row_end);

/// Dot product on the fixed lane grid (simd::DotLanes) on the native backend.
double Dot(const double* x, const double* y, std::size_t n);

/// y += alpha·x on the native backend (value-neutral vs the scalar loop).
void Axpy(double alpha, const double* x, double* y, std::size_t n);

/// c = a∘b elementwise on the native backend (value-neutral).
void Hadamard(const double* a, const double* b, double* c, std::size_t n);

}  // namespace umvsc::la::kernel

#endif  // UMVSC_LA_GEMM_KERNEL_H_
