#include "la/gemm_kernel.h"

#include <algorithm>

#include "la/gemm_kernel_impl.h"
#include "la/simd.h"

namespace umvsc::la::kernel {

void GemmAdd(std::size_t n, std::size_t k, const Operand& a, const Operand& b,
             double* c, std::size_t c_stride, std::size_t row_begin,
             std::size_t row_end) {
  detail::GemmAddImpl<simd::NativeVec4>(n, k, a, b, c, c_stride, row_begin,
                                        row_end);
}

PackedB PackB(std::size_t n, std::size_t k, const Operand& b) {
  PackedB packed;
  packed.n = n;
  packed.k = k;
  const std::size_t width = detail::PackedWidth(n);
  packed.strips.resize(width * k);
  for (std::size_t kk = 0; kk < k; kk += kKc) {
    detail::PackB(b, kk, std::min(kKc, k - kk), n,
                  packed.strips.data() + width * kk);
  }
  return packed;
}

void GemmAdd(const Operand& a, const PackedB& b, double* c,
             std::size_t c_stride, std::size_t row_begin,
             std::size_t row_end) {
  detail::GemmAddPackedImpl<simd::NativeVec4>(a, b, c, c_stride, row_begin,
                                              row_end);
}

double Dot(const double* x, const double* y, std::size_t n) {
  return simd::DotLanes<simd::NativeVec4>(x, y, n);
}

void Axpy(double alpha, const double* x, double* y, std::size_t n) {
  simd::AxpyLanes<simd::NativeVec4>(alpha, x, y, n);
}

void Hadamard(const double* a, const double* b, double* c, std::size_t n) {
  simd::MulLanes<simd::NativeVec4>(a, b, c, n);
}

}  // namespace umvsc::la::kernel
