// Scalar-forced GEMM instantiations (both GemmAdd entries), kept in their own
// translation unit so the build can disable auto-vectorization here (see
// src/la/CMakeLists.txt): "scalar-forced" benchmark numbers must measure
// honest scalar code, not compiler-revectorized scalar code.

#include "la/gemm_kernel.h"
#include "la/gemm_kernel_impl.h"
#include "la/simd.h"

namespace umvsc::la::kernel {

void GemmAddScalar(std::size_t n, std::size_t k, const Operand& a,
                   const Operand& b, double* c, std::size_t c_stride,
                   std::size_t row_begin, std::size_t row_end) {
  detail::GemmAddImpl<simd::ScalarVec4>(n, k, a, b, c, c_stride, row_begin,
                                        row_end);
}

namespace detail {

void GemmAddPackedScalar(const Operand& a, const PackedB& b, double* c,
                         std::size_t c_stride, std::size_t row_begin,
                         std::size_t row_end) {
  GemmAddPackedImpl<simd::ScalarVec4>(a, b, c, c_stride, row_begin, row_end);
}

}  // namespace detail

}  // namespace umvsc::la::kernel
