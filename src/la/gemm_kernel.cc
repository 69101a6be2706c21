#include "la/gemm_kernel.h"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cstdlib>
#include <string>

#include "la/gemm_kernel_impl.h"
#include "la/simd.h"

namespace umvsc::la::kernel {
namespace {

// UMVSC_SIMD environment switch, read once at first use.
bool EnvDisablesSimd() {
  static const bool disabled = [] {
    const char* raw = std::getenv("UMVSC_SIMD");
    if (raw == nullptr) return false;
    std::string v(raw);
    for (char& c : v) c = static_cast<char>(std::tolower(c));
    return v == "off" || v == "0" || v == "false" || v == "no" ||
           v == "scalar";
  }();
  return disabled;
}

std::atomic<bool>& ForceScalarFlag() {
  static std::atomic<bool> flag{EnvDisablesSimd()};
  return flag;
}

}  // namespace

bool SimdEnabled() {
  return !ForceScalarFlag().load(std::memory_order_relaxed);
}

const char* ActiveBackendName() {
  return SimdEnabled() ? simd::NativeBackendName() : simd::ScalarVec4::kName;
}

ScopedForceScalar::ScopedForceScalar(bool force)
    : previous_(ForceScalarFlag().exchange(force, std::memory_order_relaxed)) {
}

ScopedForceScalar::~ScopedForceScalar() {
  ForceScalarFlag().store(previous_, std::memory_order_relaxed);
}

void GemmAdd(std::size_t n, std::size_t k, const Operand& a, const Operand& b,
             double* c, std::size_t c_stride, std::size_t row_begin,
             std::size_t row_end) {
  if (SimdEnabled()) {
    detail::GemmAddImpl<simd::NativeVec4>(n, k, a, b, c, c_stride, row_begin,
                                          row_end);
  } else {
    GemmAddScalar(n, k, a, b, c, c_stride, row_begin, row_end);
  }
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
  if (SimdEnabled()) {
    detail::GemmAddPackedImpl<simd::NativeVec4>(a, b, c, c_stride, row_begin,
                                                row_end);
  } else {
    detail::GemmAddPackedScalar(a, b, c, c_stride, row_begin, row_end);
  }
}

double Dot(const double* x, const double* y, std::size_t n) {
  return SimdEnabled() ? simd::DotLanes<simd::NativeVec4>(x, y, n)
                       : simd::DotLanes<simd::ScalarVec4>(x, y, n);
}

void Axpy(double alpha, const double* x, double* y, std::size_t n) {
  if (SimdEnabled()) {
    simd::AxpyLanes<simd::NativeVec4>(alpha, x, y, n);
  } else {
    simd::AxpyLanes<simd::ScalarVec4>(alpha, x, y, n);
  }
}

void Hadamard(const double* a, const double* b, double* c, std::size_t n) {
  if (SimdEnabled()) {
    simd::MulLanes<simd::NativeVec4>(a, b, c, n);
  } else {
    simd::MulLanes<simd::ScalarVec4>(a, b, c, n);
  }
}

}  // namespace umvsc::la::kernel
