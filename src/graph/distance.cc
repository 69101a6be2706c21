#include "graph/distance.h"

#include <algorithm>
#include <cmath>

#include "common/parallel.h"
#include "la/ops.h"
#include "la/simd.h"

namespace umvsc::graph {

namespace {
// Row grain of the distance kernels: fine enough to spread paper-sized
// problems across every core, coarse enough to amortize dispatch.
constexpr std::size_t kRowGrain = 16;
}  // namespace

la::Matrix PairwiseSquaredDistances(const la::Matrix& x) {
  const std::size_t n = x.rows();
  la::Matrix gram = la::OuterGram(x);  // itself row-parallel
  la::Matrix d2(n, n);
  // Expansion pass: iteration i writes d2(i, j>i) and the mirror d2(j>i, i)
  // — every element exactly once, so row spans are write-disjoint and the
  // result is bitwise identical at every thread count.
  ParallelFor(0, n, kRowGrain, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      const double gii = gram(i, i);
      for (std::size_t j = i + 1; j < n; ++j) {
        const double v = std::max(0.0, gii + gram(j, j) - 2.0 * gram(i, j));
        d2(i, j) = v;
        d2(j, i) = v;
      }
    }
  });
  return d2;
}

la::Matrix PairwiseDistances(const la::Matrix& x) {
  la::Matrix d = PairwiseSquaredDistances(x);
  double* data = d.data();
  ParallelFor(0, d.size(), 4096, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) data[i] = std::sqrt(data[i]);
  });
  return d;
}

la::Vector RowSquaredNorms(const la::Matrix& x) {
  const std::size_t n = x.rows();
  la::Vector norms(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double* ri = x.RowPtr(i);
    double s = 0.0;
    for (std::size_t p = 0; p < x.cols(); ++p) s += ri[p] * ri[p];
    norms[i] = s;
  }
  return norms;
}

void SquaredDistancePanel(const la::Matrix& x, const la::Vector& sq_norms,
                          std::size_t r0, std::size_t r1, double* panel) {
  const std::size_t n = x.rows();
  const std::size_t d = x.cols();
  for (std::size_t i = r0; i < r1; ++i) {
    const double* ri = x.RowPtr(i);
    const double ni = sq_norms[i];
    double* prow = panel + (i - r0) * n;
    for (std::size_t j = 0; j < n; ++j) {
      if (j == i) {
        prow[j] = 0.0;  // exact zero, as the dense path guarantees
        continue;
      }
      const double* rj = x.RowPtr(j);
      double s = 0.0;
      for (std::size_t p = 0; p < d; ++p) s += ri[p] * rj[p];
      prow[j] = std::max(0.0, ni + sq_norms[j] - 2.0 * s);
    }
  }
}

void CrossSquaredDistancePanel(const la::Matrix& x,
                               const la::Vector& x_sq_norms,
                               const la::Matrix& y_t,
                               const la::Vector& y_sq_norms, std::size_t r0,
                               std::size_t r1, double* panel) {
  using V = la::simd::NativeVec4;
  constexpr std::size_t kLanes = la::simd::kSimdLanes;
  const std::size_t m = y_t.cols();
  const std::size_t d = x.cols();
  const double* yt = y_t.data();
  for (std::size_t i = r0; i < r1; ++i) {
    const double* ri = x.RowPtr(i);
    double* prow = panel + (i - r0) * m;
    // Dots first, four columns of y per register: lane j accumulates
    // acc + x_ip·y_jp unfused in ascending p, the scalar loop's chain.
    // Four registers at a time keep four independent chains in flight.
    std::size_t j = 0;
    for (; j + 4 * kLanes <= m; j += 4 * kLanes) {
      V::Reg acc0 = V::Zero(), acc1 = V::Zero();
      V::Reg acc2 = V::Zero(), acc3 = V::Zero();
      for (std::size_t p = 0; p < d; ++p) {
        const V::Reg xp = V::Broadcast(ri[p]);
        const double* yp = yt + p * m + j;
        acc0 = V::MulAdd(xp, V::Load(yp), acc0);
        acc1 = V::MulAdd(xp, V::Load(yp + kLanes), acc1);
        acc2 = V::MulAdd(xp, V::Load(yp + 2 * kLanes), acc2);
        acc3 = V::MulAdd(xp, V::Load(yp + 3 * kLanes), acc3);
      }
      V::Store(prow + j, acc0);
      V::Store(prow + j + kLanes, acc1);
      V::Store(prow + j + 2 * kLanes, acc2);
      V::Store(prow + j + 3 * kLanes, acc3);
    }
    for (; j + kLanes <= m; j += kLanes) {
      V::Reg acc = V::Zero();
      for (std::size_t p = 0; p < d; ++p) {
        acc = V::MulAdd(V::Broadcast(ri[p]), V::Load(yt + p * m + j), acc);
      }
      V::Store(prow + j, acc);
    }
    for (; j < m; ++j) {
      double s = 0.0;
      for (std::size_t p = 0; p < d; ++p) s += ri[p] * yt[p * m + j];
      prow[j] = s;
    }
    const double ni = x_sq_norms[i];
    for (j = 0; j < m; ++j) {
      prow[j] = std::max(0.0, ni + y_sq_norms[j] - 2.0 * prow[j]);
    }
  }
}

la::Matrix CosineSimilarity(const la::Matrix& x) {
  const std::size_t n = x.rows();
  la::Matrix gram = la::OuterGram(x);
  la::Vector norms(n);
  for (std::size_t i = 0; i < n; ++i) norms[i] = std::sqrt(gram(i, i));
  la::Matrix s(n, n);
  ParallelFor(0, n, kRowGrain, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        const double denom = norms[i] * norms[j];
        s(i, j) = denom > 0.0 ? gram(i, j) / denom : 0.0;
      }
    }
  });
  return s;
}

}  // namespace umvsc::graph
