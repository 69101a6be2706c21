#include "graph/distance.h"

#include <algorithm>
#include <cmath>

#include "common/parallel.h"
#include "la/ops.h"

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

double RowSquaredNorm(const double* x, std::size_t k) {
  double s = 0.0;
  for (std::size_t p = 0; p < k; ++p) s += x[p] * x[p];
  return s;
}

la::Vector RowSquaredNorms(const la::Matrix& x) {
  const std::size_t n = x.rows();
  la::Vector norms(n);
  for (std::size_t i = 0; i < n; ++i) {
    norms[i] = RowSquaredNorm(x.RowPtr(i), x.cols());
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
