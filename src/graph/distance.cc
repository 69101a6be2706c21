#include "graph/distance.h"

#include <algorithm>
#include <cmath>

#include "common/parallel.h"

namespace umvsc::graph {

namespace {
// Row tile of PairwiseSquaredDistances: fine enough to spread paper-sized
// problems across every core, tall enough for the GEMM's register tiles.
constexpr std::size_t kRowGrain = 16;
}  // namespace

la::Matrix PairwiseSquaredDistances(const la::Matrix& x) {
  const std::size_t n = x.rows();
  const PackedRows packed = PackRows(x);
  la::Matrix d2(n, n);
  // Every row depends only on itself, so the row spans are write-disjoint
  // and the matrix is bitwise identical at every thread count.
  ParallelFor(0, n, kRowGrain, [&](std::size_t lo, std::size_t hi) {
    SquaredDistanceTile(packed, x.RowPtr(lo), hi - lo, d2.RowPtr(lo));
    for (std::size_t i = lo; i < hi; ++i) d2(i, i) = 0.0;
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

PackedRows PackRows(const la::Matrix& rows) {
  PackedRows packed;
  packed.sq_norms = RowSquaredNorms(rows);
  packed.packed = la::kernel::PackB(rows.rows(), rows.cols(),
                                    {rows.data(), rows.cols(), true});
  return packed;
}

void SquaredDistanceTile(const PackedRows& packed, const double* x,
                         std::size_t rows, double* d2) {
  const std::size_t d = packed.packed.k;
  const std::size_t m = packed.packed.n;
  // The dot panel d2(i, j) = x_i·r_j against the packed rows; the kernel
  // picks its register tile by the row count.
  std::fill(d2, d2 + rows * m, 0.0);
  la::kernel::GemmAdd({x, d, false}, packed.packed, d2, m, 0, rows);
  for (std::size_t i = 0; i < rows; ++i) {
    const double nx = RowSquaredNorm(x + i * d, d);
    double* row = d2 + i * m;
    for (std::size_t j = 0; j < m; ++j) {
      row[j] = SquaredFromDot(nx, packed.sq_norms[j], row[j]);
    }
  }
}

}  // namespace umvsc::graph
