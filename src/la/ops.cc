#include "la/ops.h"

#include <algorithm>
#include <cmath>

#include "common/parallel.h"
#include "la/gemm_kernel.h"

namespace umvsc::la {

namespace {
// Row grain of the GemmAdd-routed kernels. The accumulation grid of
// kernel::GemmAdd is a pure function of the inner dimension (see
// gemm_kernel.h), so this constant affects scheduling only, never values.
constexpr std::size_t kGemmRowGrain = 32;

// ParallelFor grain of the row-parallel vector kernels.
constexpr std::size_t kMatVecGrain = 64;

// Grain of flat elementwise kernels (Hadamard, Matrix::Add): spans are
// value-neutral, the grain only amortizes dispatch.
constexpr std::size_t kFlatGrain = 4096;

// Cache tile edge of the blocked Transpose.
constexpr std::size_t kTransposeTile = 64;

// Rows of A accumulated per partial Gram chunk. The chunk grid (and the
// fixed ParallelReduce combine tree over it) depends only on the row count
// and this constant — never the thread count.
constexpr std::size_t kGramChunk = 256;

// Row-block edge of the OuterGram upper-triangle sweep. Equal to the
// ParallelFor grain so the block grid is the global multiples-of-16 grid
// regardless of how threads split the rows.
constexpr std::size_t kTriBlock = 16;
}  // namespace

Matrix MatMul(const Matrix& a, const Matrix& b) {
  UMVSC_CHECK(a.cols() == b.rows(), "MatMul inner dimension mismatch");
  const std::size_t m = a.rows(), k = a.cols(), n = b.cols();
  Matrix c(m, n);
  const kernel::Operand ao{a.data(), k, false};
  const kernel::Operand bo{b.data(), n, false};
  // Row-parallel over the packed register-blocked kernel; each thread owns
  // a contiguous strip of C's rows. The kc accumulation grid is a pure
  // function of k, so the product is bitwise identical at every thread
  // count (see la/gemm_kernel.h).
  ParallelFor(0, m, kGemmRowGrain, [&](std::size_t lo, std::size_t hi) {
    kernel::GemmAdd(n, k, ao, bo, c.data(), n, lo, hi);
  });
  return c;
}

Matrix MatTMul(const Matrix& a, const Matrix& b) {
  UMVSC_CHECK(a.rows() == b.rows(), "MatTMul dimension mismatch");
  const std::size_t m = a.cols(), k = a.rows(), n = b.cols();
  Matrix c(m, n);
  const kernel::Operand ao{a.data(), m, true};  // A(i, p) = a(p, i)
  const kernel::Operand bo{b.data(), n, false};
  ParallelFor(0, m, kGemmRowGrain, [&](std::size_t lo, std::size_t hi) {
    kernel::GemmAdd(n, k, ao, bo, c.data(), n, lo, hi);
  });
  return c;
}

void MatMulAddInto(const Matrix& a, const Matrix& b, Matrix& c) {
  UMVSC_CHECK(a.cols() == b.rows(), "MatMulAddInto inner dimension mismatch");
  UMVSC_CHECK(c.rows() == a.rows() && c.cols() == b.cols(),
              "MatMulAddInto output shape mismatch");
  const std::size_t m = a.rows(), k = a.cols(), n = b.cols();
  const kernel::Operand ao{a.data(), k, false};
  const kernel::Operand bo{b.data(), n, false};
  // GemmAdd has += semantics natively; this is MatMul minus the zero-filled
  // temporary and the second add pass.
  ParallelFor(0, m, kGemmRowGrain, [&](std::size_t lo, std::size_t hi) {
    kernel::GemmAdd(n, k, ao, bo, c.data(), n, lo, hi);
  });
}

void MatTMulInto(const Matrix& a, const Matrix& b, Matrix& c) {
  UMVSC_CHECK(a.rows() == b.rows(), "MatTMulInto dimension mismatch");
  UMVSC_CHECK(c.rows() == a.cols() && c.cols() == b.cols(),
              "MatTMulInto output shape mismatch");
  const std::size_t m = a.cols(), k = a.rows(), n = b.cols();
  c.Fill(0.0);
  const kernel::Operand ao{a.data(), m, true};  // A(i, p) = a(p, i)
  const kernel::Operand bo{b.data(), n, false};
  ParallelFor(0, m, kGemmRowGrain, [&](std::size_t lo, std::size_t hi) {
    kernel::GemmAdd(n, k, ao, bo, c.data(), n, lo, hi);
  });
}

void MatMulTInto(const Matrix& a, const Matrix& b, Matrix& c) {
  UMVSC_CHECK(a.cols() == b.cols(), "MatMulTInto dimension mismatch");
  UMVSC_CHECK(c.rows() == a.rows() && c.cols() == b.rows(),
              "MatMulTInto output shape mismatch");
  const std::size_t m = a.rows(), k = a.cols(), n = b.rows();
  c.Fill(0.0);
  const kernel::Operand ao{a.data(), k, false};
  const kernel::Operand bo{b.data(), k, true};  // B(p, j) = b(j, p)
  ParallelFor(0, m, kGemmRowGrain, [&](std::size_t lo, std::size_t hi) {
    kernel::GemmAdd(n, k, ao, bo, c.data(), n, lo, hi);
  });
}

Matrix MatMulT(const Matrix& a, const Matrix& b) {
  UMVSC_CHECK(a.cols() == b.cols(), "MatMulT dimension mismatch");
  const std::size_t m = a.rows(), k = a.cols(), n = b.rows();
  Matrix c(m, n);
  const kernel::Operand ao{a.data(), k, false};
  const kernel::Operand bo{b.data(), k, true};  // B(p, j) = b(j, p)
  ParallelFor(0, m, kGemmRowGrain, [&](std::size_t lo, std::size_t hi) {
    kernel::GemmAdd(n, k, ao, bo, c.data(), n, lo, hi);
  });
  return c;
}

Vector MatVec(const Matrix& a, const Vector& x) {
  UMVSC_CHECK(a.cols() == x.size(), "MatVec dimension mismatch");
  Vector y(a.rows());
  // Each output element is one fixed-lane-grid dot product (simd.h), so the
  // row partition cannot affect any bit.
  ParallelFor(0, a.rows(), kMatVecGrain,
              [&](std::size_t lo, std::size_t hi) {
                for (std::size_t i = lo; i < hi; ++i) {
                  y[i] = kernel::Dot(a.RowPtr(i), x.data(), a.cols());
                }
              });
  return y;
}

Vector MatTVec(const Matrix& a, const Vector& x) {
  UMVSC_CHECK(a.rows() == x.size(), "MatTVec dimension mismatch");
  Vector y(a.cols());
  // Serial over rows (every row writes the whole output); the per-row axpy
  // is vectorized value-neutrally.
  for (std::size_t i = 0; i < a.rows(); ++i) {
    const double xi = x[i];
    if (xi == 0.0) continue;
    kernel::Axpy(xi, a.RowPtr(i), y.data(), a.cols());
  }
  return y;
}

Matrix Transpose(const Matrix& a) {
  Matrix t(a.cols(), a.rows());
  // Cache-blocked tiles; threads own row strips of A = column strips of T,
  // so writes are disjoint and the copy is trivially deterministic.
  ParallelFor(0, a.rows(), kTransposeTile,
              [&](std::size_t lo, std::size_t hi) {
                for (std::size_t ii = lo; ii < hi; ii += kTransposeTile) {
                  const std::size_t iend = std::min(ii + kTransposeTile, hi);
                  for (std::size_t jj = 0; jj < a.cols();
                       jj += kTransposeTile) {
                    const std::size_t jend =
                        std::min(jj + kTransposeTile, a.cols());
                    for (std::size_t i = ii; i < iend; ++i) {
                      const double* arow = a.RowPtr(i);
                      for (std::size_t j = jj; j < jend; ++j) {
                        t(j, i) = arow[j];
                      }
                    }
                  }
                }
              });
  return t;
}

namespace {
Matrix AddMatrices(const Matrix& x, const Matrix& y) {
  Matrix out = x;
  out.Add(y);
  return out;
}
}  // namespace

Matrix Gram(const Matrix& a) {
  const std::size_t n = a.cols();
  // Chunked over rows of A: each kGramChunk-row slab contributes a partial
  // Gram via the packed kernel (full n×n — the sub-diagonal redundancy is
  // what makes every element's accumulation a pure function of the grid),
  // and the partials combine on ParallelReduce's fixed tree.
  return ParallelReduce<Matrix>(
      0, a.rows(), kGramChunk, Matrix(n, n),
      [&](std::size_t lo, std::size_t hi) {
        Matrix partial(n, n);
        const kernel::Operand at{a.data() + lo * n, n, true};
        const kernel::Operand ab{a.data() + lo * n, n, false};
        kernel::GemmAdd(n, hi - lo, at, ab, partial.data(), n, 0, n);
        return partial;
      },
      AddMatrices);
}

Matrix OuterGram(const Matrix& a) {
  const std::size_t n = a.rows(), d = a.cols();
  Matrix g(n, n);
  const kernel::Operand ao{a.data(), d, false};
  // Upper-triangle row blocks on the global kTriBlock grid: rows
  // [i0, i0+16) compute columns [i0, n) through the packed kernel (a
  // near-triangle superset; the few sub-diagonal elements inside a block
  // get the same bits the mirror pass would write). Blocks are row-disjoint
  // in g, so any thread partition is race-free, and each element's value
  // depends only on d and the kc grid.
  ParallelFor(0, n, kTriBlock, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i0 = lo; i0 < hi; i0 += kTriBlock) {
      const std::size_t iend = std::min(i0 + kTriBlock, hi);
      const kernel::Operand bo{a.data() + i0 * d, d, true};
      kernel::GemmAdd(n - i0, d, ao, bo, g.data() + i0, n, i0, iend);
    }
  });
  // Mirror the strict lower triangle; pass 1 has completed (ParallelFor
  // barrier), and rows are write-disjoint.
  ParallelFor(0, n, kTriBlock, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      double* grow = g.RowPtr(i);
      for (std::size_t j = 0; j < i; ++j) grow[j] = g(j, i);
    }
  });
  return g;
}

namespace {
// Shared grain of the QuadraticTrace/TraceOfProduct reductions. The chunk
// grid (and hence the fixed reduction tree) depends only on the range and
// this constant — never on the thread count — which is what makes the
// objective traces of the solvers bitwise reproducible across
// UMVSC_NUM_THREADS settings.
constexpr std::size_t kTraceGrain = 16;

double AddDoubles(const double& x, const double& y) { return x + y; }

// Σ_i (LF)_i · F_i on the fixed chunk grid, shared by both QuadraticTrace
// overloads once LF is materialized.
double RowDotReduce(const Matrix& lf, const Matrix& f) {
  return ParallelReduce<double>(
      0, lf.rows(), kTraceGrain, 0.0,
      [&](std::size_t lo, std::size_t hi) {
        double s = 0.0;
        for (std::size_t i = lo; i < hi; ++i) {
          s += kernel::Dot(lf.RowPtr(i), f.RowPtr(i), f.cols());
        }
        return s;
      },
      AddDoubles);
}
}  // namespace

double TraceOfProduct(const Matrix& a, const Matrix& b) {
  UMVSC_CHECK(a.rows() == b.rows() && a.cols() == b.cols(),
              "TraceOfProduct shape mismatch");
  return ParallelReduce<double>(
      0, a.size(), kFlatGrain, 0.0,
      [&](std::size_t lo, std::size_t hi) {
        return kernel::Dot(a.data() + lo, b.data() + lo, hi - lo);
      },
      AddDoubles);
}

double QuadraticTrace(const Matrix& l, const Matrix& f) {
  UMVSC_CHECK(l.IsSquare(), "QuadraticTrace requires square L");
  UMVSC_CHECK(l.cols() == f.rows(), "QuadraticTrace dimension mismatch");
  // Tr(Fᵀ L F) = Σ_i (L F)_i · F_i: one level-3 product through the packed
  // kernel, then a fixed-grid row-dot reduction.
  const std::size_t n = l.rows(), c = f.cols();
  Matrix lf(n, c);
  const kernel::Operand lo_op{l.data(), n, false};
  const kernel::Operand fo{f.data(), c, false};
  ParallelFor(0, n, kGemmRowGrain, [&](std::size_t lo, std::size_t hi) {
    kernel::GemmAdd(c, n, lo_op, fo, lf.data(), c, lo, hi);
  });
  return RowDotReduce(lf, f);
}

double QuadraticTrace(const CsrMatrix& l, const Matrix& f) {
  UMVSC_CHECK(l.rows() == l.cols(), "QuadraticTrace requires square L");
  UMVSC_CHECK(l.cols() == f.rows(), "QuadraticTrace dimension mismatch");
  // Sparse level-3 path: LF via the cache-blocked SpMM, then the same
  // fixed-grid row-dot reduction as the dense overload.
  Matrix lf(l.rows(), f.cols());
  l.MultiplyInto(f, lf, 1.0);
  return RowDotReduce(lf, f);
}

Matrix Hadamard(const Matrix& a, const Matrix& b) {
  UMVSC_CHECK(a.rows() == b.rows() && a.cols() == b.cols(),
              "Hadamard shape mismatch");
  Matrix c(a.rows(), a.cols());
  // Elementwise and value-neutral: spans only amortize dispatch.
  ParallelFor(0, a.size(), kFlatGrain, [&](std::size_t lo, std::size_t hi) {
    kernel::Hadamard(a.data() + lo, b.data() + lo, c.data() + lo, hi - lo);
  });
  return c;
}

Matrix Add(const Matrix& a, const Matrix& b, double alpha) {
  Matrix c = a;
  c.Add(b, alpha);
  return c;
}

Matrix HConcat(const std::vector<Matrix>& blocks) {
  UMVSC_CHECK(!blocks.empty(), "HConcat requires at least one block");
  const std::size_t rows = blocks.front().rows();
  std::size_t cols = 0;
  for (const Matrix& b : blocks) {
    UMVSC_CHECK(b.rows() == rows, "HConcat row-count mismatch");
    cols += b.cols();
  }
  Matrix out(rows, cols);
  for (std::size_t i = 0; i < rows; ++i) {
    double* dst = out.RowPtr(i);
    for (const Matrix& b : blocks) {
      const double* src = b.RowPtr(i);
      std::copy(src, src + b.cols(), dst);
      dst += b.cols();
    }
  }
  return out;
}

double OrthonormalityError(const Matrix& q) {
  Matrix g = Gram(q);
  for (std::size_t i = 0; i < g.rows(); ++i) g(i, i) -= 1.0;
  return g.MaxAbs();
}

}  // namespace umvsc::la
