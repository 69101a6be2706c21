#include "la/sparse.h"

#include <algorithm>
#include <cmath>

#include "common/parallel.h"
#include "la/gemm_kernel.h"
#include "la/simd.h"

namespace umvsc::la {

namespace {
// Row grain of the parallel SpMV/SpMM kernels: rows are independent serial
// sums, so the grain affects only dispatch overhead, never the values.
// Sparse rows are light (~k nonzeros), so the grain is coarser than the
// dense kernels' to amortize the per-span dispatch.
constexpr std::size_t kSpRowGrain = 64;
// Panel-dimension block of the generic SpMM kernel: 64 doubles = 512 bytes
// of accumulator, resident in registers/L1 while a row's nonzeros stream by.
constexpr std::size_t kPanelBlock = 64;
// Widest panel the register-resident skinny kernels cover: 3 lane groups of
// 4. Krylov panels in this library are capped at 10 columns (see
// la/lanczos.cc), so every block-eigensolver SpMM takes the skinny path.
constexpr std::size_t kSkinnyMaxWidth = 12;

// Skinny-panel row kernel: the whole b-wide accumulator row lives in
// registers while a CSR row's nonzeros stream by — R4 4-lane register
// groups (la/simd.h, the native backend) plus R1 scalar remainder columns,
// b = 4·R4 + R1. Fully unrolled at compile time, so the per-nonzero cost is
// one broadcast plus R4 MulAdds — no out-of-line call, no accumulator-block
// setup.
//
// Determinism: column j's accumulator sees exactly one UNFUSED v·x add per
// nonzero in CSR order (V::MulAdd is unfused on every backend), and the
// epilogue performs the same `y[j] += alpha·acc[j]` unfused mul/add as the
// generic kernel — so the skinny path is bitwise identical to the generic
// cache-blocked kernel, to b independent per-column SpMVs, and across
// SIMD/scalar builds and every thread count.
template <std::size_t R4, std::size_t R1>
void SpmmRowsSkinny(const std::size_t* row_offsets,
                    const std::size_t* col_indices, const double* values,
                    const double* x, std::size_t x_stride, double* y,
                    std::size_t y_stride, double alpha, std::size_t lo,
                    std::size_t hi) {
  using V = simd::NativeVec4;
  for (std::size_t r = lo; r < hi; ++r) {
    typename V::Reg acc[R4 > 0 ? R4 : 1];
    double s[R1 > 0 ? R1 : 1];
    for (std::size_t g = 0; g < R4; ++g) acc[g] = V::Zero();
    for (std::size_t j = 0; j < R1; ++j) s[j] = 0.0;
    const std::size_t k1 = row_offsets[r + 1];
    for (std::size_t k = row_offsets[r]; k < k1; ++k) {
      const double v = values[k];
      const double* xr = x + col_indices[k] * x_stride;
      if constexpr (R4 > 0) {
        const typename V::Reg vb = V::Broadcast(v);
        for (std::size_t g = 0; g < R4; ++g) {
          acc[g] = V::MulAdd(vb, V::Load(xr + simd::kSimdLanes * g), acc[g]);
        }
      }
      for (std::size_t j = 0; j < R1; ++j) {
        s[j] += v * xr[simd::kSimdLanes * R4 + j];
      }
    }
    double* yr = y + r * y_stride;
    if constexpr (R4 > 0) {
      const typename V::Reg ab = V::Broadcast(alpha);
      for (std::size_t g = 0; g < R4; ++g) {
        double* yg = yr + simd::kSimdLanes * g;
        V::Store(yg, V::MulAdd(ab, acc[g], V::Load(yg)));
      }
    }
    for (std::size_t j = 0; j < R1; ++j) {
      yr[simd::kSimdLanes * R4 + j] += alpha * s[j];
    }
  }
}

using SkinnyRowFn = void (*)(const std::size_t*, const std::size_t*,
                             const double*, const double*, std::size_t,
                             double*, std::size_t, double, std::size_t,
                             std::size_t);

// One specialization per width b = 1..12; indexed by b − 1.
SkinnyRowFn SkinnyKernelFor(std::size_t b) {
  static constexpr SkinnyRowFn kTable[kSkinnyMaxWidth] = {
      SpmmRowsSkinny<0, 1>, SpmmRowsSkinny<0, 2>, SpmmRowsSkinny<0, 3>,
      SpmmRowsSkinny<1, 0>, SpmmRowsSkinny<1, 1>, SpmmRowsSkinny<1, 2>,
      SpmmRowsSkinny<1, 3>, SpmmRowsSkinny<2, 0>, SpmmRowsSkinny<2, 1>,
      SpmmRowsSkinny<2, 2>, SpmmRowsSkinny<2, 3>, SpmmRowsSkinny<3, 0>};
  return kTable[b - 1];
}
}  // namespace

CsrMatrix CsrMatrix::FromTriplets(std::size_t rows, std::size_t cols,
                                  std::vector<Triplet> triplets) {
  for (const Triplet& t : triplets) {
    UMVSC_CHECK(t.row < rows && t.col < cols, "triplet index out of range");
  }
  std::sort(triplets.begin(), triplets.end(),
            [](const Triplet& a, const Triplet& b) {
              return a.row != b.row ? a.row < b.row : a.col < b.col;
            });
  CsrMatrix m;
  m.rows_ = rows;
  m.cols_ = cols;
  m.row_offsets_.assign(rows + 1, 0);
  m.col_indices_.reserve(triplets.size());
  m.values_.reserve(triplets.size());

  std::size_t i = 0;
  for (std::size_t r = 0; r < rows; ++r) {
    m.row_offsets_[r] = m.values_.size();
    while (i < triplets.size() && triplets[i].row == r) {
      const std::size_t c = triplets[i].col;
      double v = triplets[i].value;
      ++i;
      while (i < triplets.size() && triplets[i].row == r &&
             triplets[i].col == c) {
        v += triplets[i].value;
        ++i;
      }
      m.col_indices_.push_back(c);
      m.values_.push_back(v);
    }
  }
  m.row_offsets_[rows] = m.values_.size();
  return m;
}

CsrMatrix CsrMatrix::FromParts(std::size_t rows, std::size_t cols,
                               std::vector<std::size_t> row_offsets,
                               std::vector<std::size_t> col_indices,
                               std::vector<double> values) {
  UMVSC_CHECK(row_offsets.size() == rows + 1,
              "FromParts: row_offsets must have length rows + 1");
  UMVSC_CHECK(row_offsets.front() == 0 &&
                  row_offsets.back() == col_indices.size() &&
                  col_indices.size() == values.size(),
              "FromParts: inconsistent array lengths");
  for (std::size_t r = 0; r < rows; ++r) {
    UMVSC_CHECK(row_offsets[r] <= row_offsets[r + 1],
                "FromParts: row_offsets must be nondecreasing");
    for (std::size_t k = row_offsets[r]; k < row_offsets[r + 1]; ++k) {
      UMVSC_CHECK(col_indices[k] < cols, "FromParts: column out of range");
      UMVSC_CHECK(k == row_offsets[r] || col_indices[k - 1] < col_indices[k],
                  "FromParts: columns must be strictly ascending per row");
    }
  }
  CsrMatrix m;
  m.rows_ = rows;
  m.cols_ = cols;
  m.row_offsets_ = std::move(row_offsets);
  m.col_indices_ = std::move(col_indices);
  m.values_ = std::move(values);
  return m;
}

CsrMatrix CsrMatrix::FromDense(const Matrix& dense, double drop_tol) {
  std::vector<Triplet> triplets;
  for (std::size_t i = 0; i < dense.rows(); ++i) {
    for (std::size_t j = 0; j < dense.cols(); ++j) {
      const double v = dense(i, j);
      if (std::fabs(v) > drop_tol) triplets.push_back({i, j, v});
    }
  }
  return FromTriplets(dense.rows(), dense.cols(), std::move(triplets));
}

CsrMatrix CsrMatrix::Identity(std::size_t n) {
  std::vector<Triplet> triplets;
  triplets.reserve(n);
  for (std::size_t i = 0; i < n; ++i) triplets.push_back({i, i, 1.0});
  return FromTriplets(n, n, std::move(triplets));
}

Vector CsrMatrix::Multiply(const Vector& x) const {
  Vector y(rows_);
  MultiplyInto(x, y);
  return y;
}

void CsrMatrix::MultiplyInto(const Vector& x, Vector& y, double alpha) const {
  UMVSC_CHECK(x.size() == cols_, "spmv dimension mismatch (x)");
  UMVSC_CHECK(y.size() == rows_, "spmv dimension mismatch (y)");
  // Each row is an independent serial sum in CSR order, so the partition
  // cannot affect any output bit.
  ParallelFor(0, rows_, kSpRowGrain, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t r = lo; r < hi; ++r) {
      double s = 0.0;
      for (std::size_t k = row_offsets_[r]; k < row_offsets_[r + 1]; ++k) {
        s += values_[k] * x[col_indices_[k]];
      }
      y[r] += alpha * s;
    }
  });
}

void CsrMatrix::MultiplyInto(const Matrix& x, Matrix& y, double alpha) const {
  UMVSC_CHECK(x.rows() == cols_, "spmm dimension mismatch (x)");
  UMVSC_CHECK(y.rows() == rows_ && y.cols() == x.cols(),
              "spmm dimension mismatch (y)");
  const std::size_t b = x.cols();
  if (b == 0) return;
  if (b <= kSkinnyMaxWidth) {
    // Register-resident skinny path — bitwise identical to the generic
    // kernel below (see SpmmRowsSkinny), just without the per-nonzero
    // out-of-line Axpy call that dominates at small b.
    const SkinnyRowFn fn = SkinnyKernelFor(b);
    ParallelFor(0, rows_, kSpRowGrain, [&](std::size_t lo, std::size_t hi) {
      fn(row_offsets_.data(), col_indices_.data(), values_.data(), x.data(),
         x.cols(), y.data(), y.cols(), alpha, lo, hi);
    });
    return;
  }
  internal::SpmmGeneric(*this, x, y, alpha);
}

namespace internal {

void SpmmGeneric(const CsrMatrix& a, const Matrix& x, Matrix& y,
                 double alpha) {
  UMVSC_CHECK(x.rows() == a.cols(), "spmm dimension mismatch (x)");
  UMVSC_CHECK(y.rows() == a.rows() && y.cols() == x.cols(),
              "spmm dimension mismatch (y)");
  const std::size_t b = x.cols();
  if (b == 0) return;
  const auto& row_offsets = a.row_offsets();
  const auto& col_indices = a.col_indices();
  const auto& values = a.values();
  ParallelFor(0, a.rows(), kSpRowGrain, [&](std::size_t lo, std::size_t hi) {
    double acc[kPanelBlock];
    for (std::size_t r = lo; r < hi; ++r) {
      const std::size_t k0 = row_offsets[r];
      const std::size_t k1 = row_offsets[r + 1];
      double* yrow = y.RowPtr(r);
      for (std::size_t jj = 0; jj < b; jj += kPanelBlock) {
        const std::size_t jw = std::min(kPanelBlock, b - jj);
        for (std::size_t j = 0; j < jw; ++j) acc[j] = 0.0;
        for (std::size_t k = k0; k < k1; ++k) {
          // Vectorized but value-neutral: each acc[j] still sees one unfused
          // v·x add per nonzero in CSR order, so the SpMM stays bitwise
          // equal to per-column SpMVs (parallel_determinism_test relies on
          // this).
          kernel::Axpy(values[k], x.RowPtr(col_indices[k]) + jj, acc, jw);
        }
        for (std::size_t j = 0; j < jw; ++j) yrow[jj + j] += alpha * acc[j];
      }
    }
  });
}

}  // namespace internal

Matrix CsrMatrix::Multiply(const Matrix& b) const {
  UMVSC_CHECK(b.rows() == cols_, "sparse·dense dimension mismatch");
  Matrix c(rows_, b.cols());
  MultiplyInto(b, c);
  return c;
}

CsrMatrix CsrMatrix::Transposed() const {
  // Counting sort: nnz histogram per column, exclusive prefix sum, then a
  // single scatter pass in row order. Source rows are visited ascending, so
  // each output row receives its column indices already strictly ascending
  // and FromParts adopts the arrays with no re-sort.
  std::vector<std::size_t> offsets(cols_ + 1, 0);
  for (std::size_t c : col_indices_) ++offsets[c + 1];
  for (std::size_t c = 0; c < cols_; ++c) offsets[c + 1] += offsets[c];
  std::vector<std::size_t> cursor(offsets.begin(), offsets.end() - 1);
  std::vector<std::size_t> t_cols(values_.size());
  std::vector<double> t_values(values_.size());
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t k = row_offsets_[r]; k < row_offsets_[r + 1]; ++k) {
      const std::size_t pos = cursor[col_indices_[k]]++;
      t_cols[pos] = r;
      t_values[pos] = values_[k];
    }
  }
  return FromParts(cols_, rows_, std::move(offsets), std::move(t_cols),
                   std::move(t_values));
}

Vector CsrMatrix::RowSums() const {
  Vector sums(rows_);
  for (std::size_t r = 0; r < rows_; ++r) {
    double s = 0.0;
    for (std::size_t k = row_offsets_[r]; k < row_offsets_[r + 1]; ++k) {
      s += values_[k];
    }
    sums[r] = s;
  }
  return sums;
}

double CsrMatrix::At(std::size_t row, std::size_t col) const {
  UMVSC_CHECK(row < rows_ && col < cols_, "CsrMatrix::At index out of range");
  const auto begin = col_indices_.begin() + row_offsets_[row];
  const auto end = col_indices_.begin() + row_offsets_[row + 1];
  const auto it = std::lower_bound(begin, end, col);
  if (it == end || *it != col) return 0.0;
  return values_[static_cast<std::size_t>(it - col_indices_.begin())];
}

Matrix CsrMatrix::ToDense() const {
  Matrix dense(rows_, cols_);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t k = row_offsets_[r]; k < row_offsets_[r + 1]; ++k) {
      dense(r, col_indices_[k]) += values_[k];
    }
  }
  return dense;
}

void CsrMatrix::Scale(double alpha) {
  for (double& v : values_) v *= alpha;
}

bool CsrMatrix::IsSymmetric(double tol) const {
  if (rows_ != cols_) return false;
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t k = row_offsets_[r]; k < row_offsets_[r + 1]; ++k) {
      if (std::fabs(values_[k] - At(col_indices_[k], r)) > tol) return false;
    }
  }
  return true;
}

CsrMatrix WeightedSum(const std::vector<CsrMatrix>& matrices,
                      const std::vector<double>& weights) {
  UMVSC_CHECK(!matrices.empty(), "WeightedSum requires at least one matrix");
  UMVSC_CHECK(matrices.size() == weights.size(),
              "WeightedSum weight count mismatch");
  const std::size_t rows = matrices.front().rows();
  const std::size_t cols = matrices.front().cols();
  std::vector<Triplet> triplets;
  std::size_t total_nnz = 0;
  for (const CsrMatrix& m : matrices) total_nnz += m.NumNonZeros();
  triplets.reserve(total_nnz);
  for (std::size_t v = 0; v < matrices.size(); ++v) {
    const CsrMatrix& m = matrices[v];
    UMVSC_CHECK(m.rows() == rows && m.cols() == cols,
                "WeightedSum shape mismatch");
    const double w = weights[v];
    if (w == 0.0) continue;
    const auto& offsets = m.row_offsets();
    const auto& idx = m.col_indices();
    const auto& vals = m.values();
    for (std::size_t r = 0; r < rows; ++r) {
      for (std::size_t k = offsets[r]; k < offsets[r + 1]; ++k) {
        triplets.push_back({r, idx[k], w * vals[k]});
      }
    }
  }
  return CsrMatrix::FromTriplets(rows, cols, std::move(triplets));
}

CsrCombiner CsrCombiner::Plan(const std::vector<CsrMatrix>& matrices) {
  UMVSC_CHECK(!matrices.empty(), "CsrCombiner requires at least one matrix");
  const std::size_t rows = matrices.front().rows();
  const std::size_t cols = matrices.front().cols();
  for (const CsrMatrix& m : matrices) {
    UMVSC_CHECK(m.rows() == rows && m.cols() == cols,
                "CsrCombiner shape mismatch");
  }

  CsrCombiner plan;
  plan.rows_ = rows;
  plan.cols_ = cols;
  plan.row_offsets_.assign(rows + 1, 0);

  // Row-by-row union of the per-matrix column lists (each already sorted).
  std::vector<std::size_t> merged;
  for (std::size_t r = 0; r < rows; ++r) {
    merged.clear();
    for (const CsrMatrix& m : matrices) {
      const auto& offsets = m.row_offsets();
      const auto& idx = m.col_indices();
      merged.insert(merged.end(), idx.begin() + offsets[r],
                    idx.begin() + offsets[r + 1]);
    }
    std::sort(merged.begin(), merged.end());
    merged.erase(std::unique(merged.begin(), merged.end()), merged.end());
    plan.col_indices_.insert(plan.col_indices_.end(), merged.begin(),
                             merged.end());
    plan.row_offsets_[r + 1] = plan.col_indices_.size();
  }

  // Scatter maps: where each stored entry of each matrix lands in the union.
  plan.slots_.resize(matrices.size());
  for (std::size_t v = 0; v < matrices.size(); ++v) {
    const CsrMatrix& m = matrices[v];
    const auto& offsets = m.row_offsets();
    const auto& idx = m.col_indices();
    plan.slots_[v].resize(m.NumNonZeros());
    for (std::size_t r = 0; r < rows; ++r) {
      const auto ubegin = plan.col_indices_.begin() + plan.row_offsets_[r];
      const auto uend = plan.col_indices_.begin() + plan.row_offsets_[r + 1];
      for (std::size_t k = offsets[r]; k < offsets[r + 1]; ++k) {
        const auto it = std::lower_bound(ubegin, uend, idx[k]);
        plan.slots_[v][k] =
            static_cast<std::size_t>(it - plan.col_indices_.begin());
      }
    }
  }
  return plan;
}

CsrMatrix CsrCombiner::Combine(const std::vector<CsrMatrix>& matrices,
                               const std::vector<double>& weights) const {
  UMVSC_CHECK(matrices.size() == slots_.size(),
              "CsrCombiner: matrix count does not match the plan");
  UMVSC_CHECK(matrices.size() == weights.size(),
              "CsrCombiner weight count mismatch");
  std::vector<double> values(col_indices_.size(), 0.0);
  for (std::size_t v = 0; v < matrices.size(); ++v) {
    const CsrMatrix& m = matrices[v];
    UMVSC_CHECK(m.NumNonZeros() == slots_[v].size(),
                "CsrCombiner: matrix pattern changed since Plan");
    const double w = weights[v];
    if (w == 0.0) continue;
    const auto& vals = m.values();
    const std::vector<std::size_t>& slot = slots_[v];
    for (std::size_t k = 0; k < vals.size(); ++k) {
      values[slot[k]] += w * vals[k];
    }
  }
  return CsrMatrix::FromParts(rows_, cols_, row_offsets_, col_indices_,
                              std::move(values));
}

}  // namespace umvsc::la
