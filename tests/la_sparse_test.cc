#include "la/sparse.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "la/ops.h"

namespace umvsc::la {
namespace {

CsrMatrix SmallExample() {
  // [[1, 0, 2],
  //  [0, 0, 3],
  //  [4, 5, 0]]
  return CsrMatrix::FromTriplets(
      3, 3, {{0, 0, 1.0}, {0, 2, 2.0}, {1, 2, 3.0}, {2, 0, 4.0}, {2, 1, 5.0}});
}

TEST(CsrTest, FromTripletsBasicLayout) {
  CsrMatrix m = SmallExample();
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_EQ(m.NumNonZeros(), 5u);
  EXPECT_DOUBLE_EQ(m.At(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(m.At(0, 1), 0.0);
  EXPECT_DOUBLE_EQ(m.At(2, 1), 5.0);
}

TEST(CsrTest, DuplicateTripletsAreSummed) {
  CsrMatrix m = CsrMatrix::FromTriplets(2, 2, {{0, 0, 1.0}, {0, 0, 2.5}});
  EXPECT_EQ(m.NumNonZeros(), 1u);
  EXPECT_DOUBLE_EQ(m.At(0, 0), 3.5);
}

TEST(CsrTest, UnsortedTripletsAreSorted) {
  CsrMatrix m = CsrMatrix::FromTriplets(
      2, 3, {{1, 2, 6.0}, {0, 1, 2.0}, {1, 0, 4.0}, {0, 0, 1.0}});
  Matrix d = m.ToDense();
  Matrix expected{{1.0, 2.0, 0.0}, {4.0, 0.0, 6.0}};
  EXPECT_TRUE(AlmostEqual(d, expected, 0.0));
}

TEST(CsrTest, EmptyRowsHandled) {
  CsrMatrix m = CsrMatrix::FromTriplets(4, 4, {{0, 0, 1.0}, {3, 3, 2.0}});
  EXPECT_DOUBLE_EQ(m.RowSums()[1], 0.0);
  Vector y = m.Multiply(Vector(4, 1.0));
  EXPECT_DOUBLE_EQ(y[0], 1.0);
  EXPECT_DOUBLE_EQ(y[1], 0.0);
  EXPECT_DOUBLE_EQ(y[3], 2.0);
}

TEST(CsrTest, SpmvMatchesDense) {
  Rng rng(80);
  Matrix dense = Matrix::RandomGaussian(20, 15, rng);
  // Sparsify: zero out ~2/3 of entries.
  for (std::size_t i = 0; i < dense.rows(); ++i) {
    for (std::size_t j = 0; j < dense.cols(); ++j) {
      if (rng.Uniform() < 0.66) dense(i, j) = 0.0;
    }
  }
  CsrMatrix sparse = CsrMatrix::FromDense(dense);
  Vector x(15);
  for (std::size_t i = 0; i < 15; ++i) x[i] = rng.Gaussian();
  EXPECT_TRUE(AlmostEqual(sparse.Multiply(x), MatVec(dense, x), 1e-12));
}

TEST(CsrTest, MultiplyIntoAccumulatesWithAlpha) {
  CsrMatrix m = SmallExample();
  Vector x{1.0, 1.0, 1.0};
  Vector y(3, 10.0);
  m.MultiplyInto(x, y, 2.0);
  EXPECT_DOUBLE_EQ(y[0], 10.0 + 2.0 * 3.0);
  EXPECT_DOUBLE_EQ(y[1], 10.0 + 2.0 * 3.0);
  EXPECT_DOUBLE_EQ(y[2], 10.0 + 2.0 * 9.0);
}

TEST(CsrTest, DenseMultiplyMatchesDense) {
  Rng rng(81);
  Matrix dense = Matrix::RandomGaussian(10, 8, rng);
  CsrMatrix sparse = CsrMatrix::FromDense(dense);
  Matrix b = Matrix::RandomGaussian(8, 5, rng);
  EXPECT_TRUE(AlmostEqual(sparse.Multiply(b), MatMul(dense, b), 1e-12));
}

TEST(CsrTest, TransposedMatchesDenseTranspose) {
  Rng rng(82);
  Matrix dense = Matrix::RandomGaussian(6, 9, rng);
  CsrMatrix sparse = CsrMatrix::FromDense(dense);
  EXPECT_TRUE(AlmostEqual(sparse.Transposed().ToDense(), Transpose(dense),
                          1e-14));
}

TEST(CsrTest, TransposedOfSparsePatternIsExactAndSorted) {
  Rng rng(83);
  Matrix dense = Matrix::RandomGaussian(40, 25, rng);
  for (std::size_t i = 0; i < dense.rows(); ++i) {
    for (std::size_t j = 0; j < dense.cols(); ++j) {
      if (rng.Uniform() < 0.8) dense(i, j) = 0.0;  // empty rows AND columns
    }
  }
  CsrMatrix sparse = CsrMatrix::FromDense(dense);
  CsrMatrix t = sparse.Transposed();
  EXPECT_EQ(t.rows(), 25u);
  EXPECT_EQ(t.cols(), 40u);
  EXPECT_EQ(t.NumNonZeros(), sparse.NumNonZeros());
  // The counting-sort scatter must leave columns strictly ascending within
  // each row (the FromParts invariant) and values exactly preserved.
  for (std::size_t r = 0; r < t.rows(); ++r) {
    for (std::size_t k = t.row_offsets()[r] + 1; k < t.row_offsets()[r + 1];
         ++k) {
      EXPECT_LT(t.col_indices()[k - 1], t.col_indices()[k]);
    }
  }
  EXPECT_TRUE(AlmostEqual(t.ToDense(), Transpose(dense), 0.0));
  // Round trip is the identity, including the stored layout.
  CsrMatrix tt = t.Transposed();
  EXPECT_EQ(tt.row_offsets(), sparse.row_offsets());
  EXPECT_EQ(tt.col_indices(), sparse.col_indices());
  EXPECT_EQ(tt.values(), sparse.values());
}

TEST(CsrTest, SpmmMatchesDenseAndPerColumnSpmv) {
  Rng rng(84);
  Matrix dense = Matrix::RandomGaussian(30, 22, rng);
  for (std::size_t i = 0; i < dense.rows(); ++i) {
    for (std::size_t j = 0; j < dense.cols(); ++j) {
      if (rng.Uniform() < 0.7) dense(i, j) = 0.0;
    }
  }
  CsrMatrix sparse = CsrMatrix::FromDense(dense);
  // 79 columns forces a partial tail block in the cache-blocked panel loop.
  Matrix x = Matrix::RandomGaussian(22, 79, rng);
  Matrix y = Matrix::RandomGaussian(30, 79, rng);
  Matrix expected = y;
  expected.Add(MatMul(dense, x), 0.75);
  Matrix got = y;
  sparse.MultiplyInto(x, got, 0.75);
  EXPECT_TRUE(AlmostEqual(got, expected, 1e-12));
  // Bitwise agreement with per-column SpMV — the contract the block
  // eigensolver's determinism rests on.
  Matrix by_column = y;
  for (std::size_t j = 0; j < x.cols(); ++j) {
    Vector xj = x.Col(j);
    Vector yj = by_column.Col(j);
    sparse.MultiplyInto(xj, yj, 0.75);
    by_column.SetCol(j, yj);
  }
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got.data()[i], by_column.data()[i]);
  }
}

TEST(CsrTest, SpmmZeroWidthPanelIsANoOp) {
  CsrMatrix m = SmallExample();
  Matrix x(3, 0);
  Matrix y(3, 0);
  m.MultiplyInto(x, y);  // must not touch anything or crash
  EXPECT_EQ(y.cols(), 0u);
}

TEST(CsrTest, RowSums) {
  CsrMatrix m = SmallExample();
  Vector sums = m.RowSums();
  EXPECT_DOUBLE_EQ(sums[0], 3.0);
  EXPECT_DOUBLE_EQ(sums[1], 3.0);
  EXPECT_DOUBLE_EQ(sums[2], 9.0);
}

TEST(CsrTest, FromDenseDropTolerance) {
  Matrix dense{{1.0, 1e-15}, {0.0, 2.0}};
  CsrMatrix sparse = CsrMatrix::FromDense(dense, 1e-12);
  EXPECT_EQ(sparse.NumNonZeros(), 2u);
}

TEST(CsrTest, IdentityBehaves) {
  CsrMatrix eye = CsrMatrix::Identity(5);
  EXPECT_EQ(eye.NumNonZeros(), 5u);
  Vector x{1.0, 2.0, 3.0, 4.0, 5.0};
  EXPECT_TRUE(AlmostEqual(eye.Multiply(x), x, 0.0));
}

TEST(CsrTest, ScaleMultipliesValues) {
  CsrMatrix m = SmallExample();
  m.Scale(0.5);
  EXPECT_DOUBLE_EQ(m.At(2, 1), 2.5);
}

TEST(CsrTest, IsSymmetricDetects) {
  CsrMatrix sym = CsrMatrix::FromTriplets(
      2, 2, {{0, 1, 3.0}, {1, 0, 3.0}, {0, 0, 1.0}});
  EXPECT_TRUE(sym.IsSymmetric());
  CsrMatrix asym = CsrMatrix::FromTriplets(2, 2, {{0, 1, 3.0}});
  EXPECT_FALSE(asym.IsSymmetric());
}

TEST(CsrDeathTest, OutOfRangeTripletAborts) {
  EXPECT_DEATH(CsrMatrix::FromTriplets(2, 2, {{2, 0, 1.0}}), "out of range");
}

}  // namespace
}  // namespace umvsc::la
