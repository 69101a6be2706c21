#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "cluster/rotation.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "la/gemm_kernel.h"
#include "la/ops.h"
#include "test_util.h"

namespace umvsc::cluster {
namespace {

// The Y-step as it stood before it was fused into one kernel: four calls,
// each over all n rows — F = MatMul(A, G), F·R = MatMul(F, R), the
// argmax (with the alternation's empty-column repair), the residual
// recurrence writing Ŷ, and AᵀŶ as the row split of one GemmAdd. The
// kernel must match it bit for bit.
namespace reference {

struct Step {
  std::vector<std::size_t> labels;
  std::vector<std::size_t> counts;
  la::Matrix fr;     // F·R
  la::Matrix y_hat;  // Ŷ
  la::Matrix proj;   // AᵀŶ
  double residual = 0.0;
};

void DiscretizeRows(const la::Matrix& fr, bool repair,
                    std::vector<std::size_t>& labels,
                    std::vector<std::size_t>& counts) {
  const std::size_t n = fr.rows();
  const std::size_t num_clusters = fr.cols();
  labels.assign(n, 0);
  counts.assign(num_clusters, 0);
  for (std::size_t i = 0; i < n; ++i) {
    double best = -std::numeric_limits<double>::infinity();
    for (std::size_t j = 0; j < num_clusters; ++j) {
      if (fr(i, j) > best) {
        best = fr(i, j);
        labels[i] = j;
      }
    }
    counts[labels[i]]++;
  }
  if (!repair) return;
  for (std::size_t j = 0; j < num_clusters; ++j) {
    if (counts[j] != 0) continue;
    double best = -std::numeric_limits<double>::infinity();
    std::size_t best_i = n;
    for (std::size_t i = 0; i < n; ++i) {
      if (counts[labels[i]] < 2) continue;
      if (fr(i, j) > best) {
        best = fr(i, j);
        best_i = i;
      }
    }
    if (best_i < n) {
      counts[labels[best_i]]--;
      labels[best_i] = j;
      counts[j] = 1;
    }
  }
}

double IndicatorResidual(const std::vector<std::size_t>& labels,
                         const std::vector<std::size_t>& counts,
                         bool scale_indicator, const la::Matrix& fr,
                         la::Matrix& y_hat) {
  const std::size_t n = fr.rows(), c = fr.cols();
  std::vector<double> entry(c, 1.0);
  if (scale_indicator) {
    for (std::size_t j = 0; j < c; ++j) {
      if (counts[j] > 0) {
        entry[j] = 1.0 * (1.0 / std::sqrt(static_cast<double>(counts[j])));
      }
    }
  }
  double scale = 0.0;
  double ssq = 1.0;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < c; ++j) {
      const double y = j == labels[i] ? entry[j] : 0.0;
      const double x = y + (-1.0) * fr(i, j);
      y_hat(i, j) = y;
      if (x == 0.0) continue;
      const double ax = std::fabs(x);
      if (scale < ax) {
        ssq = 1.0 + ssq * (scale / ax) * (scale / ax);
        scale = ax;
      } else {
        ssq += (ax / scale) * (ax / scale);
      }
    }
  }
  return scale * std::sqrt(ssq);
}

Step YStep(const la::Matrix& a, const la::Matrix* g, const la::Matrix& r,
           bool scale, bool repair) {
  Step out;
  const la::Matrix f = g != nullptr ? la::MatMul(a, *g) : a;
  out.fr = la::MatMul(f, r);
  DiscretizeRows(out.fr, repair, out.labels, out.counts);
  out.y_hat = la::Matrix(f.rows(), f.cols());
  out.residual =
      IndicatorResidual(out.labels, out.counts, scale, out.fr, out.y_hat);
  const std::size_t k = a.cols(), c = r.cols();
  out.proj = la::Matrix(k, c);
  la::kernel::GemmAdd(c, a.rows(), la::kernel::Operand{a.data(), k, true},
                      la::kernel::Operand{out.y_hat.data(), c, false},
                      out.proj.data(), c, 0, k);
  return out;
}

}  // namespace reference

bool BitwiseEqual(const la::Matrix& a, const la::Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

bool BitwiseEqual(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

// Which rows the inputs force.
enum class Rows { kRandom, kTied, kEmptyLastColumn };

// A (n × k, k = c without a basis) and G (k × c, null without a basis) of
// the requested kind. kTied zeroes every fourth row of A, so those F·R rows
// tie in every column. kEmptyLastColumn makes F's last column about −100
// on every row: with R = I it never wins the argmax.
struct Inputs {
  la::Matrix a;
  la::Matrix g;
  la::Matrix r;
  bool has_basis = false;
};

Inputs MakeInputs(std::size_t n, std::size_t c, std::size_t basis_cols,
                  Rows rows, std::uint64_t seed) {
  Rng rng(seed);
  Inputs in;
  in.has_basis = basis_cols > 0;
  const std::size_t k = in.has_basis ? basis_cols : c;
  in.a = la::Matrix::RandomGaussian(n, k, rng);
  in.a.Scale(0.3);
  if (in.has_basis) {
    in.g = la::Matrix::RandomGaussian(k, c, rng);
  }
  in.r = test::RandomOrthonormal(c, c, seed + 1);
  if (rows == Rows::kTied) {
    for (std::size_t i = 3; i < n; i += 4) {
      for (std::size_t p = 0; p < k; ++p) in.a(i, p) = 0.0;
    }
  } else if (rows == Rows::kEmptyLastColumn) {
    in.r = la::Matrix::Identity(c);
    if (in.has_basis) {
      for (std::size_t i = 0; i < n; ++i) in.a(i, 0) = 1.0;
      in.g(0, c - 1) = -100.0;
    } else {
      for (std::size_t i = 0; i < n; ++i) in.a(i, c - 1) -= 100.0;
    }
  }
  return in;
}

void ExpectSameStep(const reference::Step& want, const YStepBuffers& got,
                    double residual, const std::string& where) {
  EXPECT_EQ(want.labels, got.labels) << where;
  EXPECT_EQ(want.counts, got.counts) << where;
  EXPECT_TRUE(BitwiseEqual(want.y_hat, got.y_hat)) << where;
  EXPECT_TRUE(BitwiseEqual(want.proj, got.proj)) << where;
  EXPECT_TRUE(BitwiseEqual(want.residual, residual))
      << where << ": " << want.residual << " vs " << residual;
  // The residual is the Frobenius norm of Ŷ − F·R.
  EXPECT_TRUE(BitwiseEqual(
      la::Add(got.y_hat, want.fr, -1.0).FrobeniusNorm(), residual))
      << where;
}

// The kernel at 1, 2 and 8 threads and under a one-thread ParallelContext,
// both indicator conventions, with and without the repair, against the
// reference. Each call reuses buffers shaped by the previous one, starting
// from garbage so no output can pass by being left alone.
void ExpectMatchesReference(const Inputs& in, const std::string& name) {
  const la::Matrix* g = in.has_basis ? &in.g : nullptr;
  for (const bool scale : {true, false}) {
    for (const bool repair : {true, false}) {
      const reference::Step want =
          reference::YStep(in.a, g, in.r, scale, repair);
      YStepOptions options;
      options.scale_indicator = scale;
      options.repair_empty = repair;
      YStepBuffers buffers;
      buffers.y_hat = la::Matrix(in.a.rows(), in.r.cols(), 7.0);
      buffers.proj = la::Matrix(in.a.cols(), in.r.cols(), 7.0);
      const std::string where = name + " scale=" + std::to_string(scale) +
                                " repair=" + std::to_string(repair);
      for (const std::size_t threads : {1, 2, 8}) {
        ScopedNumThreads scope(threads);
        const double residual = YStep(in.a, g, in.r, options, buffers);
        ExpectSameStep(want, buffers, residual,
                       where + " threads=" + std::to_string(threads));
      }
      {
        ScopedParallelContext context(ParallelContext{1});
        const double residual = YStep(in.a, g, in.r, options, buffers);
        ExpectSameStep(want, buffers, residual, where + " context=1");
      }
      // Without the projection every other output is the same and proj is
      // left as it was.
      options.project = false;
      reference::Step unprojected = want;
      unprojected.proj = la::Matrix(in.a.cols(), in.r.cols(), 7.0);
      buffers.proj = unprojected.proj;
      for (const std::size_t threads : {1, 8}) {
        ScopedNumThreads scope(threads);
        const double residual = YStep(in.a, g, in.r, options, buffers);
        ExpectSameStep(unprojected, buffers, residual,
                       where + " project=0 threads=" +
                           std::to_string(threads));
      }
    }
  }
}

std::string Name(std::size_t n, std::size_t c, std::size_t basis_cols) {
  return "n=" + std::to_string(n) + " c=" + std::to_string(c) +
         " basis=" + std::to_string(basis_cols);
}

TEST(YStepTest, MatchesFourCallReferenceBitwise) {
  for (const std::size_t c : {2, 5, 40}) {
    for (const std::size_t basis_cols : {0, 13, 21}) {
      for (const std::size_t n : {c, std::size_t{255}, std::size_t{256},
                                  std::size_t{257}, std::size_t{70001}}) {
        ExpectMatchesReference(
            MakeInputs(n, c, basis_cols, Rows::kRandom, 10 * n + c),
            Name(n, c, basis_cols));
      }
    }
  }
}

TEST(YStepTest, TiedRowsTakeTheFirstMaximum) {
  for (const std::size_t c : {2, 5}) {
    for (const std::size_t basis_cols : {0, 13}) {
      const Inputs in = MakeInputs(997, c, basis_cols, Rows::kTied, 300 + c);
      YStepBuffers buffers;
      YStep(in.a, in.has_basis ? &in.g : nullptr, in.r, YStepOptions{},
            buffers);
      for (std::size_t i = 3; i < in.a.rows(); i += 4) {
        EXPECT_EQ(buffers.labels[i], 0u) << "row " << i;
      }
      ExpectMatchesReference(in, "tied " + Name(997, c, basis_cols));
    }
  }
}

TEST(YStepTest, RepairFillsTheEmptyColumn) {
  for (const std::size_t c : {2, 5, 40}) {
    for (const std::size_t basis_cols : {0, 13, 21}) {
      const std::size_t n = 70001;
      const Inputs in =
          MakeInputs(n, c, basis_cols, Rows::kEmptyLastColumn, 500 + c);
      const la::Matrix* g = in.has_basis ? &in.g : nullptr;
      YStepOptions options;
      YStepBuffers buffers;
      YStep(in.a, g, in.r, options, buffers);
      EXPECT_EQ(buffers.counts[c - 1], 0u) << "c=" << c;
      options.repair_empty = true;
      YStep(in.a, g, in.r, options, buffers);
      EXPECT_EQ(buffers.counts[c - 1], 1u) << "c=" << c;
      ExpectMatchesReference(in, "empty " + Name(n, c, basis_cols));
    }
  }
}

}  // namespace
}  // namespace umvsc::cluster
