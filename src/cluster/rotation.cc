#include "cluster/rotation.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "common/parallel.h"
#include "common/rng.h"
#include "la/gemm_kernel.h"
#include "la/ops.h"
#include "la/qr.h"
#include "la/simd.h"
#include "la/svd.h"

namespace umvsc::cluster {

la::Matrix LabelsToIndicator(const std::vector<std::size_t>& labels,
                             std::size_t num_clusters) {
  la::Matrix y(labels.size(), num_clusters);
  for (std::size_t i = 0; i < labels.size(); ++i) {
    UMVSC_CHECK(labels[i] < num_clusters, "label exceeds cluster count");
    y(i, labels[i]) = 1.0;
  }
  return y;
}

la::Matrix ScaledIndicator(const la::Matrix& y) {
  la::Matrix scaled = y;
  for (std::size_t j = 0; j < y.cols(); ++j) {
    double count = 0.0;
    for (std::size_t i = 0; i < y.rows(); ++i) count += y(i, j) * y(i, j);
    if (count > 0.0) {
      const double inv = 1.0 / std::sqrt(count);
      for (std::size_t i = 0; i < y.rows(); ++i) scaled(i, j) *= inv;
    }
  }
  return scaled;
}

namespace {

// The initialization of Yu & Shi's discretization code: build R's columns
// from c rows of F chosen to be maximally mutually orthogonal (first row
// arbitrary, then repeatedly the row least explained by the picks so far),
// then orthonormalize. Rows of a good spectral embedding concentrate near c
// distinct directions, so this lands extremely close to the optimum.
la::Matrix YuShiInitialRotation(const la::Matrix& f, Rng& rng) {
  const std::size_t n = f.rows(), c = f.cols();
  la::Matrix r(c, c);
  std::size_t pick = static_cast<std::size_t>(rng.UniformInt(n));
  r.SetCol(0, f.Row(pick));
  la::Vector accum(n);
  for (std::size_t j = 1; j < c; ++j) {
    // accum_i += |F_i · r_{j−1}| measures how well row i is already covered.
    for (std::size_t i = 0; i < n; ++i) {
      double dot = 0.0;
      for (std::size_t p = 0; p < c; ++p) dot += f(i, p) * r(p, j - 1);
      accum[i] += std::fabs(dot);
    }
    std::size_t best = 0;
    for (std::size_t i = 1; i < n; ++i) {
      if (accum[i] < accum[best]) best = i;
    }
    r.SetCol(j, f.Row(best));
  }
  return la::Orthonormalize(r);
}

// One restart's outcome; its labels are left in the thread's buffers.
struct SingleRun {
  Status status = Status::OK();
  la::Matrix rotation;
  double objective = std::numeric_limits<double>::infinity();
  std::size_t iterations = 0;
};

// The best restart a thread has seen, in its own attempt order.
struct ThreadBest {
  SingleRun run;
  std::vector<std::size_t> labels;
};

SingleRun RunOnce(const la::Matrix& f, const RotationOptions& options,
                  la::Matrix r, YStepBuffers& ws) {
  SingleRun out;
  double prev_obj = std::numeric_limits<double>::infinity();
  YStepOptions step;
  step.scale_indicator = options.scale_indicator;

  std::size_t iter = 0;
  for (; iter < options.max_iterations; ++iter) {
    // Y-step: each row of F·R independently picks its largest coordinate
    // (the first one on a tie); objective ‖Ŷ − F·R‖²_F; FᵀŶ.
    const double obj = YStep(f, nullptr, r, step, ws);
    const double obj2 = obj * obj;

    // R-step: orthogonal Procrustes, R = U·Vᵀ of FᵀŶ.
    StatusOr<la::Matrix> next_r = la::ProcrustesRotation(ws.proj);
    if (!next_r.ok()) {
      out.status = next_r.status();
      return out;
    }
    r = std::move(*next_r);

    if (iter > 0 &&
        prev_obj - obj2 <= options.tolerance * std::max(prev_obj, 1e-300)) {
      prev_obj = std::min(prev_obj, obj2);
      ++iter;
      break;
    }
    prev_obj = obj2;
  }

  out.rotation = std::move(r);
  out.objective = prev_obj;
  out.iterations = iter;
  return out;
}

// A Y-step block: the row edge of GemmAdd's kc grid, so a block's AᵀŶ
// partial is exactly one kc-block partial of MatTMul(A, Ŷ).
constexpr std::size_t kBlockRows = la::kernel::kKc;

void Reshape(la::Matrix& m, std::size_t rows, std::size_t cols) {
  if (m.rows() != rows || m.cols() != cols) m = la::Matrix(rows, cols);
}

// An empty column j steals the row with the largest affinity F·R(:, j)
// among rows whose cluster keeps >= 2 members, so a solver cannot silently
// collapse clusters (the K-means empty-cluster convention).
void RepairEmptyColumns(const la::Matrix& fr,
                        std::vector<std::size_t>& labels,
                        std::vector<std::size_t>& counts) {
  const std::size_t n = fr.rows();
  for (std::size_t j = 0; j < fr.cols(); ++j) {
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

// Overwrites F·R in `y` with Ŷ and returns ‖Ŷ − F·R‖_F by
// Matrix::FrobeniusNorm's scale/ssq recurrence over the elements of
// la::Add(Ŷ, F·R, −1) in row-major order, one block's magnitudes at a
// time. Off the label column ŷ = +0, so |ŷ − F·R| is |F·R|; on it,
// |entry − F·R|, read before Ŷ overwrites the element.
double ResidualInPlace(const std::vector<std::size_t>& labels,
                       const std::vector<double>& entry, la::Matrix& y) {
  const std::size_t n = y.rows(), c = y.cols();
  std::vector<double> magnitudes(kBlockRows * c);
  std::vector<double> on_label(kBlockRows);
  double scale = 0.0;
  double ssq = 1.0;
  for (std::size_t b0 = 0; b0 < n; b0 += kBlockRows) {
    const std::size_t rows = std::min(kBlockRows, n - b0);
    const std::size_t* label = labels.data() + b0;
    double* block = y.RowPtr(b0);
    for (std::size_t i = 0; i < rows; ++i) {
      on_label[i] =
          std::fabs(entry[label[i]] + (-1.0) * block[i * c + label[i]]);
    }
    for (std::size_t t = 0; t < rows * c; ++t) {
      magnitudes[t] = std::fabs(block[t]);
      block[t] = 0.0;
    }
    for (std::size_t i = 0; i < rows; ++i) {
      magnitudes[i * c + label[i]] = on_label[i];
      block[i * c + label[i]] = entry[label[i]];
    }
    for (std::size_t t = 0; t < rows * c; ++t) {
      const double ax = magnitudes[t];
      if (ax == 0.0) continue;
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

// proj = AᵀŶ on GemmAdd's grid: per kc block of rows, the partial of each
// column j sums a_r·ŷ_rj over the block's rows labelled j in ascending r
// (AxpyLanes' unfused y + α·x is the kernel's acc + a·b), and the partials
// add into proj in ascending block order.
void ProjectIndicator(const la::Matrix& a,
                      const std::vector<std::size_t>& labels,
                      const std::vector<double>& entry, la::Matrix& proj) {
  const std::size_t n = a.rows(), k = a.cols(), c = proj.cols();
  proj.Fill(0.0);
  std::vector<double> partial(c * k);
  for (std::size_t b0 = 0; b0 < n; b0 += kBlockRows) {
    const std::size_t b1 = std::min(b0 + kBlockRows, n);
    std::fill(partial.begin(), partial.end(), 0.0);  // column j at j·k
    for (std::size_t i = b0; i < b1; ++i) {
      const std::size_t j = labels[i];
      la::simd::AxpyLanes<la::simd::NativeVec4>(entry[j], a.RowPtr(i),
                                                partial.data() + j * k, k);
    }
    for (std::size_t p = 0; p < k; ++p) {
      double* row = proj.RowPtr(p);
      for (std::size_t j = 0; j < c; ++j) row[j] += partial[j * k + p];
    }
  }
}

}  // namespace

double YStep(const la::Matrix& a, const la::Matrix* g, const la::Matrix& r,
             const YStepOptions& options, YStepBuffers& out) {
  const std::size_t n = a.rows(), k = a.cols(), c = r.cols();
  UMVSC_CHECK(r.rows() == c, "YStep rotation must be square");
  UMVSC_CHECK(g != nullptr ? g->rows() == k && g->cols() == c : k == c,
              "YStep embedding shape mismatch");
  Reshape(out.y_hat, n, c);
  out.labels.resize(n);
  const std::size_t blocks = (n + kBlockRows - 1) / kBlockRows;
  std::vector<std::size_t> block_counts(blocks * c, 0);

  // Pass A, row-parallel on the kc grid: a block's F rows (A·G, kept in a
  // block-sized buffer that never leaves the cache) and F·R through the
  // packed kernel, whose bits do not depend on the row range, then the
  // block's argmax and label counts.
  la::kernel::PackedB g_packed;
  if (g != nullptr) {
    g_packed =
        la::kernel::PackB(c, k, la::kernel::Operand{g->data(), c, false});
  }
  const la::kernel::PackedB r_packed =
      la::kernel::PackB(c, c, la::kernel::Operand{r.data(), c, false});
  ParallelFor(0, n, kBlockRows, [&](std::size_t lo, std::size_t hi) {
    std::vector<double> f_block(g != nullptr ? kBlockRows * c : 0);
    for (std::size_t b0 = lo; b0 < hi; b0 += kBlockRows) {
      const std::size_t rows = std::min(kBlockRows, hi - b0);
      la::kernel::Operand f_rows{a.data() + b0 * k, k, false};
      if (g != nullptr) {
        std::fill(f_block.begin(), f_block.end(), 0.0);
        la::kernel::GemmAdd(f_rows, g_packed, f_block.data(), c, 0, rows);
        f_rows = la::kernel::Operand{f_block.data(), c, false};
      }
      double* fr = out.y_hat.RowPtr(b0);
      std::fill(fr, fr + rows * c, 0.0);
      la::kernel::GemmAdd(f_rows, r_packed, fr, c, 0, rows);
      std::size_t* counts = block_counts.data() + (b0 / kBlockRows) * c;
      for (std::size_t i = b0; i < b0 + rows; ++i, fr += c) {
        double best = -std::numeric_limits<double>::infinity();
        std::size_t label = 0;
        for (std::size_t j = 0; j < c; ++j) {
          if (fr[j] > best) {
            best = fr[j];
            label = j;
          }
        }
        out.labels[i] = label;
        ++counts[label];
      }
    }
  });
  out.counts.assign(c, 0);
  for (std::size_t t = 0; t < blocks * c; ++t) {
    out.counts[t % c] += block_counts[t];
  }
  if (options.repair_empty) {
    RepairEmptyColumns(out.y_hat, out.labels, out.counts);
  }

  // Ŷ's nonzero in column j: 1·(YᵀY)_jj^{−1/2} as ScaledIndicator forms it
  // (the column's squared norm is its exact member count), or 1 unscaled.
  std::vector<double> entry(c, 1.0);
  if (options.scale_indicator) {
    for (std::size_t j = 0; j < c; ++j) {
      if (out.counts[j] > 0) {
        entry[j] =
            1.0 * (1.0 / std::sqrt(static_cast<double>(out.counts[j])));
      }
    }
  }

  // Pass B: the serial residual recurrence beside the AᵀŶ projection,
  // which reads only A, the labels and the entries.
  if (!options.project) return ResidualInPlace(out.labels, entry, out.y_hat);
  Reshape(out.proj, k, c);
  double residual = 0.0;
  ParallelFor(0, 2, 1, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t task = lo; task < hi; ++task) {
      if (task == 0) {
        residual = ResidualInPlace(out.labels, entry, out.y_hat);
      } else {
        ProjectIndicator(a, out.labels, entry, out.proj);
      }
    }
  });
  return residual;
}

StatusOr<RotationResult> DiscretizeEmbedding(const la::Matrix& f,
                                             const RotationOptions& options) {
  const std::size_t n = f.rows(), c = f.cols();
  if (c < 1 || n < c) {
    return Status::InvalidArgument(
        "DiscretizeEmbedding requires an n × c embedding with n >= c >= 1");
  }
  if (options.restarts < 1) {
    return Status::InvalidArgument("restarts must be >= 1");
  }
  const std::size_t restarts = options.restarts;

  // The restarts are independent: each draws from its own stream, split
  // from the root in attempt order exactly as a serial loop would.
  Rng root(options.seed);
  std::vector<Rng> streams;
  streams.reserve(restarts);
  for (std::size_t attempt = 0; attempt < restarts; ++attempt) {
    streams.push_back(root.Split());
  }

  // Each participating thread runs a contiguous run of attempts in one set
  // of Y-step buffers and keeps its best restart, slotted by its first
  // attempt. The Y-steps inside a restart are nested regions and run
  // inline, with the same bits.
  std::vector<Status> statuses(restarts, Status::OK());
  std::vector<ThreadBest> bests(restarts);
  ParallelFor(0, restarts, 1, [&](std::size_t lo, std::size_t hi) {
    YStepBuffers ws;
    ThreadBest& best = bests[lo];
    for (std::size_t attempt = lo; attempt < hi; ++attempt) {
      Rng& rng = streams[attempt];
      // The first attempts use the Yu–Shi most-orthogonal-rows seeding
      // (with different random first rows); later attempts fall back to
      // fully random rotations for diversity.
      la::Matrix r0 =
          (attempt < (restarts + 1) / 2)
              ? YuShiInitialRotation(f, rng)
              : la::Orthonormalize(la::Matrix::RandomGaussian(c, c, rng));
      SingleRun run = RunOnce(f, options, std::move(r0), ws);
      if (!run.status.ok()) {
        statuses[attempt] = run.status;
        continue;
      }
      if (run.objective < best.run.objective) {
        best.run = std::move(run);
        std::swap(best.labels, ws.labels);
      }
    }
  });

  Status last_error = Status::OK();
  bool any_ok = false;
  for (const Status& status : statuses) {
    if (status.ok()) {
      any_ok = true;
    } else {
      last_error = status;
    }
  }
  if (!any_ok) return last_error;

  // Thread bests in attempt order under the same strict `<`: the first
  // attempt to reach the minimum wins, as in a serial loop.
  ThreadBest* winner = nullptr;
  double best_objective = std::numeric_limits<double>::infinity();
  for (ThreadBest& best : bests) {
    if (best.run.objective < best_objective) {
      best_objective = best.run.objective;
      winner = &best;
    }
  }
  RotationResult result;
  result.objective = best_objective;
  if (winner != nullptr) {
    result.labels = std::move(winner->labels);
    result.indicator = LabelsToIndicator(result.labels, c);
    result.rotation = std::move(winner->run.rotation);
    result.iterations = winner->run.iterations;
  }
  return result;
}

}  // namespace umvsc::cluster
