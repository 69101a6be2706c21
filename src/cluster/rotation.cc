#include "cluster/rotation.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "common/parallel.h"
#include "common/rng.h"
#include "la/ops.h"
#include "la/qr.h"
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

// One thread's storage for its share of the restarts, sized once per
// DiscretizeEmbedding call and reused by every sweep of every restart the
// thread runs: a sweep allocates nothing n-sized.
struct Workspace {
  Workspace(std::size_t n, std::size_t c)
      : fr(n, c), fty(c, c), labels(n), counts(c) {}
  la::Matrix fr;                     // F·R, then Ŷ in place
  la::Matrix fty;                    // FᵀŶ, the Procrustes input
  std::vector<std::size_t> labels;   // the current sweep's row argmax
  std::vector<std::size_t> counts;   // cluster sizes of `labels`
};

// One restart's outcome; its labels are left in ws.labels.
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
                  la::Matrix r, Workspace& ws) {
  const std::size_t n = f.rows(), c = f.cols();
  SingleRun out;
  double prev_obj = std::numeric_limits<double>::infinity();

  std::size_t iter = 0;
  for (; iter < options.max_iterations; ++iter) {
    // Y-step: each row of F·R independently picks its largest coordinate
    // (the first one on a tie).
    la::MatMulInto(f, r, ws.fr);
    std::fill(ws.counts.begin(), ws.counts.end(), 0);
    for (std::size_t i = 0; i < n; ++i) {
      const double* row = ws.fr.RowPtr(i);
      double best = -std::numeric_limits<double>::infinity();
      std::size_t label = 0;
      for (std::size_t j = 0; j < c; ++j) {
        if (row[j] > best) {
          best = row[j];
          label = j;
        }
      }
      ws.labels[i] = label;
      ++ws.counts[label];
    }

    // Objective ‖Ŷ − F·R‖²_F, with F·R overwritten by Ŷ.
    const double obj = IndicatorResidual(ws.labels, ws.counts,
                                         options.scale_indicator, ws.fr, ws.fr);
    const double obj2 = obj * obj;

    // R-step: orthogonal Procrustes, R = U·Vᵀ of FᵀŶ.
    la::MatTMulInto(f, ws.fr, ws.fty);
    StatusOr<la::Matrix> next_r = la::ProcrustesRotation(ws.fty);
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

}  // namespace

double IndicatorResidual(const std::vector<std::size_t>& labels,
                         const std::vector<std::size_t>& counts,
                         bool scale_indicator, const la::Matrix& fr,
                         la::Matrix& y_hat) {
  const std::size_t n = fr.rows(), c = fr.cols();
  UMVSC_CHECK(labels.size() == n && counts.size() == c,
              "IndicatorResidual label/count shape mismatch");
  UMVSC_CHECK(y_hat.rows() == n && y_hat.cols() == c,
              "IndicatorResidual output shape mismatch");
  // Ŷ's nonzero in column j: 1·(YᵀY)_jj^{−1/2} as ScaledIndicator forms it
  // (the column's squared norm is its exact member count), or 1 unscaled.
  thread_local std::vector<double> entry;
  entry.assign(c, 1.0);
  if (scale_indicator) {
    for (std::size_t j = 0; j < c; ++j) {
      if (counts[j] > 0) {
        entry[j] = 1.0 * (1.0 / std::sqrt(static_cast<double>(counts[j])));
      }
    }
  }
  // Matrix::FrobeniusNorm's scale/ssq recurrence over the elements of
  // la::Add(Ŷ, F·R, −1) in row-major order; each F·R element is read
  // before its slot is overwritten, so `y_hat` may alias `fr`.
  double scale = 0.0;
  double ssq = 1.0;
  for (std::size_t i = 0; i < n; ++i) {
    UMVSC_CHECK(labels[i] < c, "label exceeds cluster count");
    const double* fr_row = fr.RowPtr(i);
    double* y_row = y_hat.RowPtr(i);
    for (std::size_t j = 0; j < c; ++j) {
      const double y = j == labels[i] ? entry[j] : 0.0;
      const double x = y + (-1.0) * fr_row[j];
      y_row[j] = y;
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

  // Each participating thread runs a contiguous run of attempts in one
  // workspace and keeps its best restart, slotted by its first attempt.
  // Nested GEMMs inside a restart run serially, with the same bits.
  std::vector<Status> statuses(restarts, Status::OK());
  std::vector<ThreadBest> bests(restarts);
  ParallelFor(0, restarts, 1, [&](std::size_t lo, std::size_t hi) {
    Workspace ws(n, c);
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
        ws.labels.resize(n);
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
