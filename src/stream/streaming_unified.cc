#include "stream/streaming_unified.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>

#include "common/strings.h"
#include "la/ops.h"
#include "la/sparse.h"
#include "mvsc/anchor_assign.h"
#include "mvsc/reduced_solve.h"

namespace umvsc::stream {

namespace {

// Absolute floor on a per-view smoothness baseline: a view whose h_v was
// essentially zero at the last full solve must not fire the detector on
// numerical noise. h_v = Tr(GᵀH_vG) lives in [0, c], so the floor scales
// with the cluster count.
double SmoothnessFloor(std::size_t num_clusters) {
  return 0.02 * static_cast<double>(num_clusters);
}

// Budgets of a warm incremental update: the carried (G, R, α) already sits
// near the fixed point, so one init eigensolve↔weight alternation and a few
// outer G/R/Y/α iterations suffice (the cold batch budgets come from
// StreamingOptions::unified).
constexpr std::size_t kUpdateInitAlternations = 1;
constexpr std::size_t kUpdateMaxIterations = 8;

// Drift triggers, checked after every incremental update against the
// baselines recorded at the last full solve. Relative growth of the unified
// objective beyond kObjectiveDriftTolerance forces a full re-solve (the
// baseline carries the SmoothnessFloor, so a near-zero objective — excellent
// clustering — cannot fire the detector on noise-width fluctuations). Same,
// per view: growth of any smoothness h_v = Tr(GᵀH_vG) beyond
// kSmoothnessDriftTolerance (relative to its floored baseline) re-solves.
constexpr double kObjectiveDriftTolerance = 0.25;
constexpr double kSmoothnessDriftTolerance = 0.60;

}  // namespace

StatusOr<StreamingUnifiedMVSC> StreamingUnifiedMVSC::Create(
    const StreamingOptions& options) {
  if (options.window_capacity < 2) {
    return Status::InvalidArgument("window_capacity must be at least 2");
  }
  UMVSC_RETURN_IF_ERROR(
      mvsc::ValidateUnifiedOptions(options.unified, /*anchored=*/true));
  StreamingUnifiedMVSC s;
  s.options_ = options;
  return s;
}

std::size_t StreamingUnifiedMVSC::view_basis_dims(std::size_t view) const {
  UMVSC_CHECK(view < views_.size(), "view index out of range");
  return views_[view].model.anchor_map.cols();
}

Status StreamingUnifiedMVSC::CheckBatch(
    const data::MultiViewDataset& batch) const {
  if (batch.NumSamples() == 0) {
    return Status::InvalidArgument("empty batch");
  }
  if (views_.empty()) return Status::OK();  // first batch fixes the schema
  if (batch.NumViews() != views_.size()) {
    return Status::InvalidArgument(
        StrFormat("batch has %zu views, the stream %zu", batch.NumViews(),
                  views_.size()));
  }
  for (std::size_t v = 0; v < views_.size(); ++v) {
    if (batch.views[v].cols() != views_[v].dim) {
      return Status::InvalidArgument(
          StrFormat("view %zu has %zu features, the stream %zu", v,
                    batch.views[v].cols(), views_[v].dim));
    }
  }
  return Status::OK();
}

void StreamingUnifiedMVSC::AppendRaw(const data::MultiViewDataset& batch) {
  if (views_.empty()) {
    views_.resize(batch.NumViews());
    for (std::size_t v = 0; v < views_.size(); ++v) {
      views_[v].dim = batch.views[v].cols();
    }
  }
  const std::size_t b = batch.NumSamples();
  for (std::size_t v = 0; v < views_.size(); ++v) {
    const la::Matrix& x = batch.views[v];
    views_[v].raw.insert(views_[v].raw.end(), x.data(),
                         x.data() + b * views_[v].dim);
  }
  rows_ += b;
}

void StreamingUnifiedMVSC::ExtendRows(std::size_t first_row) {
  const std::size_t s = options_.unified.anchors.anchor_neighbors;
  const std::size_t fresh = rows_ - first_row;
  for (ViewState& view : views_) {
    // Grow the flat model arrays by the fresh rows, then fill them with the
    // anchor-assignment kernel — the serving path, whose anchor rows are
    // bitwise those of the batched training path at every feature dimension.
    const std::size_t d = view.dim;
    const std::size_t k = view.model.anchor_map.cols();
    const std::size_t at = view.z_cols.size() / s;
    view.z_cols.resize((at + fresh) * s);
    view.z_vals.resize((at + fresh) * s);
    view.u.resize((at + fresh) * k);
    const double* raw = view.raw.data() + (head_ + first_row) * d;
    mvsc::assign::ForEachTile(fresh, [&](std::size_t begin, std::size_t end) {
      mvsc::assign::AssignRows(view.model, view.packed_anchors, s,
                               raw + begin * d, end - begin,
                               view.z_cols.data() + (at + begin) * s,
                               view.z_vals.data() + (at + begin) * s,
                               view.u.data() + (at + begin) * k, k);
    });
  }
}

void StreamingUnifiedMVSC::Evict(std::size_t count) {
  head_ += count;
  rows_ -= count;
  if (head_ == 0 || head_ < rows_) return;
  // Dead space reached the live window: compact every flat array by its own
  // stride (amortized O(1) per ingested row).
  CompactWindow();
}

void StreamingUnifiedMVSC::CompactWindow() {
  if (head_ == 0) return;
  for (ViewState& view : views_) {
    auto drop = [&](auto& vec, std::size_t stride) {
      const std::size_t len = std::min(head_ * stride, vec.size());
      vec.erase(vec.begin(), vec.begin() + static_cast<std::ptrdiff_t>(len));
    };
    drop(view.raw, view.dim);
    drop(view.z_cols, options_.unified.anchors.anchor_neighbors);
    drop(view.z_vals, options_.unified.anchors.anchor_neighbors);
    drop(view.u, view.model.anchor_map.cols());
  }
  head_ = 0;
}

Status StreamingUnifiedMVSC::SolveWindow(
    const mvsc::UnifiedOptions& solve_options, bool warm,
    StreamingUpdateResult* out) {
  const std::size_t c = solve_options.num_clusters;
  const std::size_t s = options_.unified.anchors.anchor_neighbors;
  const std::size_t num_views = views_.size();

  // Joint basis over the window from the flat per-view embedding rows.
  std::size_t p_full = 0;
  for (const ViewState& view : views_) p_full += view.model.anchor_map.cols();
  la::Matrix concat(rows_, p_full);
  std::size_t col0 = 0;
  for (const ViewState& view : views_) {
    const std::size_t k = view.model.anchor_map.cols();
    for (std::size_t i = 0; i < rows_; ++i) {
      const double* src = view.u.data() + (head_ + i) * k;
      std::copy(src, src + k, concat.RowPtr(i) + col0);
    }
    col0 += k;
  }
  // Warm payload: carried F rows are concat·extend_ for EVERY window row
  // (survivors by construction — B·G = concat·mix·G — and fresh rows by the
  // same formula, which is exactly the out-of-sample extension of the
  // previous solve); projected into the new basis below as the Lanczos
  // seed. Formed first because the builder consumes concat.
  const bool use_warm = warm && extend_.rows() == p_full && extend_.cols() == c;
  la::Matrix f_warm;
  if (use_warm) f_warm = la::MatMul(concat, extend_);

  // Each view's window rows, read in place from the flat arrays; the
  // builder recomputes the degree normalization from them, so it tracks the
  // LIVE window rather than the solve-time masses.
  std::vector<mvsc::AnchorRows> rows(num_views);
  for (std::size_t v = 0; v < num_views; ++v) {
    const ViewState& view = views_[v];
    rows[v] = {view.z_cols.data() + head_ * s, view.z_vals.data() + head_ * s,
               view.model.anchors.rows()};
  }
  StatusOr<mvsc::ReducedProblem> problem =
      mvsc::BuildReducedProblem(std::move(concat), s, rows, c);
  if (!problem.ok()) return problem.status();

  mvsc::ReducedWarmStart warm_state;
  mvsc::ReducedSolveControls controls;
  if (use_warm) {
    warm_state.g = la::MatTMul(problem->basis, f_warm);
    warm_state.rotation = rotation_;
    warm_state.weight_coefficients = weight_coefficients_;
    controls.warm = &warm_state;
  }

  mvsc::UnifiedResult ures;
  StatusOr<mvsc::ReducedSolveState> state = mvsc::SolveReducedAlternation(
      problem->laplacians, problem->basis, solve_options, controls, &ures);
  if (!state.ok()) return state.status();

  extend_ = la::MatMul(problem->mix, state->g);
  rotation_ = state->rotation;
  weight_coefficients_ = state->weight_coefficients;
  labels_ = std::move(ures.labels);

  out->labels = labels_;
  out->window_size = rows_;
  out->objective = state->objective;
  out->view_smoothness = state->smoothness;
  out->view_weights = ures.view_weights;
  out->lanczos_matvecs += ures.lanczos_matvecs;
  return Status::OK();
}

Status StreamingUnifiedMVSC::FullResolve(const std::string& reason,
                                         StreamingUpdateResult* out) {
  // Compact so the flat arrays and the matrices built from them share row 0.
  CompactWindow();

  // Re-select anchors and re-fit the standardization from the raw rows
  // retained in the window: the batch solver's per-view fit, with the
  // anchor seed advanced per full solve so a re-solve samples fresh anchors.
  // basis_per_view = 0 resolves against the CURRENT cluster count there, so
  // a cluster-count change flows into this solve.
  const mvsc::UnifiedOptions& uopts = options_.unified;
  const std::size_t s = uopts.anchors.anchor_neighbors;
  for (std::size_t v = 0; v < views_.size(); ++v) {
    ViewState& view = views_[v];
    la::Matrix x(rows_, view.dim);
    std::copy(view.raw.begin(), view.raw.begin() + rows_ * view.dim,
              x.data());
    const std::uint64_t anchor_seed =
        uopts.seed + 211 * (v + 1) + 10007 * full_resolves_;
    StatusOr<mvsc::AnchorViewFit> fit =
        mvsc::FitAnchorView(std::move(x), uopts, anchor_seed,
                            /*standardize=*/true, &out->lanczos_matvecs);
    if (!fit.ok()) return fit.status();
    const la::CsrMatrix& z = fit->z;
    for (std::size_t i = 0; i < rows_; ++i) {
      if (z.row_offsets()[i + 1] - z.row_offsets()[i] != s) {
        return Status::Internal(
            "anchor affinity row is not uniformly s-sparse");
      }
    }
    view.z_cols.assign(z.col_indices().begin(), z.col_indices().end());
    view.z_vals.assign(z.values().begin(), z.values().end());
    // The embedding is anchor_map.cols() wide: the stride every reader of
    // u uses.
    view.u.assign(fit->embedding.data(),
                  fit->embedding.data() + fit->embedding.size());
    view.model = std::move(fit->model);
    view.packed_anchors = graph::PackRows(view.model.anchors);
  }

  UMVSC_RETURN_IF_ERROR(SolveWindow(uopts, /*warm=*/false, out));
  baseline_objective_ = out->objective;
  baseline_smoothness_ = out->view_smoothness;
  model_ready_ = true;
  pending_full_resolve_ = false;
  pending_reason_.clear();
  ++full_resolves_;
  out->full_resolve = true;
  out->resolve_reason = reason;
  return Status::OK();
}

Status StreamingUnifiedMVSC::IncrementalUpdate(StreamingUpdateResult* out) {
  mvsc::UnifiedOptions upd = options_.unified;
  if (options_.warm_updates) {
    upd.init_alternations = kUpdateInitAlternations;
    upd.max_iterations = kUpdateMaxIterations;
  }
  UMVSC_RETURN_IF_ERROR(SolveWindow(upd, options_.warm_updates, out));
  ++incremental_updates_;

  // Drift detection against the last full solve's baselines: relative
  // growth of the global objective, or of any per-view smoothness, past
  // its tolerance re-solves from scratch (re-selecting anchors).
  std::string reason;
  const double floor = SmoothnessFloor(options_.unified.num_clusters);
  const double obj_base = std::max(std::fabs(baseline_objective_), floor);
  if (out->objective - baseline_objective_ >
      kObjectiveDriftTolerance * obj_base) {
    reason = "drift:objective";
  } else {
    for (std::size_t v = 0; v < out->view_smoothness.size(); ++v) {
      const double base =
          v < baseline_smoothness_.size() ? baseline_smoothness_[v] : 0.0;
      if (out->view_smoothness[v] - base >
          kSmoothnessDriftTolerance * std::max(base, floor)) {
        reason = "drift:view-smoothness";
        break;
      }
    }
  }
  if (!reason.empty()) {
    return FullResolve(reason, out);
  }
  return Status::OK();
}

StatusOr<StreamingUpdateResult> StreamingUnifiedMVSC::Ingest(
    const data::MultiViewDataset& batch) {
  UMVSC_RETURN_IF_ERROR(batch.Validate());
  UMVSC_RETURN_IF_ERROR(CheckBatch(batch));
  const std::size_t b = batch.NumSamples();
  AppendRaw(batch);

  StreamingUpdateResult out;
  const bool full = !model_ready_ || options_.always_full_resolve ||
                    pending_full_resolve_;
  if (!full) ExtendRows(rows_ - b);
  const std::size_t evict =
      rows_ > options_.window_capacity ? rows_ - options_.window_capacity : 0;
  Evict(evict);
  out.evicted = evict;

  if (full) {
    std::string reason = "first-batch";
    if (model_ready_) {
      reason = pending_full_resolve_ ? pending_reason_ : "oracle";
    }
    UMVSC_RETURN_IF_ERROR(FullResolve(reason, &out));
  } else {
    UMVSC_RETURN_IF_ERROR(IncrementalUpdate(&out));
  }
  return out;
}

Status StreamingUnifiedMVSC::SetNumClusters(std::size_t num_clusters) {
  mvsc::UnifiedOptions updated = options_.unified;
  updated.num_clusters = num_clusters;
  UMVSC_RETURN_IF_ERROR(
      mvsc::ValidateUnifiedOptions(updated, /*anchored=*/true));
  if (num_clusters == options_.unified.num_clusters) return Status::OK();
  options_.unified.num_clusters = num_clusters;
  // The carried state is dimensioned for the old count; drop it and force
  // the next Ingest through a full re-solve, where every derived dimension
  // (including the basis_per_view=0 default) is re-resolved.
  extend_ = la::Matrix();
  rotation_ = la::Matrix();
  weight_coefficients_.clear();
  pending_full_resolve_ = true;
  pending_reason_ = "cluster-count-change";
  return Status::OK();
}

}  // namespace umvsc::stream
