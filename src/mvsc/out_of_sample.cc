#include "mvsc/out_of_sample.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/strings.h"
#include "data/standardize.h"
#include "graph/distance.h"
#include "graph/kernels.h"
#include "mvsc/anchor_assign.h"

namespace umvsc::mvsc {

using data::ApplyStandardization;
using data::ColumnStandardization;

namespace {

bool AllFinite(const double* values, std::size_t count) {
  return std::all_of(values, values + count,
                     [](double x) { return std::isfinite(x); });
}

}  // namespace

StatusOr<OutOfSampleModel> OutOfSampleModel::Fit(
    const data::MultiViewDataset& training,
    const std::vector<std::size_t>& labels,
    const std::vector<double>& view_weights,
    const OutOfSampleOptions& options) {
  UMVSC_RETURN_IF_ERROR(training.Validate());
  const std::size_t n = training.NumSamples();
  const std::size_t num_views = training.NumViews();
  if (labels.size() != n) {
    return Status::InvalidArgument("label count must match training samples");
  }
  if (view_weights.size() != num_views) {
    return Status::InvalidArgument("one view weight per view required");
  }
  for (double w : view_weights) {
    if (!std::isfinite(w) || w < 0.0) {
      return Status::InvalidArgument(
          "view weights must be finite and nonnegative");
    }
  }
  if (options.knn < 1 || options.knn >= n) {
    return Status::InvalidArgument("out-of-sample knn must satisfy 1 <= k < n");
  }

  OutOfSampleModel model;
  model.options_ = options;
  model.labels_ = labels;
  model.view_weights_ = view_weights;
  model.num_clusters_ = *std::max_element(labels.begin(), labels.end()) + 1;

  for (std::size_t v = 0; v < num_views; ++v) {
    la::Vector means, inv_stds;
    ColumnStandardization(training.views[v], &means, &inv_stds);
    la::Matrix standardized =
        ApplyStandardization(training.views[v], means, inv_stds);
    // Self-tuning bandwidth per training point: distance to its k-th NN,
    // by the same selection and distance kernel as the training graphs.
    StatusOr<la::Vector> scales = graph::SelfTuningScales(
        graph::PackRows(standardized), standardized, options.knn);
    if (!scales.ok()) return scales.status();
    model.views_.push_back(std::move(standardized));
    model.feature_means_.push_back(std::move(means));
    model.feature_inv_stds_.push_back(std::move(inv_stds));
    model.train_scales_.push_back(std::move(*scales));
  }
  return model;
}

StatusOr<OutOfSampleModel> OutOfSampleModel::FitAnchor(AnchorModel model) {
  if (model.views.empty()) {
    return Status::InvalidArgument("anchor model has no views");
  }
  if (model.num_clusters < 2) {
    return Status::InvalidArgument("anchor model needs at least two clusters");
  }
  if (model.assignment.rows() == 0 ||
      model.assignment.cols() != model.num_clusters) {
    return Status::InvalidArgument(
        "anchor model assignment must have one column per cluster");
  }
  std::size_t total_dims = 0;
  for (std::size_t v = 0; v < model.views.size(); ++v) {
    const AnchorViewModel& view = model.views[v];
    const std::size_t m = view.anchors.rows();
    if (m == 0 || view.anchors.cols() == 0) {
      return Status::InvalidArgument(
          StrFormat("anchor model view %zu has no anchors", v));
    }
    if (view.anchor_map.rows() != m || view.anchor_map.cols() == 0) {
      return Status::InvalidArgument(
          StrFormat("anchor model view %zu map must have one row per anchor",
                    v));
    }
    if (view.feature_means.size() != view.anchors.cols() ||
        view.feature_inv_stds.size() != view.anchors.cols()) {
      return Status::InvalidArgument(
          StrFormat("anchor model view %zu standardization size mismatch", v));
    }
    if (model.anchor_neighbors < 1 || model.anchor_neighbors > m) {
      return Status::InvalidArgument(
          StrFormat("anchor model neighbors must satisfy 1 <= s <= %zu", m));
    }
    total_dims += view.anchor_map.cols();
  }
  if (model.assignment.rows() != total_dims) {
    return Status::InvalidArgument(
        "anchor model assignment rows must match concatenated view dims");
  }
  // A NaN or Inf anywhere would serve silently wrong labels (a NaN distance
  // never wins a comparison), so reject it here — the loader re-enters
  // through FitAnchor, so a corrupt file is rejected too.
  for (std::size_t v = 0; v < model.views.size(); ++v) {
    const AnchorViewModel& view = model.views[v];
    if (!AllFinite(view.anchors.data(), view.anchors.size()) ||
        !AllFinite(view.anchor_map.data(), view.anchor_map.size()) ||
        !AllFinite(view.feature_means.data(), view.feature_means.size()) ||
        !AllFinite(view.feature_inv_stds.data(),
                   view.feature_inv_stds.size())) {
      return Status::InvalidArgument(
          StrFormat("anchor model view %zu has a non-finite value", v));
    }
  }
  if (!AllFinite(model.assignment.data(), model.assignment.size())) {
    return Status::InvalidArgument(
        "anchor model assignment has a non-finite value");
  }

  OutOfSampleModel out;
  out.num_clusters_ = model.num_clusters;
  out.anchor_model_ = std::move(model);
  out.packed_anchors_.reserve(out.anchor_model_->views.size());
  for (const AnchorViewModel& view : out.anchor_model_->views) {
    out.packed_anchors_.push_back(graph::PackRows(view.anchors));
  }
  return out;
}

StatusOr<std::vector<std::size_t>> OutOfSampleModel::Predict(
    const data::MultiViewDataset& batch) const {
  UMVSC_RETURN_IF_ERROR(batch.Validate());
  if (anchor_model_) {
    const AnchorModel& model = *anchor_model_;
    if (batch.NumViews() != model.views.size()) {
      return Status::InvalidArgument(
          StrFormat("batch has %zu views, model expects %zu", batch.NumViews(),
                    model.views.size()));
    }
    for (std::size_t v = 0; v < model.views.size(); ++v) {
      if (batch.views[v].cols() != model.views[v].anchors.cols()) {
        return Status::InvalidArgument(
            StrFormat("view %zu has %zu features, model expects %zu", v,
                      batch.views[v].cols(), model.views[v].anchors.cols()));
      }
    }
    const std::size_t s = model.anchor_neighbors;
    const std::size_t p = model.assignment.rows();
    const std::size_t c = model.num_clusters;
    std::vector<std::size_t> predictions(batch.NumSamples(), 0);
    assign::ForEachTile(
        batch.NumSamples(), [&](std::size_t begin, std::size_t end) {
          // Tile-local scratch, reused across every tile this thread runs:
          // the tile's anchor rows and its concatenated coordinates
          // [u_1 | … | u_V], rows × p'.
          static thread_local std::vector<std::size_t> cols;
          static thread_local std::vector<double> weights, coords, scores;
          const std::size_t rows = end - begin;
          cols.resize(rows * s);
          weights.resize(rows * s);
          coords.resize(rows * p);
          scores.resize(c);
          std::size_t base = 0;
          for (std::size_t v = 0; v < model.views.size(); ++v) {
            assign::AssignRows(model.views[v], packed_anchors_[v], s,
                               batch.views[v].RowPtr(begin), rows, cols.data(),
                               weights.data(), coords.data() + base, p);
            base += model.views[v].anchor_map.cols();
          }
          for (std::size_t i = 0; i < rows; ++i) {
            std::fill(scores.begin(), scores.end(), 0.0);
            assign::BlockedVecMatAdd(coords.data() + i * p, model.assignment,
                                     scores.data());
            predictions[begin + i] = assign::RowArgMax(scores.data(), c);
          }
        });
    return predictions;
  }
  if (batch.NumViews() != views_.size()) {
    return Status::InvalidArgument(
        StrFormat("batch has %zu views, model expects %zu", batch.NumViews(),
                  views_.size()));
  }
  for (std::size_t v = 0; v < views_.size(); ++v) {
    if (batch.views[v].cols() != views_[v].cols()) {
      return Status::InvalidArgument(
          StrFormat("view %zu has %zu features, model expects %zu", v,
                    batch.views[v].cols(), views_[v].cols()));
    }
  }

  const std::size_t m = batch.NumSamples();
  const std::size_t n = views_.front().rows();
  const std::size_t k = options_.knn;
  std::vector<std::size_t> predictions(m, 0);

  // Fused affinity of each new point to every training point.
  la::Matrix fused(m, n);
  la::Matrix d2(m, n);
  std::vector<double> copy(n);
  for (std::size_t v = 0; v < views_.size(); ++v) {
    if (view_weights_[v] == 0.0) continue;
    la::Matrix x = ApplyStandardization(batch.views[v], feature_means_[v],
                                        feature_inv_stds_[v]);
    // Squared distances from every new point to every training point: one
    // tile of queries against the training rows, on the kernel the
    // training graph and scales ran.
    graph::SquaredDistanceTile(graph::PackRows(views_[v]), x.data(), m,
                               d2.data());
    for (std::size_t i = 0; i < m; ++i) {
      // Self-tuning bandwidth of the new point: its k-th NN distance.
      const double* row = d2.RowPtr(i);
      copy.assign(row, row + n);
      std::nth_element(copy.begin(), copy.begin() + (k - 1), copy.end());
      const double own_scale = std::sqrt(std::max(copy[k - 1], 1e-300));
      double* out = fused.RowPtr(i);
      for (std::size_t t = 0; t < n; ++t) {
        out[t] += view_weights_[v] *
                  std::exp(-row[t] / (own_scale * train_scales_[v][t]));
      }
    }
  }

  // Vote: strongest fused affinity mass among the k nearest training points.
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < m; ++i) {
    std::iota(order.begin(), order.end(), std::size_t{0});
    const double* row = fused.RowPtr(i);
    std::partial_sort(order.begin(), order.begin() + k, order.end(),
                      [&](std::size_t a, std::size_t b) {
                        return row[a] > row[b];
                      });
    std::vector<double> votes(num_clusters_, 0.0);
    for (std::size_t a = 0; a < k; ++a) {
      votes[labels_[order[a]]] += row[order[a]];
    }
    predictions[i] = static_cast<std::size_t>(
        std::max_element(votes.begin(), votes.end()) - votes.begin());
  }
  return predictions;
}

}  // namespace umvsc::mvsc
