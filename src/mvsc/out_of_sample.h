#ifndef UMVSC_MVSC_OUT_OF_SAMPLE_H_
#define UMVSC_MVSC_OUT_OF_SAMPLE_H_

#include <cstddef>
#include <optional>
#include <vector>

#include "common/status.h"
#include "data/dataset.h"
#include "graph/anchors.h"
#include "la/matrix.h"
#include "mvsc/anchor_assign.h"
#include "mvsc/anchor_unified.h"

namespace umvsc::serve {
class ModelSerializer;  // serve/model_io.h — persists OutOfSampleModel
}  // namespace umvsc::serve

namespace umvsc::mvsc {

/// Options for the out-of-sample extension.
struct OutOfSampleOptions {
  /// Neighbors used for both the adaptive bandwidth and the vote.
  std::size_t knn = 10;
};

/// Out-of-sample extension of a fitted multi-view clustering: assigns NEW
/// points to the learned clusters without re-running the solver.
///
/// Mechanism (the standard graph-transduction recipe): the model stores the
/// standardization parameters, the training features, the learned view
/// weights α, and the training labels. A new point is connected to its k
/// nearest training points per view with a self-tuning Gaussian affinity,
/// the per-view affinities are fused with α, and the point takes the
/// cluster with the largest fused affinity mass. Every distance — the
/// training scales (graph::SelfTuningScales) and a batch's distances to the
/// training rows — comes from graph::SquaredDistanceTile, the kernel the
/// exact-path training graphs run.
class OutOfSampleModel {
 public:
  /// Fits the model from the training dataset, the labels produced by any
  /// solver in this library, and the learned view weights (pass uniform
  /// weights for weightless baselines). Training features are standardized
  /// internally; new points are mapped with the SAME statistics.
  static StatusOr<OutOfSampleModel> Fit(const data::MultiViewDataset& training,
                                        const std::vector<std::size_t>& labels,
                                        const std::vector<double>& view_weights,
                                        const OutOfSampleOptions& options = {});

  /// Fits the model from a completed anchor-mode solve
  /// (SolveUnifiedAnchors). Prediction then runs the nearest-anchor
  /// extension: per view, the new point builds its s-sparse anchor row
  /// with graph::AnchorRowTile, the kernel graph::BuildAnchorAffinity runs
  /// (s nearest anchors, self-tuning bandwidth, ties to the smaller anchor
  /// index), so the row is bitwise the training row of the same
  /// standardized point at every feature dimension; it maps that row into
  /// the reduced space through anchor_map, and the concatenated coordinates
  /// score against AnchorModel::assignment; ties in the final row-argmax
  /// keep the smaller cluster index, matching the training discretization.
  /// O(Σ_v m·d_v + p'·c) per point — anchors only, NEVER the training rows —
  /// so a training point re-predicted through this path reproduces its
  /// training label (the anchor path assigns labels through the same chain;
  /// mvsc_out_of_sample_test pins this).
  ///
  /// Every row runs the one anchor-assignment kernel of
  /// mvsc/anchor_assign.h (the training anchor-row kernel, ascending-column
  /// coordinate accumulation, kc-blocked scoring), so a point's label does
  /// not depend on the batch it arrives in, the tile grid, or the thread
  /// count.
  /// FitAnchor packs each view's anchors once (graph::PackRows);
  /// every Predict reads only those packed rows. It rejects a model with a NaN or
  /// Inf in any served array (anchors, anchor_map, standardization,
  /// assignment) — ModelSerializer's loader re-enters here.
  static StatusOr<OutOfSampleModel> FitAnchor(AnchorModel model);

  /// Predicts cluster ids for new points given as a multi-view batch with
  /// the same number and dimensionality of views as the training data
  /// (labels in the batch, if any, are ignored). Anchor models run the
  /// batch in fixed row tiles under ParallelFor, each tile scored in
  /// tile-local scratch; memory does not grow with the batch beyond the
  /// returned labels. Safe to call concurrently on one model.
  StatusOr<std::vector<std::size_t>> Predict(
      const data::MultiViewDataset& batch) const;

  std::size_t num_clusters() const { return num_clusters_; }

  /// The anchor serving model, when this model came from FitAnchor;
  /// nullopt for exact-path models.
  const std::optional<AnchorModel>& anchor_model() const {
    return anchor_model_;
  }

 private:
  /// serve::ModelSerializer reconstructs exact-path models field by field
  /// when loading from disk (anchor-path models re-enter through FitAnchor).
  friend class ::umvsc::serve::ModelSerializer;

  OutOfSampleModel() = default;

  OutOfSampleOptions options_;
  std::size_t num_clusters_ = 0;
  std::vector<std::size_t> labels_;
  std::vector<double> view_weights_;
  /// Standardized training views.
  std::vector<la::Matrix> views_;
  /// Per-view, per-feature standardization parameters.
  std::vector<la::Vector> feature_means_;
  std::vector<la::Vector> feature_inv_stds_;
  /// Per-view self-tuning bandwidth of each training point (k-NN distance).
  std::vector<la::Vector> train_scales_;
  /// When set, Predict routes through the anchor extension instead of the
  /// training-point affinity vote (the O(n)-free serving path).
  std::optional<AnchorModel> anchor_model_;
  /// Per view: ‖a_j‖² and the anchors packed for GemmAdd, derived from
  /// anchor_model_ at FitAnchor time — never serialized.
  std::vector<graph::PackedRows> packed_anchors_;
};

}  // namespace umvsc::mvsc

#endif  // UMVSC_MVSC_OUT_OF_SAMPLE_H_
