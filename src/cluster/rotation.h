#ifndef UMVSC_CLUSTER_ROTATION_H_
#define UMVSC_CLUSTER_ROTATION_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "la/matrix.h"

namespace umvsc::cluster {

/// Options for Yu–Shi spectral rotation / discretization.
struct RotationOptions {
  std::size_t max_iterations = 100;
  /// Stop when the discretization objective ‖Ŷ − F·R‖²_F improves by less
  /// than this (relative).
  double tolerance = 1e-9;
  /// Column-normalize the indicator to Ŷ = Y·(YᵀY)^{−1/2} before the
  /// Procrustes step (the scaled-indicator convention of Yu & Shi).
  bool scale_indicator = true;
  /// Random restarts over the initial rotation; best objective wins.
  std::size_t restarts = 5;
  std::uint64_t seed = 0;
};

/// Result of discretizing a continuous spectral embedding.
struct RotationResult {
  /// Hard labels, one per row of F.
  std::vector<std::size_t> labels;
  /// The binary indicator matrix (n × c, exactly one 1 per row).
  la::Matrix indicator;
  /// The learned orthogonal rotation (c × c).
  la::Matrix rotation;
  /// Final value of ‖Ŷ − F·R‖²_F.
  double objective = 0.0;
  std::size_t iterations = 0;
};

/// Builds the n × c binary indicator of a label vector.
la::Matrix LabelsToIndicator(const std::vector<std::size_t>& labels,
                             std::size_t num_clusters);

/// Column-normalized indicator Ŷ = Y·(YᵀY)^{−1/2} (columns of unit norm;
/// empty columns stay zero).
la::Matrix ScaledIndicator(const la::Matrix& y);

/// The fused tail of a Y-step: overwrites `y_hat` with Ŷ for `labels` —
/// ScaledIndicator(LabelsToIndicator(labels, c)) when `scale_indicator`,
/// else the plain indicator — and returns ‖Ŷ − F·R‖_F for `fr` = F·R, in
/// one row-major pass with no allocation. `counts[j]` must be the number
/// of rows labelled j. `y_hat` must be shaped like `fr` and may be the same
/// matrix (F·R is then replaced by Ŷ). The norm is bitwise equal to
/// la::Add(Ŷ, fr, −1.0).FrobeniusNorm().
double IndicatorResidual(const std::vector<std::size_t>& labels,
                         const std::vector<std::size_t>& counts,
                         bool scale_indicator, const la::Matrix& fr,
                         la::Matrix& y_hat);

/// Yu–Shi discretization: alternately solve
///   Y ← argmin ‖Ŷ − F·R‖²  (row-wise argmax of F·R)
///   R ← argmin ‖Ŷ − F·R‖²  (orthogonal Procrustes on FᵀŶ)
/// until the objective stalls. F must have orthonormal (or at least
/// well-conditioned) columns; requires F.cols() >= 1.
///
/// The restarts run concurrently on the global pool, one n × c workspace
/// per participating thread. Their random streams are split from `seed`
/// in attempt order and the winner is the first attempt to reach the
/// lowest objective, so the result is bitwise identical at every thread
/// count.
StatusOr<RotationResult> DiscretizeEmbedding(const la::Matrix& f,
                                             const RotationOptions& options);

}  // namespace umvsc::cluster

#endif  // UMVSC_CLUSTER_ROTATION_H_
