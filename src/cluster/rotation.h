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

/// How a Y-step discretizes F·R.
struct YStepOptions {
  /// Ŷ = Y·(YᵀY)^{−1/2} (ScaledIndicator) instead of the plain indicator.
  bool scale_indicator = true;
  /// After the argmax, an empty column j steals the row with the largest
  /// F·R(:, j) among rows whose cluster keeps >= 2 members, columns in
  /// ascending order (the unified alternation's rule; the rotation search
  /// leaves columns empty).
  bool repair_empty = false;
  /// Form AᵀŶ into YStepBuffers::proj. Off, proj is left as it was: the
  /// exact alternation reads Ŷ itself and skips that pass.
  bool project = true;
};

/// Caller-owned storage of YStep. The first call shapes every member and
/// later calls of the same shape reuse it, so a loop of Y-steps allocates
/// nothing n-sized.
struct YStepBuffers {
  /// Ŷ (n × c); F·R is formed here first and overwritten in place.
  la::Matrix y_hat;
  /// AᵀŶ (k × c): BᵀŶ on the reduced path, FᵀŶ in the rotation search
  /// (written only when YStepOptions::project is set).
  la::Matrix proj;
  /// Row argmax of F·R (the first maximum wins), after any repair.
  std::vector<std::size_t> labels;
  /// Cluster sizes of `labels`.
  std::vector<std::size_t> counts;
};

/// One Y-step of the discretization, fused: F·R, its row argmax, Ŷ, the
/// residual ‖Ŷ − F·R‖_F (returned) and AᵀŶ. With `g` (k × c) the
/// embedding is F = A·G (the reduced path, A = B), formed block by block
/// and never stored; without, F = A itself (k = c). `r` is the c × c
/// rotation.
///
/// Bitwise equal to the unfused sequence MatMul(A, G) → MatMul(F, R) →
/// argmax (+ repair) → ScaledIndicator(LabelsToIndicator(labels, c)) →
/// la::Add(Ŷ, F·R, −1).FrobeniusNorm() → MatTMul(A, Ŷ), at every thread
/// count. Pass A cuts the rows into the 256-row blocks of GEMM's kc grid
/// and, per block under ParallelFor, forms F and F·R with kernel::GemmAdd
/// and takes the argmax while the block is in cache. Pass B runs the
/// residual's serial scale/ssq recurrence (writing Ŷ) beside the AᵀŶ
/// partials: one per block, summed over the labelled rows only (the zero
/// terms of a one-hot row add nothing to a partial that starts at +0, for
/// finite A) and folded in ascending block order, GemmAdd's own order.
double YStep(const la::Matrix& a, const la::Matrix* g, const la::Matrix& r,
             const YStepOptions& options, YStepBuffers& out);

/// Yu–Shi discretization: alternately solve
///   Y ← argmin ‖Ŷ − F·R‖²  (row-wise argmax of F·R)
///   R ← argmin ‖Ŷ − F·R‖²  (orthogonal Procrustes on FᵀŶ)
/// until the objective stalls. F must have orthonormal (or at least
/// well-conditioned) columns; requires F.cols() >= 1.
///
/// The restarts run concurrently on the global pool, one YStepBuffers per
/// participating thread; a sweep is one YStep and one Procrustes solve.
/// Their random streams are split from `seed` in attempt order and the
/// winner is the first attempt to reach the lowest objective, so the
/// result is bitwise identical at every thread count.
StatusOr<RotationResult> DiscretizeEmbedding(const la::Matrix& f,
                                             const RotationOptions& options);

}  // namespace umvsc::cluster

#endif  // UMVSC_CLUSTER_ROTATION_H_
