#ifndef UMVSC_SERVE_BATCH_ASSIGN_H_
#define UMVSC_SERVE_BATCH_ASSIGN_H_

#include <cstddef>
#include <vector>

#include "common/status.h"
#include "data/dataset.h"
#include "serve/registry.h"

namespace umvsc::serve {

/// Out-of-sample assignment against a registry-held model — the serving
/// entry point. It holds a ModelHandle, so the model outlives registry
/// swaps, and answers a b-point batch with one OutOfSampleModel::Predict
/// call. For anchor models that runs the one anchor-assignment driver of
/// mvsc/anchor_assign.h over fixed row tiles: one GemmAdd dot panel per
/// view against anchors packed once at FitAnchor (a one-row batch takes the
/// kernel's 1×16 register route, taller tiles its 4×8 tiles), so labels are
/// bitwise identical to per-point Predict at every batch size and thread
/// count. Exact-path models run their training-point vote
/// through the same call.
///
/// Thread safety: Assign is const and touches only immutable model state —
/// safe to call concurrently on one BatchAssigner.
class BatchAssigner {
 public:
  /// `model` must be non-null (UMVSC_CHECK); typically ModelRegistry::Get.
  explicit BatchAssigner(ModelHandle model);

  /// Labels for every point of `batch`, in row order.
  StatusOr<std::vector<std::size_t>> Assign(
      const data::MultiViewDataset& batch) const;

  const ModelHandle& model() const { return model_; }

 private:
  ModelHandle model_;
};

}  // namespace umvsc::serve

#endif  // UMVSC_SERVE_BATCH_ASSIGN_H_
