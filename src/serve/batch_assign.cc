#include "serve/batch_assign.h"

#include <utility>

#include "common/check.h"

namespace umvsc::serve {

BatchAssigner::BatchAssigner(ModelHandle model) : model_(std::move(model)) {
  UMVSC_CHECK(model_ != nullptr, "BatchAssigner needs a model handle");
}

StatusOr<std::vector<std::size_t>> BatchAssigner::Assign(
    const data::MultiViewDataset& batch) const {
  return model_->Predict(batch);
}

}  // namespace umvsc::serve
