#include "serve/multi_fit.h"

#include <utility>

#include "mvsc/anchor_unified.h"

namespace umvsc::serve {

namespace {

Status FitOneTenant(const TenantFitSpec& spec, ModelRegistry* registry) {
  if (spec.training == nullptr) {
    return Status::InvalidArgument("tenant spec has no training dataset");
  }
  const mvsc::UnifiedOptions& options = spec.unified;

  StatusOr<mvsc::OutOfSampleModel> model =
      Status::Internal("tenant fit did not run");
  if (options.anchors.enabled) {
    // Large-scale path: the anchor solve yields the serving model directly
    // (assignment touches anchors only, never the training rows).
    StatusOr<mvsc::AnchorUnifiedResult> solved = mvsc::SolveUnifiedAnchors(
        *spec.training, options, spec.graph_options.standardize);
    if (!solved.ok()) return solved.status();
    model = mvsc::OutOfSampleModel::FitAnchor(std::move(solved->model));
  } else {
    const mvsc::UnifiedMVSC solver(options);
    StatusOr<mvsc::UnifiedResult> solved =
        solver.Run(*spec.training, spec.graph_options);
    if (!solved.ok()) return solved.status();
    model = mvsc::OutOfSampleModel::Fit(*spec.training, solved->labels,
                                        solved->view_weights,
                                        spec.out_of_sample);
  }
  if (!model.ok()) return model.status();
  if (registry != nullptr) {
    registry->Insert(spec.model_id, std::move(*model));
  }
  return Status::OK();
}

}  // namespace

std::vector<TenantFitReport> FitTenantModels(
    exec::JobExecutor& executor, const std::vector<TenantFitSpec>& specs,
    ModelRegistry* registry) {
  std::vector<exec::JobHandle> handles;
  handles.reserve(specs.size());
  for (const TenantFitSpec& spec : specs) {
    exec::JobSpec job;
    job.name = "fit:" + spec.model_id;
    job.thread_budget = spec.thread_budget;
    // The spec vector outlives the blocking Await loop below, so the jobs
    // may hold references into it.
    job.work = [&spec, registry](exec::JobContext&) {
      return FitOneTenant(spec, registry);
    };
    handles.push_back(executor.Submit(std::move(job)));
  }
  std::vector<TenantFitReport> reports(specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    reports[i].model_id = specs[i].model_id;
    reports[i].status = handles[i].Await();
  }
  return reports;
}

}  // namespace umvsc::serve
