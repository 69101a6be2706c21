#ifndef UMVSC_SERVE_MULTI_FIT_H_
#define UMVSC_SERVE_MULTI_FIT_H_

#include <cstddef>
#include <string>
#include <vector>

#include "common/status.h"
#include "data/dataset.h"
#include "exec/executor.h"
#include "mvsc/graphs.h"
#include "mvsc/out_of_sample.h"
#include "mvsc/unified.h"
#include "serve/registry.h"

namespace umvsc::serve {

/// One tenant's fit request: its training data, solver configuration, and
/// the registry id the resulting serving model installs under.
struct TenantFitSpec {
  std::string model_id;
  /// Non-owning; must outlive the FitTenantModels call.
  const data::MultiViewDataset* training = nullptr;
  /// Solver configuration, including anchors.enabled for the large-scale
  /// path.
  mvsc::UnifiedOptions unified;
  /// Exact-path graph construction; the anchor path reads `standardize`.
  mvsc::GraphOptions graph_options;
  mvsc::OutOfSampleOptions out_of_sample;
  /// Level-2 thread budget of this tenant's job (0 = process default).
  std::size_t thread_budget = 1;
};

/// Per-tenant outcome of a multi-fit, in spec order.
struct TenantFitReport {
  std::string model_id;
  Status status = Status::OK();
};

/// Fits N tenant models concurrently on the executor — one job per spec,
/// all foreground — and installs each finished model in `registry` under
/// its spec's id (ModelRegistry::Insert is thread-safe; installation
/// happens on the worker as each fit lands, so early tenants serve while
/// late ones still solve). Blocks until every job finishes. A failed
/// tenant reports its status and installs nothing; siblings are unaffected
/// (executor exception/status isolation).
///
/// Determinism: each model equals the one a serial loop of the same fits
/// would produce, bitwise, at every worker count and spec order — the
/// executor contract (exec/executor.h).
std::vector<TenantFitReport> FitTenantModels(
    exec::JobExecutor& executor, const std::vector<TenantFitSpec>& specs,
    ModelRegistry* registry);

}  // namespace umvsc::serve

#endif  // UMVSC_SERVE_MULTI_FIT_H_
