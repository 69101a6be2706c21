// The anchor fit of mvsc::SolveUnifiedAnchors re-run as the sequence of
// public calls it is made of, with one span per stage — how the traced run
// splits fit_s by layer without touching the library. It mirrors
// mvsc/anchor_unified.cc; when that file changes, the labels stop matching
// and the report marks the stage split stale (trace.labels_match = 0).
#ifndef PERFBENCH_STAGED_FIT_H_
#define PERFBENCH_STAGED_FIT_H_

#include <cstddef>
#include <vector>

#include "data/dataset.h"
#include "mvsc/unified.h"

namespace perfbench {

struct StagedFit {
  bool ok = false;
  std::vector<std::size_t> labels;
  std::size_t iterations = 0;
};

/// Standardize → select anchors → anchor affinity → anchor embedding →
/// column normalization (per view), then joint basis → reduced Laplacians →
/// reduced alternation. Spans: mvsc.standardize, graph.select_anchors,
/// graph.anchor_affinity, cluster.anchor_embedding, mvsc.column_normalize,
/// mvsc.joint_basis, mvsc.reduced_laplacians, mvsc.reduced_alternation.
StagedFit RunStagedAnchorFit(const umvsc::data::MultiViewDataset& dataset,
                             const umvsc::mvsc::UnifiedOptions& options);

}  // namespace perfbench

#endif  // PERFBENCH_STAGED_FIT_H_
