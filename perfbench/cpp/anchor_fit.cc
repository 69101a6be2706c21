// anchor_fit: SolveUnifiedAnchors at n = 200 000 on the scale_sweep
// generator, three data sets per run. At this size anchor selection,
// affinity, embedding and the reduced alternation are each long enough to
// time. Set 0 is scale_sweep's own n = 200 000 data: the case that hits the
// iteration cap at ARI 0.8387, so a fix of that defect shows in `ari` and
// `fit_s`. The three sets are the same for every seed. With sets 1 and 2
// drawn from the seed, their iteration counts (3 to 15) spread one set's fit
// time by 27% and its throughput by 32% across ten seeds, past any usable
// bound; drawn from all three, a slow low-ARI set came up only now and then.
#include <algorithm>
#include <string>
#include <vector>

#include "data/synthetic.h"
#include "harness.h"
#include "mvsc/anchor_unified.h"
#include "staged_fit.h"

namespace perfbench {

namespace {

constexpr std::size_t kPoints = 200000;
constexpr std::size_t kSets = 3;

}  // namespace

int RunAnchorFit(const Args& args, Record* record) {
  using namespace umvsc;
  mvsc::UnifiedOptions options;
  options.num_clusters = 5;
  options.seed = 3;
  options.anchors.enabled = true;
  options.anchors.num_anchors = 256;
  options.anchors.anchor_neighbors = 5;

  // The auto-dispatched eigensolves are the reduced ones, p × p with
  // p = 2 views × (c + 2), for c pairs; the 256 × 256 anchor embeddings
  // solve densely.
  CommonSetup(args, 1, {{14, 5}}, record);

  const double t0 = Now();
  std::vector<data::MultiViewDataset> sets;
  for (std::size_t i = 0; i < kSets; ++i) {
    data::MultiViewConfig config;
    config.name = "scale_sweep";
    config.num_samples = kPoints;
    config.num_clusters = 5;
    config.cluster_separation = 6.0;
    config.views = {{8, data::ViewQuality::kInformative, 1.0, 0.0},
                    {6, data::ViewQuality::kInformative, 1.0, 0.0}};
    // scale_sweep seeds its n-point data with 71 + n.
    config.seed = 71 + kPoints + 1000 * i;
    StatusOr<data::MultiViewDataset> dataset =
        data::MakeGaussianMultiView(config);
    record->Op(dataset.ok(), "generate set " + std::to_string(i));
    if (!dataset.ok()) return 1;
    sets.push_back(*std::move(dataset));
  }
  record->Set("data.generate_s", Now() - t0);
  record->SetupDone();
  if (args.setup_only) return 0;

  double ari_min = 1.0, matvecs = 0.0, iterations = 0.0;
  std::vector<std::vector<std::size_t>> fit_labels;
  for (std::size_t i = 0; i < kSets; ++i) {
    RequestScope request(static_cast<std::int64_t>(i));
    const double c0 = Now();
    StatusOr<mvsc::AnchorUnifiedResult> solved = [&] {
      Span span("mvsc.fit");
      return mvsc::SolveUnifiedAnchors(sets[i], options);
    }();
    const double fit_s = Now() - c0;
    record->Add("fit_s", fit_s);
    record->Samples("set_fit_s").push_back(fit_s);
    record->Samples("set_pts_per_s").push_back(kPoints / fit_s);
    record->Op(solved.ok(), "SolveUnifiedAnchors on set " + std::to_string(i));
    if (!solved.ok()) return 1;
    const double ari = Ari(solved->result.labels, sets[i].labels);
    const std::string set = "set" + std::to_string(i);
    record->Set("mvsc.ari." + set, ari);
    record->Set("mvsc.iterations." + set, solved->result.iterations);
    ari_min = std::min(ari_min, ari);
    iterations = std::max(iterations,
                          static_cast<double>(solved->result.iterations));
    matvecs += static_cast<double>(solved->result.lanczos_matvecs);
    fit_labels.push_back(std::move(solved->result.labels));
  }
  record->Set("ari", ari_min);
  record->Set("mvsc.iterations", iterations);
  record->Set("la.matvecs_per_fit", matvecs / kSets);

  if (kTraced) {
    bool match = true;
    for (std::size_t i = 0; i < kSets; ++i) {
      RequestScope request(static_cast<std::int64_t>(i));
      StagedFit staged = RunStagedAnchorFit(sets[i], options);
      record->Op(staged.ok, "staged anchor fit on set " + std::to_string(i));
      match = match && staged.labels == fit_labels[i];
    }
    record->Set("trace.labels_match", match ? 1 : 0);
  }
  return 0;
}

}  // namespace perfbench
