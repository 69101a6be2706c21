// stream_replay: the stream_sweep drift stream through StreamingUnifiedMVSC,
// incremental track only. `stream` and its drift detector do nearly all the
// work, and no other workload enters that layer. The stream is stationary
// until batch 24, so re-solves before it are false positives of the
// detector.
//
// The stream is the same for every --seed. Its full re-solve count is
// chaotic: in trials, shuffling the rows inside each batch moved it between
// 10 and 20, and other generator seeds between 10 and 18, so a per-seed
// stream would spread the stream's fit_s across runs by more than any usable
// bound. The fixed replay keeps it steady and the detector's false positives
// in full view.
#include <string>
#include <vector>

#include "data/synthetic.h"
#include "harness.h"
#include "stream/streaming_unified.h"

namespace perfbench {

namespace {

constexpr std::size_t kBatchSize = 2500;
constexpr std::size_t kBatches = 40;
constexpr std::size_t kWindow = 50000;
constexpr std::size_t kDriftStart = 24;

}  // namespace

int RunStreamReplay(const Args& args, Record* record) {
  using namespace umvsc;
  data::DriftStreamConfig config;
  config.name = "stream_replay";
  config.batch_size = kBatchSize;
  config.num_clusters = 5;
  config.views = {{10, data::ViewQuality::kInformative, 0.5},
                  {8, data::ViewQuality::kInformative, 0.8},
                  {6, data::ViewQuality::kWeak, 1.0}};
  config.cluster_separation = 6.0;
  config.heavy_tail = 0.5;
  config.drift_rate = 0.08;
  config.drift_start_batch = kDriftStart;
  config.seed = 29;

  stream::StreamingOptions options;
  options.unified.num_clusters = 5;
  options.unified.seed = 3;
  options.unified.anchors.num_anchors = 256;
  options.unified.anchors.anchor_neighbors = 5;
  options.window_capacity = kWindow;

  // The auto-dispatched eigensolves are the reduced ones, p × p with
  // p = 3 views × (c + 2), for c pairs; the 256 × 256 anchor embeddings
  // solve densely.
  CommonSetup(args, 1, {{21, 5}}, record);

  double t0 = Now();
  std::vector<data::MultiViewDataset> batches;
  StatusOr<data::DriftStreamGenerator> generator =
      data::DriftStreamGenerator::Create(config);
  record->Op(generator.ok(), "create drift stream");
  if (!generator.ok()) return 1;
  for (std::size_t t = 0; t < kBatches; ++t) {
    StatusOr<data::MultiViewDataset> batch = generator->NextBatch();
    record->Op(batch.ok(), "generate batch");
    if (!batch.ok()) return 1;
    batches.push_back(*std::move(batch));
  }
  record->Set("data.generate_s", Now() - t0);
  StatusOr<stream::StreamingUnifiedMVSC> stream =
      stream::StreamingUnifiedMVSC::Create(options);
  record->Op(stream.ok(), "StreamingUnifiedMVSC::Create");
  if (!stream.ok()) return 1;
  record->SetupDone();
  if (args.setup_only) return 0;

  std::vector<std::size_t> truth_window;
  std::vector<double>& resolve_ms = record->Samples("resolve_ms");
  std::vector<double>& update_ms = record->Samples("update_ms");
  std::vector<double>& resolve_pts_per_s =
      record->Samples("resolve_pts_per_s");
  double ari_sum = 0.0;
  double resolve_matvecs = 0.0, update_matvecs = 0.0;
  std::size_t resolves = 0, before_drift = 0;
  double detect_delay = -1.0;
  for (std::size_t t = 0; t < kBatches; ++t) {
    RequestScope request(static_cast<std::int64_t>(t));
    const double c0 = Now();
    StatusOr<stream::StreamingUpdateResult> update = [&] {
      Span span("stream.ingest");
      return stream->Ingest(batches[t]);
    }();
    const double ms = (Now() - c0) * 1e3;
    record->Add("stream_s", ms / 1e3);
    record->Op(update.ok(), "Ingest batch " + std::to_string(t));
    if (!update.ok()) return 1;
    truth_window.insert(truth_window.end(), batches[t].labels.begin(),
                        batches[t].labels.end());
    if (truth_window.size() > kWindow) {
      truth_window.erase(truth_window.begin(),
                         truth_window.end() - kWindow);
    }
    record->Op(update->window_size == truth_window.size() &&
                   update->labels.size() == update->window_size,
               "window labels cover the window after batch " +
                   std::to_string(t));
    ari_sum += Ari(update->labels, truth_window);
    if (update->full_resolve) {
      resolve_ms.push_back(ms);
      resolve_pts_per_s.push_back(update->window_size / (ms / 1e3));
      resolve_matvecs += static_cast<double>(update->lanczos_matvecs);
      ++resolves;
      if (t > 0 && t < kDriftStart) ++before_drift;
      if (t >= kDriftStart && detect_delay < 0.0 &&
          update->resolve_reason.rfind("drift:", 0) == 0) {
        detect_delay = static_cast<double>(t - kDriftStart);
      }
    } else {
      update_ms.push_back(ms);
      update_matvecs += static_cast<double>(update->lanczos_matvecs);
    }
  }
  record->Set("ari", ari_sum / kBatches);
  record->Set("stream.full_resolves", static_cast<double>(resolves));
  record->Set("stream.resolves_before_drift",
              static_cast<double>(before_drift));
  // No detection within the stream reads as the whole post-onset length.
  record->Set("stream.detect_delay_batches",
              detect_delay < 0.0 ? kBatches - kDriftStart : detect_delay);
  record->Set("la.matvecs_per_resolve",
              resolves ? resolve_matvecs / resolves : 0.0);
  record->Set("la.matvecs_per_update",
              resolves < kBatches ? update_matvecs / (kBatches - resolves)
                                  : 0.0);
  return 0;
}

}  // namespace perfbench
