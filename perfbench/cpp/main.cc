// One workload per process:
//
//   perfbench --workload W [--seed N] [--seconds S] [--setup-only]
//             [--scratch DIR]
//
// prints the run record (harness.h) as one JSON line on stdout. The traced
// build of the same sources (perfbench_traced) adds spans and allocation
// counts. perfbench/run.py drives both and turns records into metrics.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "harness.h"

int main(int argc, char** argv) {
  perfbench::Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const bool has_value = i + 1 < argc;
    if (flag == "--workload" && has_value) {
      args.workload = argv[++i];
    } else if (flag == "--seed" && has_value) {
      args.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (flag == "--seconds" && has_value) {
      args.seconds = std::strtod(argv[++i], nullptr);
    } else if (flag == "--scratch" && has_value) {
      args.scratch_dir = argv[++i];
    } else if (flag == "--setup-only") {
      args.setup_only = true;
    } else {
      std::fprintf(stderr,
                   "usage: %s --workload W [--seed N] [--seconds S] "
                   "[--setup-only] [--scratch DIR]\n",
                   argv[0]);
      return 2;
    }
  }
  perfbench::Record record;
  int status = 2;
  if (args.workload == "serve_loop") {
    status = perfbench::RunServeLoop(args, &record);
  } else if (args.workload == "stream_replay") {
    status = perfbench::RunStreamReplay(args, &record);
  } else if (args.workload == "job_sweep") {
    status = perfbench::RunJobSweep(args, &record);
  } else if (args.workload == "anchor_fit") {
    status = perfbench::RunAnchorFit(args, &record);
  } else {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  record.Set("peak_rss_mb", perfbench::PeakRssMb());
  std::printf("%s\n", record.ToJson().c_str());
  return status;
}
