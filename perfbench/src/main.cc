// perfbench: the I-SQL end-to-end benchmark program.
//
//   perfbench --workload <uncertain_queries|paged_updates|served_mix>
//             --seed <n> --seconds <s> --trace <0|1>
//             [--trace-file <path>] [--work-dir <dir>]
//
// Prints every metric by name and unit, then, as the last line of stdout,
// one JSON object {"correct", "attempted", "failed", "metrics"}: the
// end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.

#include <cstdio>
#include <cstdlib>
#include <string>

#include "common.h"
#include "workloads.h"

namespace perfbench {

void EmitCommonEndToEnd(double setup_s, double throughput_sps,
                        const Samples& read, const Samples& write,
                        Report* report) {
  report->Metric("setup_s", setup_s, "s");
  report->Metric("throughput_sps", throughput_sps, "1/s");
  report->Metric("read_p50_ms", read.Median(), "ms");
  report->Metric("read_p90_ms", read.Quantile(0.9), "ms");
  report->Metric("write_p50_ms", write.Median(), "ms");
  report->Metric("write_p90_ms", write.Quantile(0.9), "ms");
  report->Metric("peak_rss_mb", PeakRssMb(), "MiB");
  report->Metric("ok_frac", report->ok_frac(), "ratio");
}

void TimeSetups(Samples* setup, const std::function<void()>& teardown,
                const std::function<void()>& build) {
  Samples mine;
  for (int rep = 0; rep < kSetupReps || mine.Sum() < kSetupMinSeconds; ++rep) {
    teardown();
    Clock::time_point t0 = Clock::now();
    build();
    mine.Add(MsBetween(t0, Clock::now()) / 1000);
  }
  setup->Append(mine);
}

}  // namespace perfbench

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <uncertain_queries|paged_updates|"
               "served_mix> --seed <n> --seconds <s> --trace <0|1> "
               "[--trace-file <path>] [--work-dir <dir>]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    std::string value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--trace-file") {
      args.trace_file = value;
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 == 0 || args.seconds <= 0) return Usage();

  perfbench::Report report;
  if (args.workload == "uncertain_queries") {
    perfbench::RunUncertainQueries(args, &report);
  } else if (args.workload == "paged_updates") {
    perfbench::RunPagedUpdates(args, &report);
  } else if (args.workload == "served_mix") {
    perfbench::RunServedMix(args, &report);
  } else {
    return Usage();
  }
  report.Finish();
  return 0;
}
