#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <functional>

#include "common.h"

namespace perfbench {

// Each workload sets up its data from args.seed, runs its closed loop for
// args.seconds, runs its correctness gate, and fills `report`. Untraced
// runs report the end-to-end metrics; traced runs (args.trace) split the
// time between an untraced and a traced phase and report the per-layer
// metrics, coverage and tracing overhead.
void RunUncertainQueries(const Args& args, Report* report);
void RunPagedUpdates(const Args& args, Report* report);
void RunServedMix(const Args& args, Report* report);

/// Times `build` at least kSetupReps times and until kSetupMinSeconds
/// have been spent in it, adding each sample (s) to `setup`; `teardown`
/// runs untimed before each build. Workloads call this before and again
/// after the measured phase, so that setup_s, the median, spans the run's
/// host speed as the other metrics do instead of sampling one moment.
void TimeSetups(Samples* setup, const std::function<void()>& teardown,
                const std::function<void()>& build);
inline constexpr int kSetupReps = 3;
inline constexpr double kSetupMinSeconds = 0.5;

/// Reports the end-to-end metrics every workload shares, in one order.
void EmitCommonEndToEnd(double setup_s, double throughput_sps,
                        const Samples& read, const Samples& write,
                        Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
