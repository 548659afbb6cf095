// The benchmark's workloads. Each takes its seed from `options`, builds
// its inputs, sets the system up several times (reporting the median),
// measures for `options.seconds`, checks the outputs against references
// computed apart from the program, and fills `result`.
//
// Every workload reports the same end-to-end metrics:
//   setup_s      median wall time of one full set-up
//   items_per_s  items classified per second of the measured phase
//   op_p50_ms    median latency of the workload's operation
//   op_p90_ms    90th-percentile latency of that operation
//   peak_rss_mb  the process's ru_maxrss after the measured phase
// The operation is a batch (catalog_full), a single-rule edit
// (rules_20k_edits), a request (serving_zipf) or a window (event_drift).

#ifndef RULEKIT_PERFBENCH_WORKLOADS_H_
#define RULEKIT_PERFBENCH_WORKLOADS_H_

#include <vector>

#include "perfbench/src/harness.h"

namespace perfbench {

void RunCatalogFull(const Options& options, RunResult& result);
void RunRulesEdits(const Options& options, RunResult& result);
void RunServingZipf(const Options& options, RunResult& result);
void RunEventDrift(const Options& options, RunResult& result);

/// Fills op_p50_ms / op_p90_ms from per-operation latencies in ms, in
/// the order run. The log is cut into up to `max_segments` consecutive
/// segments of at least `segment_ops` operations and each figure is the
/// median over segments, so a stall of the machine moves only the
/// segments it hits.
void SetOpLatency(RunResult& result, const std::vector<double>& op_ms,
                  size_t segment_ops = 100, size_t max_segments = 15);

/// Fills items_per_s from the items and milliseconds of each operation
/// that classified items, as the median over up to five segments.
void SetThroughput(RunResult& result, const std::vector<double>& items,
                   const std::vector<double>& op_ms);

/// Set-up repetitions whose median is setup_s: at least this many, more
/// while they take less than SetupBudgetSeconds in all.
inline int SetupReps(const Options& options) { return options.smoke ? 1 : 3; }
inline double SetupBudgetSeconds(const Options& options) {
  return options.smoke ? 0.0 : 1.0;
}

}  // namespace perfbench

#endif  // RULEKIT_PERFBENCH_WORKLOADS_H_
