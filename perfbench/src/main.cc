// The RuleKit performance benchmark program:
//
//   rulekit_perfbench --workload <name> --seed <n> --seconds <s>
//                     --trace <0|1> [--smoke] [--inject <fault>]
//                     [--commit <id>] [--build-type <type>]
//
// Prints `# run:` (provenance) and `# detail:` (workload-specific
// figures) lines, then one JSON object as the last line: correct,
// attempted, failed and the metrics — the end-to-end set with
// --trace 0, the per-layer set with --trace 1. Exits 0 when the run
// completed, whether or not its checks passed (`correct` says), and 2 on
// bad arguments.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <set>
#include <string>
#include <thread>
#include <utility>

#include "perfbench/src/harness.h"
#include "perfbench/src/workloads.h"

namespace {

using namespace perfbench;

const std::set<std::string> kEndToEnd = {"setup_s", "items_per_s",
                                         "op_p50_ms", "op_p90_ms",
                                         "peak_rss_mb"};

/// Jiffies the hypervisor took from this machine's CPUs ("steal") and
/// all jiffies, from /proc/stat; {0, 0} where it cannot be read.
std::pair<double, double> StealAndTotalJiffies() {
  FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return {0.0, 0.0};
  double v[8] = {0, 0, 0, 0, 0, 0, 0, 0};
  const int n = std::fscanf(f, "cpu %lf %lf %lf %lf %lf %lf %lf %lf", &v[0],
                            &v[1], &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]);
  std::fclose(f);
  if (n != 8) return {0.0, 0.0};
  double total = 0.0;
  for (double x : v) total += x;
  return {v[7], total};
}

int Usage(const char* msg) {
  std::fprintf(stderr,
               "error: %s\nusage: rulekit_perfbench --workload "
               "{catalog_full|rules_20k_edits|serving_zipf|event_drift} "
               "--seed N --seconds S --trace {0|1} [--smoke] "
               "[--inject {corrupt_prediction|drop_edit|skip_retrain}] "
               "[--commit ID] [--build-type TYPE]\n",
               msg);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  options.nproc = std::max(1u, std::thread::hardware_concurrency());
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--smoke") {
      options.smoke = true;
      continue;
    }
    const char* v = value();
    if (v == nullptr) return Usage(("missing value for " + arg).c_str());
    if (arg == "--workload") {
      options.workload = v;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::atof(v);
    } else if (arg == "--trace") {
      options.trace = std::strcmp(v, "0") != 0;
    } else if (arg == "--commit") {
      options.commit = v;
    } else if (arg == "--build-type") {
      options.build_type = v;
    } else if (arg == "--inject") {
      const std::string fault = v;
      if (fault == "corrupt_prediction") {
        options.fault = Fault::kCorruptPrediction;
      } else if (fault == "drop_edit") {
        options.fault = Fault::kDropEdit;
      } else if (fault == "skip_retrain") {
        options.fault = Fault::kSkipRetrain;
      } else {
        return Usage("unknown fault");
      }
    } else {
      return Usage(("unknown argument " + arg).c_str());
    }
  }
  if (!(options.seconds > 0.0)) return Usage("--seconds must be positive");

  RunResult result;
  const auto steal_before = StealAndTotalJiffies();
  if (options.workload == "catalog_full") {
    RunCatalogFull(options, result);
  } else if (options.workload == "rules_20k_edits") {
    RunRulesEdits(options, result);
  } else if (options.workload == "serving_zipf") {
    RunServingZipf(options, result);
  } else if (options.workload == "event_drift") {
    RunEventDrift(options, result);
  } else {
    return Usage("unknown workload");
  }

  // CPU time other guests took from this machine during the run: a
  // figure that explains a noisy run, not one the program controls.
  const auto steal_after = StealAndTotalJiffies();
  if (steal_after.second > steal_before.second) {
    result.Detail("host.steal_pct",
                  100.0 * (steal_after.first - steal_before.first) /
                      (steal_after.second - steal_before.second),
                  "%");
  }

  // A traced run reports the per-layer set; its own end-to-end figures
  // move to the detail line, where they show the tracing overhead.
  if (options.trace) {
    for (auto it = result.metrics.begin(); it != result.metrics.end();) {
      if (kEndToEnd.count(it->first) != 0) {
        result.detail["traced." + it->first] = it->second;
        it = result.metrics.erase(it);
      } else {
        ++it;
      }
    }
  } else {
    for (const std::string& name : kEndToEnd) {
      result.Check(result.metrics.count(name) == 1,
                   "end-to-end metric " + name + " was measured");
    }
  }
  if (result.attempted == 0) result.Check(false, "no operation was attempted");
  PrintResult(options, result);
  return 0;
}
