// Shared plumbing of the performance benchmark: run options, the result
// record every workload fills, timing helpers, sample statistics, the
// in-memory span tracer, and the correctness-check ledger.

#ifndef RULEKIT_PERFBENCH_HARNESS_H_
#define RULEKIT_PERFBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Faults the self-tests inject to prove that a check can fail. Each is
/// applied by the benchmark's own code, never inside the program.
enum class Fault {
  kNone,
  kCorruptPrediction,  // one prediction altered before its reference check
  kDropEdit,           // an edit's Mutate call is skipped, its probe is not
  kSkipRetrain,        // the drift responder is never evaluated
};

/// Where runs write spans and temporary stores, relative to the tree root.
inline constexpr const char* kOutDir = ".bench_build/perfbench-out";

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;  // tiny inputs and run length: a did-it-run check
  Fault fault = Fault::kNone;
  std::string commit = "unknown";
  std::string build_type = "unknown";
  unsigned nproc = 1;
};

/// Everything one run reports. `metrics` carries the reported metrics
/// (end-to-end without tracing, per-layer with it); `detail` carries the
/// workload-specific figures printed alongside.
struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  struct Metric {
    double value = 0.0;
    std::string unit;
  };
  std::map<std::string, Metric> metrics;
  std::map<std::string, Metric> detail;
  std::vector<std::string> check_failures;

  void Set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
  void Detail(const std::string& name, double value, const std::string& unit) {
    detail[name] = {value, unit};
  }
  /// Records a correctness check; a failed one makes the run incorrect.
  void Check(bool ok, const std::string& what);
};

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}
inline double NanosBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::nano>(b - a).count();
}

/// Linear-interpolated percentile (p in [0, 100]) of unsorted samples.
double Percentile(std::vector<double> samples, double p);
double Median(std::vector<double> samples);

/// Peak resident set of this process so far, in MB (ru_maxrss).
double PeakRssMb();

/// Times `setup` at least `min_reps` times, and more while the total stays
/// under `budget_s` (at most 25), and returns the median seconds. The
/// object built by the last repetition is what the run keeps.
template <typename Fn>
double MedianSetupSeconds(int min_reps, double budget_s, Fn&& setup) {
  std::vector<double> samples;
  double total = 0.0;
  while (static_cast<int>(samples.size()) < min_reps ||
         (total < budget_s && samples.size() < 25)) {
    const Clock::time_point start = Clock::now();
    setup();
    samples.push_back(SecondsSince(start));
    total += samples.back();
  }
  return Median(std::move(samples));
}

/// In-memory span recorder for the traced run. A span is a named
/// interval with a parent; spans are appended only while enabled and
/// written out when the run ends.
class Tracer {
 public:
  struct Span {
    const char* name;
    uint32_t parent;  // 0 = root
    double start_ns;
    double end_ns;
    uint64_t items;
  };

  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {
    if (enabled_) spans_.reserve(1 << 16);
  }

  /// Opens a span and returns its id (1-based; 0 when disabled).
  uint32_t Begin(const char* name, uint32_t parent, uint64_t items = 0) {
    if (!enabled_) return 0;
    const double now = NanosBetween(origin_, Clock::now());
    spans_.push_back({name, parent, now, now, items});
    return static_cast<uint32_t>(spans_.size());
  }
  void End(uint32_t id) {
    if (id == 0) return;
    spans_[id - 1].end_ns = NanosBetween(origin_, Clock::now());
  }

  /// Per span name: self time (duration minus the part covered by direct
  /// children), in ns, and the items attributed.
  struct Totals {
    double self_ns = 0.0;
    uint64_t items = 0;
  };
  std::map<std::string, Totals> Summarize() const;

  /// Writes every span as one JSON document.
  bool WriteJson(const std::string& path) const;

 private:
  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// RAII span scope.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name, uint32_t parent,
             uint64_t items = 0)
      : tracer_(tracer), id_(tracer.Begin(name, parent, items)) {}
  ~ScopedSpan() { tracer_.End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  uint32_t id() const { return id_; }

 private:
  Tracer& tracer_;
  uint32_t id_;
};

/// Creates `path` (and parents) as a directory; true on success.
bool MakeDirs(const std::string& path);
/// Removes a directory tree; ignores errors.
void RemoveTree(const std::string& path);

/// Writes the traced run's spans to kOutDir/trace-<workload>-<seed>.json.
void FinishTrace(const Options& options, const Tracer& tracer);

/// Prints the run's info and detail line, then the result line last.
void PrintResult(const Options& options, const RunResult& result);

}  // namespace perfbench

#endif  // RULEKIT_PERFBENCH_HARNESS_H_
