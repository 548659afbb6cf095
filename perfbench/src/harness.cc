#include "perfbench/src/harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>

namespace perfbench {

void RunResult::Check(bool ok, const std::string& what) {
  if (ok) return;
  correct = false;
  check_failures.push_back(what);
  std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
}

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank = p / 100.0 * static_cast<double>(samples.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(samples.size() - 1, lo + 1);
  const double frac = rank - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

double Median(std::vector<double> samples) {
  return Percentile(std::move(samples), 50.0);
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::map<std::string, Tracer::Totals> Tracer::Summarize() const {
  std::vector<double> child_ns(spans_.size(), 0.0);
  for (const Span& span : spans_) {
    if (span.parent != 0) {
      child_ns[span.parent - 1] += span.end_ns - span.start_ns;
    }
  }
  std::map<std::string, Totals> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    Totals& t = out[span.name];
    t.self_ns += span.end_ns - span.start_ns - child_ns[i];
    t.items += span.items;
  }
  return out;
}

bool Tracer::WriteJson(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"spans\": [\n";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    char line[256];
    std::snprintf(line, sizeof(line),
                  "{\"id\": %zu, \"parent\": %u, \"name\": \"%s\", "
                  "\"start_ns\": %.0f, \"end_ns\": %.0f, \"items\": %llu}",
                  i + 1, s.parent, s.name, s.start_ns, s.end_ns,
                  static_cast<unsigned long long>(s.items));
    out << line << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

bool MakeDirs(const std::string& path) {
  std::error_code ec;
  std::filesystem::create_directories(path, ec);
  return !ec && std::filesystem::is_directory(path);
}

void RemoveTree(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove_all(path, ec);
}

void FinishTrace(const Options& options, const Tracer& tracer) {
  MakeDirs(kOutDir);
  const std::string path = std::string(kOutDir) + "/trace-" + options.workload +
                           "-" + std::to_string(options.seed) + ".json";
  if (!tracer.WriteJson(path)) {
    std::fprintf(stderr, "could not write %s\n", path.c_str());
  }
}

namespace {

void PrintMetrics(const std::map<std::string, RunResult::Metric>& metrics) {
  bool first = true;
  for (const auto& [name, metric] : metrics) {
    std::printf("%s\"%s\": {\"value\": %.12g, \"unit\": \"%s\"}",
                first ? "" : ", ", name.c_str(), metric.value,
                metric.unit.c_str());
    first = false;
  }
}

}  // namespace

void PrintResult(const Options& options, const RunResult& result) {
  std::printf("# run: {\"workload\": \"%s\", \"seed\": %llu, "
              "\"seconds\": %g, \"trace\": %d, \"smoke\": %d, "
              "\"commit\": \"%s\", \"build_type\": \"%s\", \"nproc\": %u}\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0, options.smoke ? 1 : 0,
              options.commit.c_str(), options.build_type.c_str(),
              options.nproc);
  std::printf("# detail: {");
  PrintMetrics(result.detail);
  std::printf("}\n");
  for (const std::string& failure : result.check_failures) {
    std::printf("# check failed: %s\n", failure.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              result.correct ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed));
  PrintMetrics(result.metrics);
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace perfbench
