#include "perfbench/src/workloads.h"

#include <algorithm>

namespace perfbench {

namespace {

/// Boundaries of `segments` near-equal consecutive slices of [0, n).
std::vector<size_t> Cuts(size_t n, size_t segments) {
  std::vector<size_t> cuts;
  for (size_t s = 0; s <= segments; ++s) cuts.push_back(n * s / segments);
  return cuts;
}

}  // namespace

void SetOpLatency(RunResult& result, const std::vector<double>& op_ms,
                  size_t segment_ops, size_t max_segments) {
  const size_t segments =
      std::clamp<size_t>(op_ms.size() / segment_ops, 1, max_segments);
  const std::vector<size_t> cuts = Cuts(op_ms.size(), segments);
  std::vector<double> p50, p90;
  for (size_t s = 0; s < segments; ++s) {
    std::vector<double> part(op_ms.begin() + cuts[s],
                             op_ms.begin() + cuts[s + 1]);
    p50.push_back(Percentile(part, 50.0));
    p90.push_back(Percentile(part, 90.0));
  }
  result.Set("op_p50_ms", Median(p50), "ms");
  result.Set("op_p90_ms", Median(p90), "ms");
  result.Detail("op_count", static_cast<double>(op_ms.size()), "count");
}

void SetThroughput(RunResult& result, const std::vector<double>& items,
                   const std::vector<double>& op_ms) {
  const size_t segments = std::clamp<size_t>(items.size() / 20, 1, 5);
  const std::vector<size_t> cuts = Cuts(items.size(), segments);
  std::vector<double> rates;
  for (size_t s = 0; s < segments; ++s) {
    double n = 0.0, ms = 0.0;
    for (size_t i = cuts[s]; i < cuts[s + 1]; ++i) {
      n += items[i];
      ms += op_ms[i];
    }
    if (ms > 0.0) rates.push_back(n / (ms / 1e3));
  }
  result.Set("items_per_s", Median(rates), "items/s");
}

}  // namespace perfbench
