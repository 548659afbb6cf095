// catalog_full: a batch feed of unseen product titles through the full
// pipeline (rules + NB/kNN/LogReg ensemble), cache off, sequential batch
// path. The learned ensemble does most of the per-item work here.

#include <algorithm>
#include <span>

#include "perfbench/src/inputs.h"
#include "perfbench/src/layers.h"
#include "perfbench/src/workloads.h"

namespace perfbench {

using namespace rulekit;

namespace {
constexpr size_t kTypes = 48;
constexpr size_t kBatch = 64;
// Floors on the generator's ground truth over the whole feed.
constexpr double kPrecisionFloor = 0.85;
constexpr double kCoverageFloor = 0.80;
}  // namespace

void RunCatalogFull(const Options& options, RunResult& result) {
  const size_t training = options.smoke ? 300 : 2000;
  const size_t feed_items = options.smoke ? 512 : 4096;
  CatalogInputs in =
      MakeCatalogInputs(options.seed, kTypes, training, feed_items);
  const std::vector<ProductItem> feed = ItemsOf(in.feed);

  chimera::PipelineConfig config;
  std::unique_ptr<chimera::ChimeraPipeline> pipeline;
  result.Set("setup_s", MedianSetupSeconds(
                   SetupReps(options), SetupBudgetSeconds(options), [&] {
               pipeline.reset();
               pipeline = BuildCatalogPipeline(in, config);
             }),
             "s");

  // Warm-up pass over the whole feed; its predictions are the reference
  // every later batch must repeat, and what precision is scored on.
  std::vector<std::optional<std::string>> first_pass;
  for (size_t begin = 0; begin < feed.size(); begin += kBatch) {
    const size_t end = std::min(feed.size(), begin + kBatch);
    chimera::ClassifyRequest request;
    request.items = std::span(feed).subspan(begin, end - begin);
    chimera::ClassifyResponse response = pipeline->Classify(request);
    result.Check(response.ok() && OutcomesSumToTotal(response.report),
                 "warm-up batch is OK and its outcome counts sum to total");
    first_pass.insert(first_pass.end(), response.report.predictions.begin(),
                      response.report.predictions.end());
  }
  const Quality quality = ScoreAgainstLabels(first_pass, in.feed);
  result.Detail("precision", quality.precision, "ratio");
  result.Detail("coverage", quality.coverage, "ratio");
  result.Check(quality.precision >= kPrecisionFloor,
               "precision against generator labels >= floor");
  result.Check(quality.coverage >= kCoverageFloor,
               "coverage against generator labels >= floor");

  // ---- measured phase: whole batches, round robin over the feed ----------
  Tracer tracer(options.trace);
  std::vector<double> op_ms, op_items;
  size_t mismatched_batches = 0, cursor = 0;
  const Clock::time_point start = Clock::now();
  while (SecondsSince(start) < options.seconds) {
    const size_t begin = cursor;
    const size_t end = std::min(feed.size(), begin + kBatch);
    cursor = end == feed.size() ? 0 : end;
    chimera::ClassifyRequest request;
    request.items = std::span(feed).subspan(begin, end - begin);
    ScopedSpan span(tracer, "op.classify_batch", 0, end - begin);
    const Clock::time_point t0 = Clock::now();
    chimera::ClassifyResponse response = pipeline->Classify(request);
    const double ms = SecondsSince(t0) * 1e3;
    op_ms.push_back(ms);
    op_items.push_back(static_cast<double>(end - begin));
    ++result.attempted;
    if (!response.ok()) {
      ++result.failed;
      continue;
    }
    if (!OutcomesSumToTotal(response.report) ||
        !std::equal(response.report.predictions.begin(),
                    response.report.predictions.end(),
                    first_pass.begin() + begin)) {
      ++mismatched_batches;
    }
  }
  SetThroughput(result, op_items, op_ms);
  SetOpLatency(result, op_ms);
  result.Set("peak_rss_mb", PeakRssMb(), "MB");
  result.Check(mismatched_batches == 0,
               "every batch repeats the warm-up predictions and its outcome "
               "counts sum to total");

  // Indexed sharded matches equal a full scan on a sample of the feed.
  std::vector<ProductItem> sample(
      feed.begin(), feed.begin() + std::min<size_t>(feed.size(), 256));
  result.Check(IndexMatchesFullScan(pipeline->repository(), sample),
               "indexed sharded rule matches equal a full scan");

  if (options.trace) {
    std::vector<ProductItem> layer_items(
        feed.begin(),
        feed.begin() + std::min<size_t>(feed.size(), options.smoke ? 128 : 1024));
    LayerInputs layers;
    layers.training = &in.training;
    layers.items = &layer_items;
    layers.reference = pipeline.get();
    MeasureLayers(layers, options, tracer, result);
    FinishTrace(options, tracer);
  }
}

}  // namespace perfbench
