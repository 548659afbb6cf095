// The traced run's per-layer measurement. The pipeline's snapshot is
// private, so the benchmark rebuilds the layer objects itself from the
// workload's own inputs, exactly as the pipeline composes them (one
// RuleBasedClassifier / AttrValueClassifier / Filter per repository
// shard; NB + kNN(k=7) + LogReg with default options over one shared
// FeatureExtractor), checks on the workload's items that the recomposed
// stack predicts what the pipeline predicts, and times each layer's
// public entry points under spans.

#ifndef RULEKIT_PERFBENCH_LAYERS_H_
#define RULEKIT_PERFBENCH_LAYERS_H_

#include <vector>

#include "perfbench/src/harness.h"
#include "perfbench/src/inputs.h"
#include "src/chimera/pipeline.h"

namespace perfbench {

struct LayerInputs {
  /// Training set of the ensemble. For a workload whose pipeline bypasses
  /// learning, the ensemble is trained for the ml.* figures only.
  const std::vector<LabeledItem>* training = nullptr;
  /// Items the layers are timed on (the workload's own stream).
  const std::vector<ProductItem>* items = nullptr;
  /// A pipeline with the workload's construction and the cache off: its
  /// repository's shards are recomposed, and the recomposed stack must
  /// reproduce its predictions.
  const rulekit::chimera::ChimeraPipeline* reference = nullptr;
};

/// Fills every per-layer metric into `result.metrics` and adds
/// the span-derived detail; records the recomposition check.
void MeasureLayers(const LayerInputs& in, const Options& options,
                   Tracer& tracer, RunResult& result);

}  // namespace perfbench

#endif  // RULEKIT_PERFBENCH_LAYERS_H_
