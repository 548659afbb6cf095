// Seeded input generation for every workload. The program under test only
// ever sees what these functions return; the generators' ground-truth
// labels stay with the benchmark for the reference checks.

#ifndef RULEKIT_PERFBENCH_INPUTS_H_
#define RULEKIT_PERFBENCH_INPUTS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/chimera/pipeline.h"
#include "src/data/catalog_generator.h"
#include "src/data/product.h"
#include "src/rules/rule.h"

namespace perfbench {

using rulekit::data::LabeledItem;
using rulekit::data::ProductItem;
using rulekit::rules::Rule;

/// A product catalog: analyst rules for every type, a labeled training
/// set, and a feed of unseen labeled items drawn after both.
struct CatalogInputs {
  std::vector<Rule> rules;
  std::vector<LabeledItem> training;
  std::vector<LabeledItem> feed;
};

CatalogInputs MakeCatalogInputs(uint64_t seed, size_t num_types,
                                size_t training_items, size_t feed_items);

/// The planted-redundancy rule base over a 200-type catalog, shaped as
/// the repository's rule-set optimizer benchmark builds it: up to
/// `target_rules` rules giving each type a broad head-noun rule and its
/// duplicate (except every third type, which has no broad rule),
/// single-qualifier and qualifier-pair refinements; then a co-firing
/// token pair for each type of PlantedMergeSuffixes, and `dead_rules`
/// rules that match nothing, at confidence 0.5. Compiled on `threads`
/// threads.
std::vector<Rule> MakePlantedRuleBase(
    const std::vector<rulekit::data::TypeSpec>& specs, size_t target_rules,
    size_t dead_rules, unsigned threads);

/// The types of the planted rule base that carry a co-firing token pair
/// (the first 20 with a head noun and a qualifier), each mapped to the
/// suffix that puts its pair into a title.
std::map<std::string, std::string> PlantedMergeSuffixes(
    const std::vector<rulekit::data::TypeSpec>& specs);

/// Pipeline over the catalog: the analyst rules, then (when learning is
/// on) the training set and one synchronous retrain.
std::unique_ptr<rulekit::chimera::ChimeraPipeline> BuildCatalogPipeline(
    const CatalogInputs& inputs, rulekit::chimera::PipelineConfig config);

std::vector<ProductItem> ItemsOf(const std::vector<LabeledItem>& labeled);

/// Classifies `items` in one request through the pipeline's entry point.
rulekit::chimera::ClassifyResponse ClassifyAll(
    const rulekit::chimera::ChimeraPipeline& pipeline,
    const std::vector<ProductItem>& items);

/// Outcome counters of a report sum to its total.
bool OutcomesSumToTotal(const rulekit::chimera::BatchReport& report);

/// Precision (correct / predicted) and coverage (predicted / all) of
/// `predictions` against the generator's labels.
struct Quality {
  double precision = 0.0;
  double coverage = 0.0;
};
Quality ScoreAgainstLabels(
    const std::vector<std::optional<std::string>>& predictions,
    const std::vector<LabeledItem>& labeled);

/// Indexed sharded regex matches equal a full scan of every active regex
/// rule of the merged set (RuleExecutor with use_index = false) on
/// `sample`, compared as rule-id sets per item.
bool IndexMatchesFullScan(const rulekit::rules::RuleRepository& repo,
                          const std::vector<ProductItem>& sample);

}  // namespace perfbench

#endif  // RULEKIT_PERFBENCH_INPUTS_H_
