#include "perfbench/src/inputs.h"

#include <algorithm>
#include <set>
#include <thread>

#include "src/chimera/analyst.h"
#include "src/common/string_util.h"
#include "src/engine/executor.h"
#include "src/engine/rule_classifier.h"

namespace perfbench {

using namespace rulekit;

CatalogInputs MakeCatalogInputs(uint64_t seed, size_t num_types,
                                size_t training_items, size_t feed_items) {
  CatalogInputs in;
  data::GeneratorConfig config;
  config.seed = seed;
  config.num_types = num_types;
  data::CatalogGenerator gen(config);
  chimera::AnalystConfig analyst_config;
  analyst_config.seed = seed * 31 + 7;
  chimera::SimulatedAnalyst analyst(gen, analyst_config);
  for (const auto& spec : gen.specs()) {
    for (Rule& rule : analyst.WriteRulesForType(spec.name)) {
      in.rules.push_back(std::move(rule));
    }
  }
  data::GeneratorConfig train_config = config;
  train_config.seed = seed + 0x9e3779b9ULL;
  data::CatalogGenerator train_gen(train_config);
  in.training = train_gen.GenerateMany(training_items);
  in.feed = gen.GenerateMany(feed_items);
  return in;
}

std::map<std::string, std::string> PlantedMergeSuffixes(
    const std::vector<data::TypeSpec>& specs) {
  constexpr size_t kMergeTypes = 20;
  std::map<std::string, std::string> suffixes;
  for (const auto& spec : specs) {
    if (suffixes.size() >= kMergeTypes) break;
    if (spec.head_nouns.empty() || spec.qualifiers.empty()) continue;
    const std::string k = std::to_string(suffixes.size());
    suffixes[spec.name] = " mrgalpha" + k + " mrgbeta" + k;
  }
  return suffixes;
}

std::vector<Rule> MakePlantedRuleBase(
    const std::vector<data::TypeSpec>& specs, size_t target_rules,
    size_t dead_rules, unsigned threads) {
  struct Spec {
    std::string id, pattern, type;
    double confidence = 1.0;
  };
  std::vector<Spec> planned;
  planned.reserve(target_rules + dead_rules + 64);
  auto add = [&](std::string id, std::string pattern, const std::string& type,
                 double confidence = 1.0) {
    planned.push_back({std::move(id), std::move(pattern), type, confidence});
  };
  for (size_t round = 0; planned.size() < target_rules; ++round) {
    const size_t before = planned.size();
    for (size_t s = 0; s < specs.size() && planned.size() < target_rules;
         ++s) {
      const auto& spec = specs[s];
      if (spec.head_nouns.empty() || spec.qualifiers.empty()) continue;
      const std::string noun = RegexEscape(spec.head_nouns[0]);
      std::string tag = "t";
      tag += std::to_string(s);
      if (round == 0) {
        if (s % 3 == 2) continue;  // no broad covering rule
        add(tag + "-broad", noun, spec.name);
        add(tag + "-dup", noun, spec.name);
      } else if (round <= spec.qualifiers.size()) {
        add(tag + "-q" + std::to_string(round - 1),
            RegexEscape(spec.qualifiers[round - 1]) + ".*" + noun, spec.name);
      } else {
        const size_t a = (round - 1) % spec.qualifiers.size();
        const size_t b = (round / 2) % spec.qualifiers.size();
        add(tag + "-p" + std::to_string(round),
            RegexEscape(spec.qualifiers[a]) + ".*" +
                RegexEscape(spec.qualifiers[b]) + ".*" + noun,
            spec.name);
      }
    }
    if (planned.size() == before) break;  // vocabulary exhausted
  }
  const std::map<std::string, std::string> merge = PlantedMergeSuffixes(specs);
  size_t merge_index = 0;
  for (size_t s = 0; s < specs.size(); ++s) {
    if (merge.count(specs[s].name) == 0) continue;
    const std::string k = std::to_string(merge_index++);
    add("t" + std::to_string(s) + "-mrga", "mrgalpha" + k, specs[s].name);
    add("t" + std::to_string(s) + "-mrgb", "mrgbeta" + k, specs[s].name);
  }
  for (size_t i = 0; i < dead_rules; ++i) {
    add("dead-" + std::to_string(i), "deadtok" + std::to_string(i),
        specs[i % specs.size()].name, 0.5);
  }

  // Compiling the patterns is the benchmark's own preparation, so it is
  // spread over the cores; the order of the result does not change.
  std::vector<std::optional<Rule>> compiled(planned.size());
  std::vector<std::thread> workers;
  const unsigned n = std::max(1u, threads);
  for (unsigned w = 0; w < n; ++w) {
    workers.emplace_back([&, w] {
      for (size_t i = w; i < planned.size(); i += n) {
        auto rule =
            Rule::Whitelist(planned[i].id, planned[i].pattern, planned[i].type);
        if (!rule.ok()) continue;
        rule->metadata().confidence = planned[i].confidence;
        compiled[i] = std::move(rule).value();
      }
    });
  }
  for (auto& worker : workers) worker.join();
  std::vector<Rule> out;
  out.reserve(compiled.size());
  for (auto& rule : compiled) {
    if (rule.has_value()) out.push_back(std::move(*rule));
  }
  return out;
}

std::unique_ptr<chimera::ChimeraPipeline> BuildCatalogPipeline(
    const CatalogInputs& inputs, chimera::PipelineConfig config) {
  const bool learning = config.use_learning;
  auto pipeline = std::make_unique<chimera::ChimeraPipeline>(std::move(config));
  Status st = pipeline->AddRules(inputs.rules, "analyst");
  if (!st.ok()) {
    std::fprintf(stderr, "AddRules failed: %s\n", st.ToString().c_str());
    std::exit(2);
  }
  if (learning) {
    pipeline->AddTrainingData(inputs.training);
    pipeline->RetrainLearning();
  }
  return pipeline;
}

std::vector<ProductItem> ItemsOf(const std::vector<LabeledItem>& labeled) {
  std::vector<ProductItem> items;
  items.reserve(labeled.size());
  for (const auto& li : labeled) items.push_back(li.item);
  return items;
}

chimera::ClassifyResponse ClassifyAll(const chimera::ChimeraPipeline& pipeline,
                                      const std::vector<ProductItem>& items) {
  chimera::ClassifyRequest request;
  request.items = items;
  return pipeline.Classify(request);
}

bool OutcomesSumToTotal(const chimera::BatchReport& r) {
  return r.gate_classified + r.gate_rejected + r.classified + r.filtered +
             r.suppressed + r.declined ==
         r.total;
}

Quality ScoreAgainstLabels(
    const std::vector<std::optional<std::string>>& predictions,
    const std::vector<LabeledItem>& labeled) {
  size_t predicted = 0, correct = 0;
  for (size_t i = 0; i < predictions.size() && i < labeled.size(); ++i) {
    if (!predictions[i].has_value()) continue;
    ++predicted;
    if (*predictions[i] == labeled[i].label) ++correct;
  }
  Quality q;
  q.precision = predicted == 0 ? 0.0 : double(correct) / double(predicted);
  q.coverage =
      labeled.empty() ? 0.0 : double(predicted) / double(labeled.size());
  return q;
}

bool IndexMatchesFullScan(const rules::RuleRepository& repo,
                          const std::vector<ProductItem>& sample) {
  std::vector<const ProductItem*> ptrs;
  for (const auto& item : sample) ptrs.push_back(&item);

  // Indexed: one classifier per repository shard, built the way the
  // pipeline builds its shard servings.
  std::vector<std::set<std::string>> indexed(sample.size());
  for (size_t s = 0; s < repo.shard_count(); ++s) {
    rules::ShardSnapshot snap =
        repo.ShardSnapshotOf(rules::ShardKey(static_cast<uint32_t>(s)));
    engine::RuleBasedClassifier clf(snap.rules);
    engine::ExecutionResult exec = clf.MatchBatch(ptrs, nullptr);
    for (size_t i = 0; i < sample.size(); ++i) {
      for (size_t idx : exec.matches_per_item[i]) {
        indexed[i].insert(snap.rules->rules()[idx].id());
      }
    }
  }

  // Reference: every active regex rule of the merged set, no index.
  std::shared_ptr<const rules::RuleSet> merged = repo.snapshot();
  engine::ExecutorOptions options;
  options.use_index = false;
  engine::RuleExecutor full(*merged, options);
  engine::ExecutionResult exec = full.Execute(ptrs, nullptr);
  for (size_t i = 0; i < sample.size(); ++i) {
    std::set<std::string> expect;
    for (size_t idx : exec.matches_per_item[i]) {
      expect.insert(merged->rules()[idx].id());
    }
    if (expect != indexed[i]) return false;
  }
  return true;
}

}  // namespace perfbench
