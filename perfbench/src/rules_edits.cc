// rules_20k_edits: a rules-only pipeline over the ~20K-rule planted-
// redundancy rule base (200 types, 8 shards) with a durable store.
// Classify batches alternate with single-rule edits through Mutate, so a
// read-side gain that costs the write side shows up in op latency.

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <span>

#include "perfbench/src/inputs.h"
#include "perfbench/src/layers.h"
#include "perfbench/src/workloads.h"
#include "src/storage/rule_store.h"

namespace perfbench {

using namespace rulekit;

namespace {
constexpr size_t kTypes = 200;
constexpr size_t kShards = 8;
constexpr size_t kBatch = 512;
constexpr double kPrecisionFloor = 0.90;
constexpr double kCoverageFloor = 0.60;

chimera::PipelineConfig RulesOnlyConfig(const std::string& dir) {
  chimera::PipelineConfig config;
  config.use_learning = false;
  config.rule_shards = kShards;
  config.storage_dir = dir;
  return config;
}

/// The rule an edit adds, and a title only that rule matches.
struct Edit {
  Rule rule;
  ProductItem probe;
};
Edit MakeEdit(uint64_t seed, size_t i,
              const std::vector<data::TypeSpec>& specs) {
  const std::string token =
      "edtok" + std::to_string(seed % 1000) + "x" + std::to_string(i) + "q";
  auto rule = Rule::Whitelist("edit-" + std::to_string(i), token,
                              specs[(i * 7 + seed) % specs.size()].name);
  Edit edit{std::move(rule).value(), {}};
  edit.probe.id = "probe-" + std::to_string(i);
  edit.probe.title = token;
  return edit;
}
/// Generates the rule base and loads it through a fresh store in a child
/// process, so neither the generator's copy of 20K compiled rules nor the
/// loader counts toward this process's peak RSS. Returns the rule count
/// (0 on failure).
size_t LoadStoreInChild(const Options& options,
                        const std::vector<data::TypeSpec>& specs,
                        const std::string& dir, RunResult& result) {
  int fds[2];
  if (::pipe(fds) != 0) return 0;
  const pid_t child = ::fork();
  if (child == 0) {
    ::close(fds[0]);
    const std::vector<Rule> base =
        MakePlantedRuleBase(specs, options.smoke ? 2000 : 20000,
                            options.smoke ? 50 : 500, options.nproc);
    uint64_t count = 0;
    {
      chimera::ChimeraPipeline loader(RulesOnlyConfig(dir));
      if (loader.durable() && loader.AddRules(base, "seed").ok()) {
        count = base.size();
      }
    }
    const bool written =
        ::write(fds[1], &count, sizeof(count)) == sizeof(count);
    ::close(fds[1]);
    ::_exit(written ? 0 : 1);
  }
  ::close(fds[1]);
  uint64_t count = 0;
  const bool read_ok =
      child > 0 && ::read(fds[0], &count, sizeof(count)) == sizeof(count);
  ::close(fds[0]);
  int status = 0;
  const bool exited = child > 0 && ::waitpid(child, &status, 0) == child &&
                      WIFEXITED(status) && WEXITSTATUS(status) == 0;
  result.Check(read_ok && exited && count > 0,
               "the rule base loads through a fresh store");
  return read_ok && exited ? count : 0;
}

}  // namespace

void RunRulesEdits(const Options& options, RunResult& result) {
  data::GeneratorConfig gen_config;
  gen_config.seed = options.seed;
  gen_config.num_types = kTypes;
  data::CatalogGenerator gen(gen_config);
  std::vector<LabeledItem> reads_labeled =
      gen.GenerateMany(options.smoke ? 512 : 4096);
  // Half of the merge types' titles carry their co-firing token pair.
  const std::map<std::string, std::string> merge =
      PlantedMergeSuffixes(gen.specs());
  size_t augmented = 0;
  for (LabeledItem& li : reads_labeled) {
    auto it = merge.find(li.label);
    if (it != merge.end() && (augmented++ % 2) == 0) {
      li.item.title += it->second;
    }
  }
  const std::vector<ProductItem> reads = ItemsOf(reads_labeled);

  const std::string root =
      std::string(kOutDir) + "/rules-" + std::to_string(::getpid());
  const std::string dir = root + "/store";
  RemoveTree(root);
  result.Check(MakeDirs(dir), "store directory can be created");
  const Clock::time_point load_start = Clock::now();
  const size_t rule_count = LoadStoreInChild(options, gen.specs(), dir, result);
  result.Detail("rules", static_cast<double>(rule_count), "count");
  result.Detail("initial_load_s", SecondsSince(load_start), "s");

  // Set-up is a restart: recover the store and build every shard. It is
  // timed here and again by the reopen after the measured phase; setup_s
  // is the median of the two.
  std::vector<double> setup_s;
  Clock::time_point setup_start = Clock::now();
  auto pipeline = std::make_unique<chimera::ChimeraPipeline>(
      RulesOnlyConfig(dir));
  setup_s.push_back(SecondsSince(setup_start));
  result.Check(pipeline->durable() &&
                   pipeline->rule_set().CountActive() == rule_count,
               "set-up recovers every rule from the store");

  // Precision and coverage of the rule base on the read stream.
  {
    chimera::ClassifyResponse warm = ClassifyAll(*pipeline, reads);
    result.Check(warm.ok() && OutcomesSumToTotal(warm.report),
                 "warm-up batch is OK and its outcome counts sum to total");
    const Quality quality =
        ScoreAgainstLabels(warm.report.predictions, reads_labeled);
    result.Detail("precision", quality.precision, "ratio");
    result.Detail("coverage", quality.coverage, "ratio");
    result.Check(quality.precision >= kPrecisionFloor,
                 "precision against generator labels >= floor");
    result.Check(quality.coverage >= kCoverageFloor,
                 "coverage against generator labels >= floor");
  }

  // ---- measured phase: rounds of (batch with probe, one edit) ------------
  // Each batch carries the probe of the previous round's edit, so every
  // edit is checked to fire in the next batch.
  Tracer tracer(options.trace);
  std::vector<double> edit_ms, batch_ms, batch_items;
  size_t cursor = 0, probes_missed = 0, bad_batches = 0;
  std::optional<Edit> pending;
  std::vector<ProductItem> batch;
  const Clock::time_point start = Clock::now();
  for (size_t round = 0; SecondsSince(start) < options.seconds; ++round) {
    batch.assign(reads.begin() + cursor,
                 reads.begin() + std::min(reads.size(), cursor + kBatch));
    cursor = cursor + kBatch >= reads.size() ? 0 : cursor + kBatch;
    if (pending.has_value()) batch.push_back(pending->probe);
    {
      ScopedSpan span(tracer, "op.classify_batch", 0, batch.size());
      const Clock::time_point t0 = Clock::now();
      chimera::ClassifyResponse response = ClassifyAll(*pipeline, batch);
      batch_ms.push_back(SecondsSince(t0) * 1e3);
      batch_items.push_back(static_cast<double>(batch.size()));
      ++result.attempted;
      if (!response.ok()) {
        ++result.failed;
      } else {
        if (!OutcomesSumToTotal(response.report)) ++bad_batches;
        if (pending.has_value() &&
            response.report.predictions.back() !=
                pending->rule.target_type()) {
          ++probes_missed;
        }
      }
    }

    Edit edit = MakeEdit(options.seed, round, gen.specs());
    ScopedSpan span(tracer, "op.edit", 0, 1);
    const Clock::time_point t0 = Clock::now();
    Status st = Status::OK();
    if (options.fault != Fault::kDropEdit || round != 1) {
      st = pipeline->Mutate("analyst", [&](rules::RuleTransaction& tx) {
        return tx.Add(edit.rule);
      });
    }
    edit_ms.push_back(SecondsSince(t0) * 1e3);
    ++result.attempted;
    if (!st.ok()) ++result.failed;
    pending = std::move(edit);
  }
  SetThroughput(result, batch_items, batch_ms);
  SetOpLatency(result, edit_ms);
  result.Set("peak_rss_mb", PeakRssMb(), "MB");
  result.Detail("edits", static_cast<double>(edit_ms.size()), "count");
  result.Detail("edit_p95_ms", Percentile(edit_ms, 95.0), "ms");
  result.Check(probes_missed == 0,
               "every edit fires on its probe in the next batch (" +
                   std::to_string(probes_missed) + " missed)");
  result.Check(bad_batches == 0, "every batch's outcome counts sum to total");

  std::vector<ProductItem> sample(
      reads.begin(), reads.begin() + std::min<size_t>(reads.size(), 32));
  result.Check(IndexMatchesFullScan(pipeline->repository(), sample),
               "indexed sharded rule matches equal a full scan");

  if (options.trace) {
    data::GeneratorConfig train_config = gen_config;
    train_config.seed = options.seed + 0x9e3779b9ULL;
    data::CatalogGenerator train_gen(train_config);
    const std::vector<LabeledItem> training =
        train_gen.GenerateMany(options.smoke ? 300 : 2000);
    std::vector<ProductItem> layer_items(
        reads.begin(),
        reads.begin() + std::min<size_t>(reads.size(), options.smoke ? 128 : 1024));
    LayerInputs layers;
    layers.training = &training;
    layers.items = &layer_items;
    layers.reference = pipeline.get();
    MeasureLayers(layers, options, tracer, result);
  }

  // Reopening the store recovers the live rule count and the composite
  // version the pipeline last served.
  const size_t live = pipeline->rule_set().CountActive();
  const uint64_t version = pipeline->repository().composite_version();
  pipeline.reset();
  if (options.trace) {
    storage::StoreOptions store_options;
    store_options.shard_count = kShards;
    const Clock::time_point reopen = Clock::now();
    auto store = storage::DurableRuleStore::Open(dir, store_options);
    result.Detail("storage.recovery_ms", SecondsSince(reopen) * 1e3, "ms");
    result.Check(store.ok(), "the store reopens on its own");
  }
  setup_start = Clock::now();
  pipeline = std::make_unique<chimera::ChimeraPipeline>(
      RulesOnlyConfig(dir));
  setup_s.push_back(SecondsSince(setup_start));
  result.Set("setup_s", Median(setup_s), "s");
  result.Check(pipeline->durable() &&
                   pipeline->rule_set().CountActive() == live &&
                   pipeline->repository().composite_version() == version,
               "reopening the store recovers the live rule count and "
               "composite version");
  pipeline.reset();
  RemoveTree(root);
  if (options.trace) FinishTrace(options, tracer);
}

}  // namespace perfbench
