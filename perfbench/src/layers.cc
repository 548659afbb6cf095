#include "perfbench/src/layers.h"

#include <unistd.h>

#include <algorithm>

#include "src/chimera/gate_keeper.h"
#include "src/chimera/voting.h"
#include "src/common/binary_codec.h"
#include "src/common/string_util.h"
#include "src/engine/hot_cache.h"
#include "src/engine/sharded_classifier.h"
#include "src/ml/ensemble.h"
#include "src/ml/features.h"
#include "src/ml/knn.h"
#include "src/ml/logreg.h"
#include "src/ml/naive_bayes.h"
#include "src/serving/wire.h"
#include "src/storage/codec.h"
#include "src/storage/wal.h"

namespace perfbench {

using namespace rulekit;

namespace {

constexpr size_t kBatch = 256;

/// Receives a checksum of the timed probes' results, so no call can be
/// optimized away.
volatile size_t g_sink = 0;

/// A voting member that returns scores computed earlier by the real
/// member, so VoteBatch times only the combination and the decision.
class ReplayMember : public ml::Classifier {
 public:
  explicit ReplayMember(std::string name) : name_(std::move(name)) {}
  void Load(std::vector<std::vector<ml::ScoredLabel>> scores) {
    scores_ = std::move(scores);
  }
  std::vector<ml::ScoredLabel> Predict(const data::ProductItem&) const override {
    return {};  // VoteBatch goes through PredictBatch only
  }
  std::vector<std::vector<ml::ScoredLabel>> PredictBatch(
      const std::vector<const data::ProductItem*>&,
      ThreadPool*) const override {
    return std::move(scores_);  // loaded once per batch, read once
  }
  std::string name() const override { return name_; }

 private:
  std::string name_;
  mutable std::vector<std::vector<ml::ScoredLabel>> scores_;
};

struct Stack {
  std::vector<std::shared_ptr<const engine::RuleBasedClassifier>> rule_shards;
  std::vector<std::shared_ptr<const engine::AttrValueClassifier>> attr_shards;
  std::vector<std::shared_ptr<const chimera::Filter>> filter_shards;
  std::unique_ptr<engine::ShardedRuleClassifier> rules;
  std::unique_ptr<engine::ShardedAttrValueClassifier> attr;
  std::unique_ptr<chimera::ShardedFilter> filter;
  std::shared_ptr<ml::FeatureExtractor> features;
  std::shared_ptr<ml::NaiveBayesClassifier> nb;
  std::shared_ptr<ml::KnnClassifier> knn;
  std::shared_ptr<ml::LogRegClassifier> logreg;
  std::shared_ptr<ml::EnsembleClassifier> ensemble;
  std::shared_ptr<ReplayMember> rule_replay, attr_replay, ml_replay;
  std::unique_ptr<chimera::VotingMaster> voting;
  bool learning = false;
};

/// One batch through the recomposed stack, under a "batch" span with one
/// child span per layer call.
std::vector<std::optional<std::string>> ClassifyLayered(
    const Stack& stack, const chimera::GateKeeper& gate,
    std::span<const ProductItem> batch, Tracer& tracer, size_t* evaluations) {
  const uint32_t root = tracer.Begin("batch", 0, batch.size());
  std::vector<std::optional<std::string>> out(batch.size());
  std::vector<const ProductItem*> pass;
  std::vector<size_t> pass_idx;
  {
    ScopedSpan span(tracer, "chimera.gate", root, batch.size());
    for (size_t i = 0; i < batch.size(); ++i) {
      chimera::GateDecision d = gate.Decide(batch[i]);
      if (d.kind == chimera::GateDecision::Kind::kPass) {
        pass.push_back(&batch[i]);
        pass_idx.push_back(i);
      } else if (d.kind == chimera::GateDecision::Kind::kClassified) {
        out[i] = d.type;
      }
    }
  }
  engine::ShardedExecution exec;
  {
    ScopedSpan span(tracer, "engine.rule_match", root, pass.size());
    exec = stack.rules->MatchBatch(pass, nullptr);
  }
  *evaluations += exec.total_evaluations();
  std::vector<std::vector<ml::ScoredLabel>> rule_scored(pass.size());
  {
    ScopedSpan span(tracer, "engine.rule_score", root, pass.size());
    for (size_t j = 0; j < pass.size(); ++j) {
      rule_scored[j] = stack.rules->ScoreMatches(exec, j);
    }
  }
  std::vector<std::vector<ml::ScoredLabel>> attr_scored(pass.size());
  {
    ScopedSpan span(tracer, "engine.attr", root, pass.size());
    for (size_t j = 0; j < pass.size(); ++j) {
      attr_scored[j] = stack.attr->Predict(*pass[j]);
    }
  }
  std::vector<std::vector<ml::ScoredLabel>> ml_scored;
  if (stack.learning) {
    ScopedSpan span(tracer, "ml.ensemble", root, pass.size());
    ml_scored.resize(pass.size());
    for (size_t j = 0; j < pass.size(); ++j) {
      ml_scored[j] = stack.ensemble->Predict(*pass[j]);
    }
  }
  std::vector<std::optional<ml::ScoredLabel>> votes;
  {
    // Replay members hand back the scores above: the span covers the
    // weighted combination and the threshold/margin decision.
    stack.rule_replay->Load(std::move(rule_scored));
    stack.attr_replay->Load(std::move(attr_scored));
    if (stack.learning) stack.ml_replay->Load(std::move(ml_scored));
    ScopedSpan span(tracer, "chimera.vote", root, pass.size());
    votes = stack.voting->VoteBatch(pass, nullptr);
  }
  {
    ScopedSpan span(tracer, "chimera.filter", root, pass.size());
    for (size_t j = 0; j < pass.size(); ++j) {
      if (!votes[j].has_value()) continue;
      if (stack.filter->AdmitWithMatches(*pass[j], votes[j]->label, exec, j)) {
        out[pass_idx[j]] = votes[j]->label;
      }
    }
  }
  tracer.End(root);
  return out;
}

Stack BuildStack(const LayerInputs& in, RunResult& result) {
  Stack stack;
  const chimera::PipelineConfig& config = in.reference->config();
  stack.learning = config.use_learning;
  std::vector<double> build_ms;
  for (size_t s = 0; s < in.reference->repository().shard_count(); ++s) {
    rules::ShardSnapshot snap =
        in.reference->repository().ShardSnapshotOf(rules::ShardKey(static_cast<uint32_t>(s)));
    const Clock::time_point start = Clock::now();
    auto clf = std::make_shared<engine::RuleBasedClassifier>(snap.rules);
    build_ms.push_back(SecondsSince(start) * 1e3);
    stack.rule_shards.push_back(std::move(clf));
    stack.attr_shards.push_back(
        std::make_shared<engine::AttrValueClassifier>(snap.rules));
    stack.filter_shards.push_back(std::make_shared<chimera::Filter>(snap.rules));
  }
  double total_ms = 0.0;
  for (double ms : build_ms) total_ms += ms;
  result.Set("engine.shard_build_ms", total_ms / build_ms.size(), "ms");
  stack.rules = std::make_unique<engine::ShardedRuleClassifier>(stack.rule_shards);
  stack.attr =
      std::make_unique<engine::ShardedAttrValueClassifier>(stack.attr_shards);
  stack.filter = std::make_unique<chimera::ShardedFilter>(stack.filter_shards);

  const Clock::time_point train_start = Clock::now();
  stack.features = std::make_shared<ml::FeatureExtractor>();
  stack.nb = std::make_shared<ml::NaiveBayesClassifier>(stack.features);
  stack.nb->Train(*in.training);
  stack.knn = std::make_shared<ml::KnnClassifier>(stack.features, 7);
  stack.knn->Train(*in.training);
  stack.logreg = std::make_shared<ml::LogRegClassifier>(stack.features);
  stack.logreg->Train(*in.training);
  stack.ensemble = std::make_shared<ml::EnsembleClassifier>();
  stack.ensemble->AddMember(stack.nb);
  stack.ensemble->AddMember(stack.knn);
  stack.ensemble->AddMember(stack.logreg);
  result.Set("ml.train_ms", SecondsSince(train_start) * 1e3, "ms");

  stack.rule_replay = std::make_shared<ReplayMember>("rule_based");
  stack.attr_replay = std::make_shared<ReplayMember>("attr_value");
  stack.ml_replay = std::make_shared<ReplayMember>("ensemble");
  stack.voting = std::make_unique<chimera::VotingMaster>(config.voting);
  stack.voting->AddMember(stack.rule_replay, config.rule_weight);
  stack.voting->AddMember(stack.attr_replay, config.attr_weight);
  if (stack.learning) {
    stack.voting->AddMember(stack.ml_replay, config.learning_weight);
  }
  return stack;
}

/// Mean ns per call of `fn(item)` over `items`, under one span.
template <typename Fn>
double TimePerItem(Tracer& tracer, const char* name,
                   const std::vector<ProductItem>& items, Fn&& fn) {
  ScopedSpan span(tracer, name, 0, items.size());
  const Clock::time_point start = Clock::now();
  for (const auto& item : items) fn(item);
  return NanosBetween(start, Clock::now()) / static_cast<double>(items.size());
}

}  // namespace

void MeasureLayers(const LayerInputs& in, const Options& options,
                   Tracer& tracer, RunResult& result) {
  Stack stack = BuildStack(in, result);
  const std::vector<ProductItem>& items = *in.items;
  chimera::GateKeeper gate;

  // ---- recomposition check against the pipeline --------------------------
  chimera::ClassifyResponse reference = ClassifyAll(*in.reference, items);
  size_t evaluations = 0;
  std::vector<std::optional<std::string>> layered;
  Tracer off(false);
  for (size_t begin = 0; begin < items.size(); begin += kBatch) {
    const size_t end = std::min(items.size(), begin + kBatch);
    auto part = ClassifyLayered(
        stack, gate, std::span(items).subspan(begin, end - begin), off,
        &evaluations);
    layered.insert(layered.end(), part.begin(), part.end());
  }
  if (options.fault == Fault::kCorruptPrediction && !layered.empty()) {
    layered[0] = layered[0].has_value() ? std::nullopt
                                        : std::optional<std::string>("?");
  }
  size_t mismatches = 0;
  for (size_t i = 0; i < items.size(); ++i) {
    if (layered[i] != reference.report.predictions[i]) ++mismatches;
  }
  result.Check(reference.ok() && mismatches == 0,
               "recomposed layers reproduce the pipeline's predictions (" +
                   std::to_string(mismatches) + " mismatches)");
  result.Check(evaluations == reference.report.rules_executed,
               "recomposed rule evaluations equal BatchReport.rules_executed");
  result.Set("engine.rules_executed_per_item",
             reference.report.ExecutedRulesPerItem(), "count");

  // ---- layered loop, alternately untraced and traced ----------------------
  // Whole passes over the items; the traced passes' spans give per-layer
  // time, the untraced passes the same work without span recording.
  const int passes = options.smoke ? 1 : 2;
  double untraced_s = 0.0, traced_s = 0.0;
  for (int p = 0; p < 2 * passes; ++p) {
    Tracer& t = (p % 2 == 1) ? tracer : off;
    const Clock::time_point start = Clock::now();
    for (size_t begin = 0; begin < items.size(); begin += kBatch) {
      const size_t end = std::min(items.size(), begin + kBatch);
      (void)ClassifyLayered(stack, gate,
                            std::span(items).subspan(begin, end - begin), t,
                            &evaluations);
    }
    (p % 2 == 1 ? traced_s : untraced_s) += SecondsSince(start);
  }
  result.Set("trace.overhead_pct", (traced_s - untraced_s) / untraced_s * 100.0,
             "%");

  auto totals = tracer.Summarize();
  auto per_item = [&](const char* span) {
    auto it = totals.find(span);
    if (it == totals.end() || it->second.items == 0) return 0.0;
    return it->second.self_ns / static_cast<double>(it->second.items);
  };
  result.Set("chimera.gate_ns_per_item", per_item("chimera.gate"), "ns");
  result.Set("engine.rule_match_ns_per_item", per_item("engine.rule_match"),
             "ns");
  result.Set("engine.rule_score_ns_per_item", per_item("engine.rule_score"),
             "ns");
  result.Set("engine.attr_ns_per_item", per_item("engine.attr"), "ns");
  result.Set("chimera.vote_ns_per_item", per_item("chimera.vote"), "ns");
  result.Set("chimera.filter_ns_per_item", per_item("chimera.filter"), "ns");
  // Batch self time: the recomposition's own glue between layers.
  result.Detail("trace.batch_self_ns_per_item", per_item("batch"), "ns");
  if (stack.learning) {
    result.Detail("trace.ensemble_in_loop_ns_per_item", per_item("ml.ensemble"),
                  "ns");
  }

  // ---- learning members, one at a time -----------------------------------
  // Timed on every workload, including one whose pipeline bypasses
  // learning (there the figures are off the blocking path).
  std::vector<ProductItem> ml_items(
      items.begin(), items.begin() + std::min<size_t>(items.size(),
                                                      options.smoke ? 64 : 1024));
  size_t sink = 0;
  result.Set("ml.featurize_ns_per_item",
             TimePerItem(tracer, "ml.featurize", ml_items,
                         [&](const ProductItem& item) {
                           sink += stack.features->LookupFeatureIds(item).size();
                         }),
             "ns");
  result.Set("ml.naive_bayes_ns_per_item",
             TimePerItem(tracer, "ml.naive_bayes", ml_items,
                         [&](const ProductItem& item) {
                           sink += stack.nb->Predict(item).size();
                         }),
             "ns");
  result.Set("ml.knn_ns_per_item",
             TimePerItem(tracer, "ml.knn", ml_items,
                         [&](const ProductItem& item) {
                           sink += stack.knn->Predict(item).size();
                         }),
             "ns");
  result.Set("ml.logreg_ns_per_item",
             TimePerItem(tracer, "ml.logreg", ml_items,
                         [&](const ProductItem& item) {
                           sink += stack.logreg->Predict(item).size();
                         }),
             "ns");
  result.Set("ml.ensemble_ns_per_item",
             TimePerItem(tracer, "ml.ensemble_predict", ml_items,
                         [&](const ProductItem& item) {
                           sink += stack.ensemble->Predict(item).size();
                         }),
             "ns");

  // ---- hot result cache: lookups of admitted titles -----------------------
  {
    engine::HotCacheConfig cache_config;
    cache_config.capacity = 4096;
    cache_config.admit_after = 1;
    engine::HotResultCache cache(cache_config);
    const engine::VersionTag tag{1, 1};
    std::vector<std::string> keys;
    for (const auto& item : ml_items) keys.push_back(ToLowerAscii(item.title));
    for (const auto& key : keys) (void)cache.Record(key, "t", tag);
    ScopedSpan span(tracer, "engine.cache_lookup", 0, keys.size());
    const Clock::time_point start = Clock::now();
    for (const auto& key : keys) sink += cache.Lookup(key, tag).hit;
    result.Set("engine.cache_lookup_ns",
               NanosBetween(start, Clock::now()) / keys.size(), "ns");
  }

  // ---- wire codec: single-item classify requests --------------------------
  {
    std::vector<std::string> payloads;
    payloads.reserve(ml_items.size());
    Clock::time_point start = Clock::now();
    {
      ScopedSpan span(tracer, "serving.wire_encode", 0, ml_items.size());
      for (size_t i = 0; i < ml_items.size(); ++i) {
        serving::WireClassifyRequest request;
        request.request_id = i + 1;
        request.items.push_back(ml_items[i]);
        Encoder enc;
        serving::EncodeRequestPayload(request, enc);
        payloads.push_back(enc.Release());
      }
    }
    result.Set("serving.wire_encode_ns",
               NanosBetween(start, Clock::now()) / ml_items.size(), "ns");
    size_t decoded_ok = 0;
    start = Clock::now();
    {
      ScopedSpan span(tracer, "serving.wire_decode", 0, payloads.size());
      for (const auto& payload : payloads) {
        auto decoded = serving::DecodeRequestPayload(payload);
        decoded_ok += decoded.ok() && decoded->items.size() == 1;
      }
    }
    result.Set("serving.wire_decode_ns",
               NanosBetween(start, Clock::now()) / payloads.size(), "ns");
    result.Check(decoded_ok == payloads.size(),
                 "every encoded request decodes to one item");
  }

  // ---- rule commits on a standalone 8-shard repository, no publish --------
  std::vector<std::string> records;
  {
    rules::RuleRepository repo(8);
    std::shared_ptr<const rules::RuleSet> merged = in.reference->repository().snapshot();
    Status st = repo.Mutate("seed", [&](rules::RuleRepository::Transaction& tx) {
      for (const Rule& rule : merged->rules()) {
        RULEKIT_RETURN_IF_ERROR(tx.Add(rule));
      }
      return Status::OK();
    });
    result.Check(st.ok(), "standalone repository loads the workload's rules");
    repo.SetJournal([&](const rules::CommitRecord& record) {
      Encoder enc;
      storage::EncodeCommitRecord(record, enc);
      records.push_back(enc.Release());
      return Status::OK();
    });
    const size_t commits = options.smoke ? 20 : 400;
    ScopedSpan span(tracer, "rules.commit", 0, commits);
    const Clock::time_point start = Clock::now();
    for (size_t i = 0; i < commits; ++i) {
      auto rule = Rule::Whitelist("probe-commit-" + std::to_string(i),
                                  "commitprobe" + std::to_string(i), "probe");
      st = repo.Mutate("bench", [&](rules::RuleRepository::Transaction& tx) {
        return tx.Add(*rule);
      });
      if (!st.ok()) break;
    }
    result.Set("rules.commit_us",
               NanosBetween(start, Clock::now()) / commits / 1e3, "us");
    result.Check(st.ok(), "standalone single-rule commits succeed");
  }

  // ---- WAL append + sync of edit-sized records ----------------------------
  {
    const std::string dir = std::string(kOutDir) + "/wal-probe-" +
                            std::to_string(::getpid());
    MakeDirs(dir);
    auto wal = storage::WriteAheadLog::Open(dir + "/wal-0",
                                            storage::FsyncPolicy::kEveryCommit);
    bool ok = wal.ok() && !records.empty();
    const size_t appends = options.smoke ? 20 : 200;
    double total_ns = 0.0;
    if (ok) {
      ScopedSpan span(tracer, "storage.wal_append", 0, appends);
      const Clock::time_point start = Clock::now();
      for (size_t i = 0; i < appends && ok; ++i) {
        ok = wal->Append(records[i % records.size()]).ok() && wal->Sync().ok();
      }
      total_ns = NanosBetween(start, Clock::now());
      wal->Close();
    }
    result.Check(ok, "WAL appends and syncs succeed");
    result.Set("storage.wal_append_us", total_ns / appends / 1e3, "us");
    RemoveTree(dir);
  }
  g_sink = sink;
}

}  // namespace perfbench
