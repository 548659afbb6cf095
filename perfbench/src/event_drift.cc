// event_drift: the seeded SIEM event stream through StreamWindowRunner in
// windows, with vocabulary drift injected before a fixed window of each
// episode and the DriftResponder evaluated after every window. When the
// responder fires, the run waits for the retrain to land before the next
// window, so the recovery is attributable to a window. This is the
// workload that runs the trainer, the quality monitor, crowd sampling and
// the responder.

#include <algorithm>

#include "perfbench/src/inputs.h"
#include "perfbench/src/layers.h"
#include "perfbench/src/workloads.h"
#include "src/chimera/analyst.h"
#include "src/chimera/monitor.h"
#include "src/chimera/stream_window.h"
#include "src/data/event_stream.h"
#include "src/maint/drift_responder.h"

namespace perfbench {

using namespace rulekit;

namespace {
constexpr size_t kWarmupLines = 400;
constexpr size_t kWindowLines = 200;
constexpr size_t kDriftWindow = 4;     // drift is injected before this one
constexpr size_t kEpisodeWindows = 16;  // long enough to recover
// Ground-truth accuracy floors of the windows after recovery: the median
// over a run's episodes, and every single episode. An episode can be
// declared recovered on a 64-item sample whose estimate clears the 0.92
// threshold while its true accuracy sits lower.
constexpr double kRecoveredAccuracyFloor = 0.95;
constexpr double kEpisodeAccuracyFloor = 0.80;

data::EventStreamConfig StreamConfig(uint64_t seed) {
  data::EventStreamConfig config;
  config.seed = seed;
  return config;
}

struct DriftSetup {
  std::unique_ptr<data::EventStreamGenerator> stream;
  std::unique_ptr<chimera::ChimeraPipeline> pipeline;
  std::vector<LabeledItem> warmup;
};

DriftSetup BuildDriftPipeline(uint64_t seed) {
  DriftSetup s;
  s.stream = std::make_unique<data::EventStreamGenerator>(StreamConfig(seed));
  s.pipeline = std::make_unique<chimera::ChimeraPipeline>();
  Status st = s.pipeline->AddRules(chimera::WriteEventRules(*s.stream),
                                   "analyst");
  if (!st.ok()) {
    std::fprintf(stderr, "rule load failed: %s\n", st.ToString().c_str());
    std::exit(2);
  }
  s.warmup = s.stream->GenerateMany(kWarmupLines);
  s.pipeline->AddTrainingData(s.warmup);
  s.pipeline->RetrainLearning();
  return s;
}

}  // namespace

/// Per-episode figures of the windows loop.
struct Episode {
  bool recovered = false;
  size_t fires = 0;
  double recovery_s = 0.0;
  size_t recovery_windows = 0;
  double retrain_ms = 0.0;
  double recovered_accuracy = 0.0;
};

void RunEventDrift(const Options& options, RunResult& result) {
  // Rounds of whole drift episodes, each on a freshly set-up pipeline
  // with its own seeded stream: the episode's set-up time is a setup_s
  // sample, its windows are the operations, and its recovery time a
  // recovery_s sample. Memory stays bounded by one episode.
  Tracer tracer(options.trace);
  std::vector<double> setup_s, window_ms, window_items, run_window_ms,
      eval_us;
  std::vector<Episode> episodes;
  size_t bad_windows = 0;
  const size_t window_lines = options.smoke ? 60 : kWindowLines;
  const Clock::time_point start = Clock::now();
  while (episodes.empty() || SecondsSince(start) < options.seconds) {
    const uint64_t episode_seed = options.seed * 7919 + episodes.size();
    const Clock::time_point s0 = Clock::now();
    DriftSetup setup = BuildDriftPipeline(episode_seed);
    setup_s.push_back(SecondsSince(s0));
    data::EventStreamGenerator& stream = *setup.stream;
    chimera::QualityMonitor monitor;  // 0.92 degradation threshold
    chimera::StreamWindowOptions window_options;
    window_options.sample_size = 64;
    window_options.seed = episode_seed + 4242;
    chimera::StreamWindowRunner runner(*setup.pipeline, monitor,
                                       window_options);
    maint::DriftResponder responder(*setup.pipeline, monitor, {});
    const double threshold = monitor.threshold();

    Episode ep;
    Clock::time_point drift_start{};
    std::vector<double> accuracy_after;
    for (size_t w = 0; w < kEpisodeWindows; ++w) {
      if (w == kDriftWindow) {
        data::EventDriftOptions drift;
        drift.kind = data::EventDriftKind::kVocabulary;
        drift.drift_share = 0.9;
        drift.seed = episode_seed + 23;
        stream.InjectDrift(drift, stream.specs().size() / 2);
      }
      // The window's lines are generated before its clock starts.
      const std::vector<LabeledItem> lines = stream.GenerateMany(window_lines);
      const Clock::time_point t0 = Clock::now();
      if (w == kDriftWindow) drift_start = t0;
      ScopedSpan op(tracer, "op.window", 0, lines.size());
      chimera::WindowResult window;
      {
        ScopedSpan span(tracer, "chimera.window", op.id(), lines.size());
        const Clock::time_point r0 = Clock::now();
        window = runner.RunWindow(lines);
        run_window_ms.push_back(SecondsSince(r0) * 1e3);
      }
      if (options.fault != Fault::kSkipRetrain) {
        ScopedSpan span(tracer, "maint.responder_eval", op.id());
        const size_t before = responder.fires();
        const Clock::time_point e0 = Clock::now();
        responder.EvaluateNow();
        eval_us.push_back(SecondsSince(e0) * 1e6);
        if (responder.fires() > before) {
          auto retrain = responder.LastRetrain("");
          if (retrain.has_value()) {
            ScopedSpan wait(tracer, "chimera.retrain_wait", op.id());
            ep.retrain_ms = retrain->get().duration_ms;
          }
        }
      }
      window_ms.push_back(SecondsSince(t0) * 1e3);
      window_items.push_back(static_cast<double>(lines.size()));
      ++result.attempted;
      if (!window.status.ok()) {
        ++result.failed;
        continue;
      }
      if (!OutcomesSumToTotal(window.report)) ++bad_windows;
      if (ep.recovered) {
        accuracy_after.push_back(window.true_accuracy);
      } else if (w > kDriftWindow && responder.fires() > 0 &&
                 window.quality.precision.estimate >= threshold) {
        ep.recovered = true;
        ep.recovery_windows = w - kDriftWindow + 1;
        ep.recovery_s = SecondsSince(drift_start);
      }
    }
    ep.fires = responder.fires();
    ep.recovered_accuracy =
        accuracy_after.empty() ? 0.0 : Median(accuracy_after);
    episodes.push_back(ep);
  }

  SetThroughput(result, window_items, window_ms);
  // One segment per two whole episodes (a 25 s run holds 70-100), so
  // every segment has the same mix of pre- and post-drift windows and a
  // stall of the host moves only the few segments it hits.
  SetOpLatency(result, window_ms, 2 * kEpisodeWindows, 99);
  result.Set("setup_s", Median(setup_s), "s");
  result.Set("peak_rss_mb", PeakRssMb(), "MB");
  std::vector<double> recovery_s, recovery_windows, retrain_ms, accuracy;
  size_t unrecovered = 0, wrong_fires = 0, inaccurate = 0;
  for (const Episode& ep : episodes) {
    unrecovered += !ep.recovered;
    wrong_fires += ep.fires != 1;
    if (!ep.recovered) continue;
    inaccurate += ep.recovered_accuracy < kEpisodeAccuracyFloor;
    recovery_s.push_back(ep.recovery_s);
    recovery_windows.push_back(static_cast<double>(ep.recovery_windows));
    retrain_ms.push_back(ep.retrain_ms);
    accuracy.push_back(ep.recovered_accuracy);
  }
  result.Detail("episodes", static_cast<double>(episodes.size()), "count");
  result.Detail("recovery_s", Median(recovery_s), "s");
  result.Detail("recovery_windows", Median(recovery_windows), "count");
  result.Detail("recovered_accuracy", Median(accuracy), "ratio");
  result.Detail("recovered_accuracy_min",
                accuracy.empty() ? 0.0
                                 : *std::min_element(accuracy.begin(),
                                                     accuracy.end()),
                "ratio");
  result.Detail("chimera.retrain_ms", Median(retrain_ms), "ms");
  result.Detail("chimera.window_ms", Median(run_window_ms), "ms");
  result.Detail("maint.responder_eval_us", Median(eval_us), "us");
  result.Check(bad_windows == 0, "every window's outcome counts sum to total");
  // Not every episode ends healthy. In a few (about 1 in 600 over seeds
  // 1-20) the one retrain leaves the true accuracy at 0.78-0.87 and the
  // responder's cooldown allows no second one within the episode: the
  // episode either never clears the precision threshold, or clears it on
  // one 64-item sample and stays below the 0.80 accuracy floor. Which
  // episodes do depends on the seed, so they are counted, not failed;
  // at most one episode in 20 of a run may fall short.
  result.Detail("unrecovered_episodes", static_cast<double>(unrecovered),
                "count");
  result.Detail("inaccurate_episodes", static_cast<double>(inaccurate),
                "count");
  result.Check(20 * (unrecovered + inaccurate) <= episodes.size(),
               "at most one episode in 20 stays below the precision "
               "threshold or the accuracy floor after recovery (" +
                   std::to_string(unrecovered) + " unrecovered, " +
                   std::to_string(inaccurate) + " below the floor)");
  result.Check(wrong_fires == 0,
               "exactly one retrain per drift episode (" +
                   std::to_string(wrong_fires) + " episodes differ)");
  result.Check(!accuracy.empty() && Median(accuracy) >= kRecoveredAccuracyFloor,
               "median ground-truth accuracy after recovery >= floor");

  DriftSetup last = BuildDriftPipeline(options.seed * 7919);
  std::vector<ProductItem> sample;
  for (const auto& li : last.stream->GenerateMany(256)) {
    sample.push_back(li.item);
  }
  result.Check(IndexMatchesFullScan(last.pipeline->repository(), sample),
               "indexed sharded rule matches equal a full scan");

  if (options.trace) {
    // The episodes' pipelines retrained on stream samples; the layer
    // stack is compared against a fresh pipeline of the set-up's making.
    DriftSetup& fresh = last;
    std::vector<ProductItem> layer_items;
    for (const auto& li : fresh.stream->GenerateMany(options.smoke ? 128 : 1024)) {
      layer_items.push_back(li.item);
    }
    LayerInputs layers;
    layers.training = &fresh.warmup;
    layers.items = &layer_items;
    layers.reference = fresh.pipeline.get();
    MeasureLayers(layers, options, tracer, result);
    FinishTrace(options, tracer);
  }
}

}  // namespace perfbench
