// serving_zipf: RuleServer on loopback over the full pipeline with the
// hot cache on. Single-item requests are sent on a Zipf(1.2) title
// stream from this process over one connection: a sender thread sends
// each request at its due time (open loop) or when the window of
// requests in flight has room (closed loop), a receiver thread collects
// the responses.
//
// Phases: a fixed rate below saturation (open-loop request latency,
// timed from when each request was due), a ladder of rising rates (the
// highest rate whose p99 meets the latency limit), then rounds that
// alternate a closed loop with one request in flight (the gated request
// latency) and one with many in flight (the rate the server sustains).
// The admission queue is sized so that no request is refused.

#include <algorithm>
#include <condition_variable>
#include <mutex>
#include <thread>

#include "perfbench/src/inputs.h"
#include "perfbench/src/layers.h"
#include "perfbench/src/workloads.h"
#include "src/common/random.h"
#include "src/serving/client.h"
#include "src/serving/server.h"

namespace perfbench {

using namespace rulekit;

namespace {
constexpr size_t kTypes = 48;
constexpr double kZipfS = 1.2;
// The catalog, rules and training set are the same for every seed; the
// seed drives the request stream. With a seeded catalog the miss share
// moved by several points between seeds: the head of a Zipf(1.2) stream
// carries up to a fifth of the traffic on one title, and a title the
// pipeline declines is never cached.
constexpr uint64_t kCatalogSeed = 2015;
constexpr size_t kWindow = 64;  // requests in flight, throughput loop
constexpr size_t kLatencyWindow = 1;  // requests in flight, latency loop
constexpr double kFixedRate = 2000.0;    // requests/s, below saturation
constexpr double kLatencyLimitMs = 25.0;  // p99 limit of the ladder
const std::vector<double> kLadder = {4000, 8000, 16000, 32000, 48000, 64000};
// How long before a request's due time the open-loop sender stops
// sleeping and starts to spin.
constexpr auto kSpinAhead = std::chrono::microseconds(100);

chimera::PipelineConfig ServingConfig(bool cache) {
  chimera::PipelineConfig config;
  config.hot_cache.enabled = cache;
  config.hot_cache.capacity = 4096;
  config.hot_cache.admit_after = 1;
  return config;
}

serving::ServerConfig ServerSettings() {
  serving::ServerConfig config;
  config.io_threads = 2;
  config.max_pending = 1 << 17;  // never refuse: overload shows as latency
  return config;
}

/// One phase of requests, Zipf-drawn from the pool. Every field is
/// written by one thread and read only after it has been joined.
struct Phase {
  std::vector<size_t> pool_index;
  std::vector<Clock::time_point> due, sent, done;
  std::vector<serving::WireClassifyResponse> responses;
  std::vector<char> received;
  bool send_ok = true;

  size_t size() const { return pool_index.size(); }
  double LatencyMs(size_t k) const {
    return NanosBetween(due[k], done[k]) / 1e6;
  }
  std::vector<double> LatenciesMs() const {
    std::vector<double> out;
    for (size_t k = 0; k < size(); ++k) {
      if (received[k] && responses[k].code == serving::WireCode::kOk) {
        out.push_back(LatencyMs(k));
      }
    }
    return out;
  }
  size_t Failed() const {
    size_t failed = 0;
    for (size_t k = 0; k < size(); ++k) {
      if (!received[k] || responses[k].code != serving::WireCode::kOk) {
        ++failed;
      }
    }
    return failed;
  }
};

/// Sends `count` requests over `client`: open loop at `rate` per second
/// when `rate` > 0, otherwise closed loop with at most `window` requests
/// in flight. One receiver thread collects the responses.
Phase RunPhase(serving::RuleClient& client, const std::vector<ProductItem>& pool,
               uint64_t seed, double rate, size_t count, size_t window = 0) {
  Phase phase;
  Rng rng(seed);
  phase.pool_index.resize(count);
  for (size_t k = 0; k < count; ++k) {
    phase.pool_index[k] = static_cast<size_t>(rng.Zipf(pool.size(), kZipfS));
  }
  phase.due.resize(count);
  phase.sent.resize(count);
  phase.done.resize(count);
  phase.responses.resize(count);
  phase.received.assign(count, 0);

  // Responses received so far; the closed-loop sender blocks on it
  // rather than spin, so it does not take a core from the server.
  std::mutex mu;
  std::condition_variable answered_cv;
  size_t answered = 0;
  std::thread receiver([&] {
    for (size_t k = 0; k < count; ++k) {
      auto response = client.Receive();
      const Clock::time_point now = Clock::now();
      const size_t id =
          response.ok() ? static_cast<size_t>(response->request_id - 1) : count;
      if (id >= count) {
        std::lock_guard<std::mutex> lock(mu);
        answered = count;  // frees the sender
        answered_cv.notify_one();
        return;
      }
      phase.done[id] = now;
      phase.responses[id] = std::move(response).value();
      phase.received[id] = 1;
      std::lock_guard<std::mutex> lock(mu);
      ++answered;
      answered_cv.notify_one();
    }
  });
  const Clock::time_point start = Clock::now();
  for (size_t k = 0; k < count; ++k) {
    if (rate > 0.0) {
      // Sleep to just before the due time, then spin: a sender that
      // slept to the due time itself would wake late by whatever the
      // scheduler adds, and that lag would land in every latency.
      phase.due[k] = start + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(k / rate));
      std::this_thread::sleep_until(phase.due[k] - kSpinAhead);
      while (Clock::now() < phase.due[k]) {
      }
    } else {
      std::unique_lock<std::mutex> lock(mu);
      answered_cv.wait(lock, [&] { return k < answered + window; });
      phase.due[k] = Clock::now();
    }
    serving::WireClassifyRequest request;
    request.request_id = k + 1;
    request.items.push_back(pool[phase.pool_index[k]]);
    phase.sent[k] = Clock::now();
    if (!client.Send(request).ok()) {
      phase.send_ok = false;
      client.Close();  // unblocks the receiver
      break;
    }
  }
  receiver.join();
  return phase;
}

}  // namespace

void RunServingZipf(const Options& options, RunResult& result) {
  CatalogInputs in = MakeCatalogInputs(kCatalogSeed, kTypes,
                                       options.smoke ? 300 : 2000,
                                       options.smoke ? 512 : 4096);
  const std::vector<ProductItem> pool = ItemsOf(in.feed);

  std::unique_ptr<chimera::ChimeraPipeline> pipeline;
  std::unique_ptr<serving::RuleServer> server;
  result.Set("setup_s", MedianSetupSeconds(
                   SetupReps(options), SetupBudgetSeconds(options), [&] {
               server.reset();
               pipeline.reset();
               pipeline = BuildCatalogPipeline(
                   in, ServingConfig(/*cache=*/true));
               server = std::make_unique<serving::RuleServer>(*pipeline,
                                                             ServerSettings());
               result.Check(server->Start().ok(), "server starts");
             }),
             "s");

  auto connected = serving::RuleClient::Connect(server->port());
  result.Check(connected.ok(), "client connects over loopback");
  if (!connected.ok()) return;
  serving::RuleClient client = std::move(connected).value();
  // Each phase draws its titles from its own seeded stream, so a phase's
  // inputs do not depend on how far the ladder got.
  uint64_t phase_seed = options.seed * 0x2545f4914f6cdd1dULL + 17;

  // Warm the cache and the connections with one pass at the fixed rate.
  std::vector<Phase> phases;
  phases.push_back(RunPhase(client, pool, ++phase_seed, kFixedRate,
                            static_cast<size_t>(kFixedRate * 0.1 *
                                                options.seconds)));

  // ---- fixed rate: open-loop request latency, from due time --------------
  const double fixed_s = 0.3 * options.seconds;
  phases.push_back(RunPhase(client, pool, ++phase_seed, kFixedRate,
                            static_cast<size_t>(kFixedRate * fixed_s)));
  const size_t fixed_index = phases.size() - 1;
  const Phase& fixed = phases.back();
  const std::vector<double> fixed_ms = fixed.LatenciesMs();
  result.Detail("request_p50_us", Percentile(fixed_ms, 50.0) * 1e3, "us");
  result.Detail("request_p99_us", Percentile(fixed_ms, 99.0) * 1e3, "us");
  std::vector<double> lag_us;
  for (size_t k = 0; k < fixed.size(); ++k) {
    lag_us.push_back(NanosBetween(fixed.due[k], fixed.sent[k]) / 1e3);
  }
  double lag_sum = 0.0;
  for (double lag : lag_us) lag_sum += lag;
  result.Detail("serving.generator_lag_us", lag_sum / lag_us.size(), "us");
  result.Detail("serving.generator_lag_p99_us", Percentile(lag_us, 99.0),
                "us");
  // Memory of the steady state: the ladder's top rungs and the closed
  // loop queue as much as the server lets them, which is timing.
  result.Set("peak_rss_mb", PeakRssMb(), "MB");

  // ---- ladder: the highest rate whose p99 meets the limit ----------------
  const double rung_s = 0.05 * options.seconds;
  double max_rate = 0.0;
  const uint64_t ladder_seed = phase_seed;
  phase_seed += kLadder.size();  // the rounds' seeds skip every rung's
  for (size_t rung = 0; rung < kLadder.size(); ++rung) {
    const double rate = kLadder[rung];
    phases.push_back(RunPhase(client, pool, ladder_seed + 1 + rung, rate,
                              static_cast<size_t>(rate * rung_s)));
    const double p99 = Percentile(phases.back().LatenciesMs(), 99.0);
    result.Detail("ladder_p99_ms@" + std::to_string(int(rate)), p99, "ms");
    if (phases.back().Failed() != 0 || p99 > kLatencyLimitMs) break;
    max_rate = rate;
  }
  result.Detail("max_rate_rps", max_rate, "req/s");

  // ---- gated rounds: light-load latency and sustained throughput -------
  // Each round runs a closed loop with one request in flight (a request's
  // latency is then its own coalescing wait, service and wire time, not
  // the wait behind others) and then one with many in flight (the rate
  // the server sustains). Each figure is the median over rounds, so a
  // burst of contention on the host moves only the rounds it hits.
  const int rounds = options.smoke ? 2 : 10;
  std::vector<double> p50_ms, p90_ms, rates;
  size_t latency_ops = 0;
  for (int r = 0; r < rounds; ++r) {
    phases.push_back(RunPhase(client, pool, ++phase_seed, 0.0,
                              options.smoke ? 200 : 1500, kLatencyWindow));
    const std::vector<double> ms = phases.back().LatenciesMs();
    p50_ms.push_back(Percentile(ms, 50.0));
    p90_ms.push_back(Percentile(ms, 90.0));
    latency_ops += ms.size();

    phases.push_back(RunPhase(client, pool, ++phase_seed, 0.0,
                              options.smoke ? 500 : 9000, kWindow));
    const Phase& p = phases.back();
    Clock::time_point last = p.sent.front();
    for (size_t k = 0; k < p.size(); ++k) {
      if (p.received[k]) last = std::max(last, p.done[k]);
    }
    rates.push_back((p.size() - p.Failed()) /
                    (NanosBetween(p.sent.front(), last) / 1e9));
  }
  result.Set("op_p50_ms", Median(p50_ms), "ms");
  result.Set("op_p90_ms", Median(p90_ms), "ms");
  result.Detail("op_count", static_cast<double>(latency_ops), "count");
  result.Set("items_per_s", Median(rates), "items/s");
  client.Close();
  const serving::ServerStats stats = server->stats();
  server->Stop();
  result.Detail("serving.queue_wait_us", stats.queue_wait_us.Mean(), "us");
  result.Detail("serving.server_latency_us", stats.latency_us.Mean(), "us");
  result.Detail("serving.batch_size_mean", stats.batch_size.Mean(), "items");
  const engine::HotCacheCounters cache = pipeline->hot_cache()->TotalCounters();
  result.Detail("engine.cache_hit_rate",
                cache.lookups == 0 ? 0.0 : double(cache.hits) / cache.lookups,
                "ratio");
  result.Check(stats.overload_rejects() == 0 && stats.deadline_sheds == 0,
               "the server refused no request");

  // ---- every wire response equals in-process Classify, cache off ---------
  auto reference =
      BuildCatalogPipeline(in, ServingConfig(/*cache=*/false));
  chimera::ClassifyResponse expect = ClassifyAll(*reference, pool);
  result.Check(expect.ok(), "reference classification is OK");
  if (options.fault == Fault::kCorruptPrediction) {
    auto& p = phases[1].responses[0].predictions;
    if (!p.empty()) p[0] = p[0].has_value() ? std::nullopt
                                            : std::optional<std::string>("?");
  }
  // Share of the fixed-rate traffic on titles the pipeline leaves
  // unclassified: only confident winners are cached, so these always
  // run the whole stack.
  size_t unclassified = 0;
  for (size_t index : phases[fixed_index].pool_index) {
    unclassified += !expect.report.predictions[index].has_value();
  }
  result.Detail("unclassified_traffic_share",
                double(unclassified) / phases[fixed_index].size(), "ratio");
  size_t mismatches = 0;
  for (const Phase& phase : phases) {
    result.Check(phase.send_ok, "every request is sent");
    result.attempted += phase.size();
    result.failed += phase.Failed();
    for (size_t k = 0; k < phase.size(); ++k) {
      const auto& response = phase.responses[k];
      if (!phase.received[k] || response.code != serving::WireCode::kOk) {
        continue;
      }
      if (response.predictions.size() != 1 ||
          response.predictions[0] !=
              expect.report.predictions[phase.pool_index[k]]) {
        ++mismatches;
      }
    }
  }
  result.Check(mismatches == 0,
               "every wire response equals in-process Classify with the "
               "cache off (" + std::to_string(mismatches) + " differ)");

  if (options.trace) {
    Tracer tracer(true);
    std::vector<ProductItem> layer_items(
        pool.begin(),
        pool.begin() + std::min<size_t>(pool.size(), options.smoke ? 128 : 1024));
    LayerInputs layers;
    layers.training = &in.training;
    layers.items = &layer_items;
    layers.reference = reference.get();
    MeasureLayers(layers, options, tracer, result);
    FinishTrace(options, tracer);
  }
}

}  // namespace perfbench
