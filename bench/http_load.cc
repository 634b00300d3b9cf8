// http_load — closed-loop load generator for the HTTP serving front end
// (src/net/), end to end over real sockets.
//
// Stands up the full in-process stack — sharded runtime (fallback tiers; the
// model tier is deliberately absent so the wire cost, not GEMM time,
// dominates), estimate service, poll-based event loop on 127.0.0.1 — then
// drives POST /estimate from N keep-alive connections, each a closed-loop
// client thread serializing a fixed pool of plan texts. The deadline mix is
// 80% generous / 20% already-expired (X-Deadline-Ms ~ 0), so the degraded
// path stays exercised under load. One scenario per connection count in
// {1, 4, 8, 16}; each reports wire-level QPS, client-observed latency
// percentiles, shed rate (non-200 responses), and the server's own counters.
// A final phase measures graceful-drain latency with requests genuinely in
// flight (a wide batch window parks them in the micro-batcher mid-drain).
//
// Writes BENCH_http.json (path = argv[1], default ./BENCH_http.json) via the
// shared bench JSON writer. PRESTROID_BENCH_SCALE=full scales up the request
// count.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "bench_json.h"
#include "cost/serving_estimator.h"
#include "net/estimate_service.h"
#include "net/http_client.h"
#include "net/http_server.h"
#include "net/signal_handler.h"
#include "plan/plan_text.h"
#include "serve/sharded_runtime.h"
#include "util/histogram.h"

namespace prestroid {
namespace {

/// Every fifth request carries an effectively-expired deadline, keeping the
/// deadline-skip/degradation path hot under load (the paper's availability
/// story is the fallback chain, so the bench must measure it, not avoid it).
constexpr double kGenerousDeadlineMs = 60000.0;
constexpr double kTightDeadlineMs = 1e-6;

/// The full in-process serving stack behind one ephemeral port.
struct Stack {
  Stack(const std::vector<workload::QueryRecord>& records, size_t shards,
        size_t max_connections, size_t batch_window_us) {
    std::vector<cost::ServingEstimator*> raw;
    for (size_t s = 0; s < shards; ++s) {
      auto estimator = std::make_unique<cost::ServingEstimator>();
      PRESTROID_CHECK(estimator->FitFallbacks(records).ok());
      raw.push_back(estimator.get());
      estimators.push_back(std::move(estimator));
    }
    serve::ShardedRuntimeConfig runtime_config;
    runtime_config.shards = shards;
    runtime_config.shard.queue_depth = 512;
    runtime_config.shard.max_batch = 64;
    runtime_config.shard.batch_window_us = batch_window_us;
    runtime = std::make_unique<serve::ShardedServingRuntime>(raw,
                                                             runtime_config);
    PRESTROID_CHECK(runtime->Start().ok());
    net::HttpServerConfig server_config;
    server_config.host = "127.0.0.1";
    server_config.port = 0;
    server_config.max_connections = max_connections;
    server = std::make_unique<net::HttpServer>(server_config);
    PRESTROID_CHECK(server->Start().ok());
    service = std::make_unique<net::EstimateService>(runtime.get());
    service->RegisterRoutes(server.get());
    loop = std::thread([this]() { PRESTROID_CHECK(server->Run().ok()); });
  }

  ~Stack() { Stop(); }

  void Stop() {
    if (loop.joinable()) {
      server->RequestDrain();
      loop.join();
      runtime->Shutdown();
      service->Shutdown();
    }
  }

  std::vector<std::unique_ptr<cost::ServingEstimator>> estimators;
  std::unique_ptr<serve::ShardedServingRuntime> runtime;
  std::unique_ptr<net::HttpServer> server;
  std::unique_ptr<net::EstimateService> service;
  std::thread loop;
};

struct ClientOutcome {
  LatencyHistogram latency;
  size_t ok_responses = 0;
  size_t shed_responses = 0;   // 429/503: admission or drain shed
  size_t error_responses = 0;  // anything else non-200
  size_t degraded = 0;
};

/// One connection's closed loop: serialize requests on a keep-alive
/// connection, measuring send->parsed-response wall time per request.
ClientOutcome RunClient(uint16_t port, const std::vector<std::string>& bodies,
                        std::atomic<size_t>& next, size_t total_requests) {
  ClientOutcome outcome;
  net::HttpClient client("127.0.0.1", port);
  for (;;) {
    const size_t i = next.fetch_add(1);
    if (i >= total_requests) break;
    const bool tight = i % 5 == 4;
    const std::string deadline =
        StrFormat("%g", tight ? kTightDeadlineMs : kGenerousDeadlineMs);
    const auto start = std::chrono::steady_clock::now();
    auto response = client.Post("/estimate", bodies[i % bodies.size()],
                                {{"X-Deadline-Ms", deadline}});
    const double elapsed_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - start)
            .count();
    if (!response.ok()) {
      ++outcome.error_responses;
      continue;
    }
    outcome.latency.Record(elapsed_ms);
    if (response->code == 200) {
      ++outcome.ok_responses;
      if (response->body.find("\"degraded\": true") != std::string::npos) {
        ++outcome.degraded;
      }
    } else if (response->code == 429 || response->code == 503) {
      ++outcome.shed_responses;
    } else {
      ++outcome.error_responses;
    }
  }
  return outcome;
}

struct ScenarioResult {
  size_t connections = 0;
  size_t requests = 0;
  double elapsed_s = 0.0;
  double qps = 0.0;
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
  double shed_rate = 0.0;
  size_t ok_responses = 0;
  size_t shed_responses = 0;
  size_t error_responses = 0;
  size_t degraded = 0;
  net::HttpServerStats http;
  cost::ServingStats serving;
};

ScenarioResult RunScenario(const std::vector<workload::QueryRecord>& records,
                           const std::vector<std::string>& bodies,
                           size_t connections, size_t total_requests,
                           size_t shards) {
  Stack stack(records, shards, /*max_connections=*/2 * connections + 8,
              /*batch_window_us=*/200);
  std::atomic<size_t> next{0};
  std::vector<ClientOutcome> outcomes(connections);
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> clients;
  clients.reserve(connections);
  for (size_t c = 0; c < connections; ++c) {
    clients.emplace_back([&, c]() {
      outcomes[c] =
          RunClient(stack.server->port(), bodies, next, total_requests);
    });
  }
  for (std::thread& t : clients) t.join();
  const double elapsed_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  ScenarioResult result;
  result.connections = connections;
  result.requests = total_requests;
  result.elapsed_s = elapsed_s;
  result.qps = static_cast<double>(total_requests) / elapsed_s;
  LatencyHistogram merged;
  for (ClientOutcome& outcome : outcomes) {
    merged.Merge(outcome.latency);
    result.ok_responses += outcome.ok_responses;
    result.shed_responses += outcome.shed_responses;
    result.error_responses += outcome.error_responses;
    result.degraded += outcome.degraded;
  }
  result.p50_ms = merged.Percentile(50.0);
  result.p95_ms = merged.Percentile(95.0);
  result.p99_ms = merged.Percentile(99.0);
  result.shed_rate = static_cast<double>(result.shed_responses) /
                     static_cast<double>(total_requests);
  result.http = stack.server->StatsSnapshot();
  result.serving = stack.runtime->StatsSnapshot();
  stack.Stop();
  return result;
}

struct DrainResult {
  size_t in_flight = 0;
  size_t served = 0;
  double drain_latency_ms = 0.0;
  size_t forced_closes = 0;
  bool signal_path = false;
};

/// Measures drain latency with requests genuinely in flight: a wide batch
/// window parks them in the micro-batcher, the drain begins via the real
/// signal path (SignalHandler::Notify -> self-pipe -> event loop), and every
/// parked request must still be answered 200 before the loop exits.
DrainResult MeasureDrain(const std::vector<workload::QueryRecord>& records,
                         const std::vector<std::string>& bodies,
                         size_t in_flight) {
  net::SignalHandler signals;
  const bool installed = signals.Install().ok();
  std::vector<cost::ServingEstimator*> raw;
  std::vector<std::unique_ptr<cost::ServingEstimator>> estimators;
  auto estimator = std::make_unique<cost::ServingEstimator>();
  PRESTROID_CHECK(estimator->FitFallbacks(records).ok());
  raw.push_back(estimator.get());
  estimators.push_back(std::move(estimator));
  serve::ShardedRuntimeConfig runtime_config;
  runtime_config.shard.batch_window_us = 100000;  // park requests 100ms
  runtime_config.shard.max_batch = 2 * in_flight;
  serve::ShardedServingRuntime runtime(raw, runtime_config);
  PRESTROID_CHECK(runtime.Start().ok());
  net::HttpServerConfig server_config;
  server_config.host = "127.0.0.1";
  server_config.port = 0;
  net::HttpServer server(server_config);
  PRESTROID_CHECK(server.Start().ok());
  net::EstimateService service(&runtime);
  service.RegisterRoutes(&server);
  std::thread loop([&]() {
    PRESTROID_CHECK(server.Run(installed ? signals.drain_fd() : -1).ok());
  });

  std::atomic<size_t> served{0};
  std::vector<std::thread> clients;
  for (size_t c = 0; c < in_flight; ++c) {
    clients.emplace_back([&, c]() {
      net::HttpClient client("127.0.0.1", server.port());
      auto response = client.Post("/estimate", bodies[c % bodies.size()]);
      if (response.ok() && response->code == 200) served.fetch_add(1);
    });
  }
  // Wait until every request is parsed and parked, then pull the trigger.
  for (int waited = 0; waited < 5000; ++waited) {
    if (server.StatsSnapshot().requests >= in_flight) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  if (installed) {
    signals.Notify();
  } else {
    server.RequestDrain();
  }
  for (std::thread& t : clients) t.join();
  loop.join();
  runtime.Shutdown();
  service.Shutdown();

  DrainResult result;
  result.in_flight = in_flight;
  result.served = served.load();
  result.drain_latency_ms = server.drain_latency_ms();
  result.forced_closes = server.StatsSnapshot().forced_drain_closes;
  result.signal_path = installed;
  return result;
}

int Run(const std::string& out_path) {
  const bench::BenchScale scale = bench::GetBenchScale();
  bench::BenchDataset data = bench::BuildGrabDataset(scale, 8484);
  const size_t total_requests = scale.full ? 20000 : 2000;
  const size_t shards = 2;

  // A fixed pool of distinct plan texts, cycled by every connection — the
  // recurring workload the answer cache targets, now paying the full
  // serialize/parse wire cost per request.
  const size_t num_distinct = std::min<size_t>(24, data.records.size());
  std::vector<std::string> bodies;
  bodies.reserve(num_distinct);
  for (size_t i = 0; i < num_distinct; ++i) {
    bodies.push_back(plan::PlanToText(*data.records[i].plan));
  }

  const size_t connection_counts[] = {1, 4, 8, 16};
  std::vector<ScenarioResult> results;
  for (size_t connections : connection_counts) {
    results.push_back(RunScenario(data.records, bodies, connections,
                                  total_requests, shards));
    const ScenarioResult& r = results.back();
    std::cout << StrFormat(
        "connections %2zu: %.0f qps, p50=%.3fms p95=%.3fms p99=%.3fms, "
        "shed=%.2f%%, degraded=%zu, deadline-skips=%zu\n",
        r.connections, r.qps, r.p50_ms, r.p95_ms, r.p99_ms,
        100.0 * r.shed_rate, r.degraded, r.serving.deadline_skips);
  }

  const DrainResult drain = MeasureDrain(data.records, bodies, 8);
  std::cout << StrFormat(
      "drain: %zu in flight, %zu served, latency=%.3fms, forced-closes=%zu "
      "(%s path)\n",
      drain.in_flight, drain.served, drain.drain_latency_ms,
      drain.forced_closes, drain.signal_path ? "signal" : "direct");

  std::ofstream out(out_path);
  if (!out) {
    std::cerr << "cannot open " << out_path << " for writing\n";
    return 1;
  }
  bench::JsonWriter json(out);
  json.BeginObject();
  json.Field("generated_by", "bench/http_load");
  json.Provenance();
  json.Field("scale", scale.full ? "full" : "small");
  json.Field("shards", shards);
  json.Field("distinct_plans", num_distinct);
  json.Field("requests_per_scenario", total_requests);
  json.FieldDouble("tight_deadline_share", 0.2);
  json.Key("connection_scaling");
  json.BeginArray();
  for (const ScenarioResult& r : results) {
    json.BeginObject();
    json.Field("connections", r.connections);
    json.Field("requests", r.requests);
    json.FieldDouble("elapsed_s", r.elapsed_s);
    json.FieldDouble("qps", r.qps, "%.1f");
    json.FieldDouble("p50_ms", r.p50_ms);
    json.FieldDouble("p95_ms", r.p95_ms);
    json.FieldDouble("p99_ms", r.p99_ms);
    json.FieldDouble("shed_rate", r.shed_rate, "%.6f");
    json.Field("responses_200", r.ok_responses);
    json.Field("responses_shed", r.shed_responses);
    json.Field("responses_error", r.error_responses);
    json.Field("degraded_responses", r.degraded);
    json.Field("deadline_skips", r.serving.deadline_skips);
    json.Field("http_requests", r.http.requests);
    json.Field("connections_accepted", r.http.connections_accepted);
    json.Field("connections_rejected", r.http.connections_rejected);
    json.Field("connections_aborted", r.http.connections_aborted);
    json.EndObject();
  }
  json.EndArray();
  json.Key("drain");
  json.BeginObject();
  json.Field("in_flight", drain.in_flight);
  json.Field("served", drain.served);
  json.FieldDouble("drain_latency_ms", drain.drain_latency_ms);
  json.Field("forced_drain_closes", drain.forced_closes);
  json.Field("signal_path", drain.signal_path ? "signal" : "direct");
  json.EndObject();
  json.Key("summary");
  json.BeginObject();
  if (results.size() >= 2) {
    json.FieldDouble("qps_speedup_max_conns_over_1",
                     results.back().qps / results.front().qps);
  }
  json.FieldDouble("drain_latency_ms", drain.drain_latency_ms);
  json.Key("drain_zero_dropped");
  json.Bool(drain.served == drain.in_flight && drain.forced_closes == 0);
  json.EndObject();
  json.EndObject();
  std::cout << "wrote " << out_path << "\n";

  // Zero dropped in-flight requests is the drain contract; a miss fails the
  // bench (CI treats a nonzero exit as a regression).
  return drain.served == drain.in_flight && drain.forced_closes == 0 ? 0 : 1;
}

}  // namespace
}  // namespace prestroid

int main(int argc, char** argv) {
  // Usage: http_load [OUT.json]
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_http.json";
  return prestroid::Run(out_path);
}
