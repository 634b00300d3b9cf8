#ifndef PRESTROID_NET_ESTIMATE_SERVICE_H_
#define PRESTROID_NET_ESTIMATE_SERVICE_H_

#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_set>
#include <vector>

#include "cost/serving_estimator.h"
#include "net/http_server.h"
#include "plan/catalog.h"
#include "plan/plan_limits.h"
#include "plan/plan_node.h"
#include "serve/sharded_runtime.h"
#include "sql/ast.h"
#include "util/histogram.h"

namespace prestroid::net {

/// Request-handling policy of the estimate endpoint.
struct EstimateServiceConfig {
  /// Governor applied to plan-text bodies (the same limits the runtime's
  /// admission re-checks).
  plan::PlanLimits plan_limits;
  /// Deadline used when a request carries no X-Deadline-Ms header. Like an
  /// `X-Deadline-Ms: 0` header, a value <= 0 does not mean "no deadline":
  /// the runtime applies the estimator's ServingLimits::default_deadline_ms
  /// (the CLI's --deadline-ms, 50 ms by default).
  double default_deadline_ms = 0.0;
  /// How many X-Idempotency-Key values of delivered labeled observations to
  /// remember (FIFO eviction). A retried labeled POST whose key was already
  /// delivered still gets its estimate, but the label is NOT re-delivered —
  /// the at-most-once guarantee the resilient client's retry storm relies
  /// on.
  size_t idempotency_window = 4096;
};

/// The HTTP estimate API over a ShardedServingRuntime.
///
/// Routes (RegisterRoutes):
///   POST /estimate   body = plan text (default) or raw SQL (Content-Type
///                    containing "sql", or ?input=sql). Headers:
///                    X-Deadline-Ms (per-request deadline in ms, propagated
///                    to the runtime's queue-deadline check; 0 or absent
///                    means the estimator's default deadline), X-Tenant (admission
///                    quota id), X-Actual-Cpu-Minutes (ground-truth label
///                    feeding the continual-retraining hook),
///                    X-Idempotency-Key (dedup token: a labeled observation
///                    is delivered at most once per key, so clients may
///                    retry labeled posts freely).
///                    Responds 200 with {"cpu_minutes", "tier", "degraded",
///                    ...}; a degraded (non-model-tier) answer is still 200
///                    — the degradation chain is the availability story —
///                    with "degraded": true and the reason. Submit errors map
///                    through HttpStatusForCode (429 shed, 400 bad plan,
///                    503 down).
///   GET /healthz     liveness + shard count.
///   GET /metrics     Prometheus text exposition (net/metrics.h).
///
/// Handlers run on the server's event-loop thread. /estimate returns a
/// PendingResponse so the loop keeps serving other connections while the
/// runtime's batch workers compute; concurrent requests micro-batch inside
/// the runtime. An answer-cache hit is ready when Submit returns, so the
/// server's first poll writes it in the same loop pass.
///
/// Plan lifetime: the runtime borrows submitted plans until their futures
/// resolve, so the service parks each in-flight plan in a registry that
/// outlives any abandoned connection (a client hanging up — or a drain
/// force-close — must not free a plan a batch worker is reading). Call
/// Shutdown() only AFTER runtime->Shutdown() has resolved every future.
class EstimateService {
 public:
  /// Called (on the event-loop thread) for each completed estimate whose
  /// request carried X-Actual-Cpu-Minutes; receives ownership of the plan.
  /// Wire this to the continual-retraining pipeline.
  using LabeledObservationFn = std::function<void(
      plan::PlanNodePtr plan, const cost::ServingEstimate& estimate,
      double actual_cpu_minutes)>;

  EstimateService(serve::ShardedServingRuntime* runtime,
                  EstimateServiceConfig config = {});

  /// Registers /estimate, /healthz and /metrics; keeps `server` for stats
  /// scraping (must outlive the service's use), and installs the server's
  /// CompletionNotifier on the runtime so every resolved batch wakes the
  /// event loop.
  void RegisterRoutes(HttpServer* server);

  void SetLabeledObservationHook(LabeledObservationFn hook);

  /// Releases plans parked for requests whose connections were abandoned.
  /// Precondition: runtime->Shutdown() already ran (all futures resolved).
  void Shutdown();

  /// HTTP-side end-to-end latency distribution (dispatch -> response built).
  HistogramSnapshot RequestLatencySnapshot() const;

  /// In-flight /estimate requests (parked plans). Exposed for tests.
  size_t InflightCount() const;

  /// Labeled observations suppressed because their X-Idempotency-Key was
  /// already delivered (exported at /metrics).
  uint64_t DuplicateLabelsSuppressed() const;

 private:
  struct Inflight {
    plan::PlanNodePtr plan;
    std::future<cost::ServingEstimate> future;
    std::chrono::steady_clock::time_point dispatched;
    double actual_cpu_minutes = 0.0;
    bool has_actual = false;
    std::string idempotency_key;
  };

  HandlerResult HandleEstimate(const HttpRequest& request);
  HttpResponse HandleHealthz(const HttpRequest& request);
  HttpResponse HandleMetrics(const HttpRequest& request);

  /// Parses the request body into a plan: plan text by default, SQL when
  /// asked (planned against a catalog synthesized from the statement itself,
  /// so raw SQL needs no pre-registered schema).
  Result<plan::PlanNodePtr> ParseBody(const HttpRequest& request);

  HttpResponse BuildEstimateBody(const cost::ServingEstimate& estimate);
  void Remove(const std::shared_ptr<Inflight>& state);

  serve::ShardedServingRuntime* runtime_;
  EstimateServiceConfig config_;
  HttpServer* server_ = nullptr;

  /// Marks `key` delivered; returns false when it already was (the caller
  /// must then suppress the labeled hook). Caller holds mu_.
  bool MarkKeyDeliveredLocked(const std::string& key);

  mutable std::mutex mu_;
  std::vector<std::shared_ptr<Inflight>> inflight_;
  LatencyHistogram request_latency_;
  LabeledObservationFn labeled_hook_;
  // Delivered-label dedup window (guards at-most-once under client retries).
  std::unordered_set<std::string> seen_keys_;
  std::deque<std::string> seen_keys_order_;
  uint64_t duplicate_labels_ = 0;
};

/// Builds a catalog containing every base table referenced by `stmt`
/// (recursing subqueries), each populated with the columns the statement
/// mentions and default statistics. This lets POST /estimate accept raw SQL
/// with no out-of-band schema: the planner only needs names to resolve, and
/// cost estimation degrades gracefully to default stats.
Result<plan::Catalog> SynthesizeCatalog(const sql::SelectStmt& stmt);

}  // namespace prestroid::net

#endif  // PRESTROID_NET_ESTIMATE_SERVICE_H_
