#include "net/metrics.h"

#include <cmath>
#include <cstdio>

namespace prestroid::net {

namespace {

std::string FormatDouble(double value) {
  if (std::isinf(value)) return value > 0 ? "+Inf" : "-Inf";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", value);
  return buf;
}

void Family(std::string* out, const char* name, const char* type,
            const char* help) {
  *out += "# HELP ";
  *out += name;
  *out += ' ';
  *out += help;
  *out += "\n# TYPE ";
  *out += name;
  *out += ' ';
  *out += type;
  *out += '\n';
}

void Counter(std::string* out, const char* name, const char* help,
             uint64_t value) {
  Family(out, name, "counter", help);
  *out += name;
  *out += ' ';
  *out += std::to_string(value);
  *out += '\n';
}

void Gauge(std::string* out, const char* name, const char* help,
           double value) {
  Family(out, name, "gauge", help);
  *out += name;
  *out += ' ';
  *out += FormatDouble(value);
  *out += '\n';
}

void LabeledLine(std::string* out, const char* name, const char* label,
                 const std::string& label_value, uint64_t value) {
  *out += name;
  *out += '{';
  *out += label;
  *out += "=\"";
  *out += label_value;
  *out += "\"} ";
  *out += std::to_string(value);
  *out += '\n';
}

void Histogram(std::string* out, const char* name, const char* help,
               const HistogramSnapshot& snapshot) {
  Family(out, name, "histogram", help);
  for (size_t i = 0; i < snapshot.upper_bounds.size(); ++i) {
    *out += name;
    *out += "_bucket{le=\"";
    *out += FormatDouble(snapshot.upper_bounds[i]);
    *out += "\"} ";
    *out += std::to_string(snapshot.cumulative_counts[i]);
    *out += '\n';
  }
  *out += name;
  *out += "_sum ";
  *out += FormatDouble(snapshot.sum);
  *out += '\n';
  *out += name;
  *out += "_count ";
  *out += std::to_string(snapshot.count);
  *out += '\n';
}

}  // namespace

std::string RenderPrometheus(const MetricsSources& sources) {
  std::string out;
  out.reserve(16 << 10);
  const cost::ServingStats& s = sources.serving;
  const HttpServerStats& h = sources.http;

  // --- HTTP front end ------------------------------------------------------
  Counter(&out, "prestroid_http_requests_total",
          "Complete HTTP requests parsed.", h.requests);
  Family(&out, "prestroid_http_responses_total", "counter",
         "HTTP responses sent, by status code.");
  for (const auto& [code, count] : h.responses_by_code) {
    LabeledLine(&out, "prestroid_http_responses_total", "code",
                std::to_string(code), count);
  }
  Counter(&out, "prestroid_http_connections_accepted_total",
          "Client connections accepted.", h.connections_accepted);
  Counter(&out, "prestroid_http_connections_rejected_total",
          "Connections shed over the max-connections cap.",
          h.connections_rejected);
  Counter(&out, "prestroid_http_connections_aborted_total",
          "Connections dropped mid-request (peer reset or I/O error).",
          h.connections_aborted);
  Counter(&out, "prestroid_http_header_timeouts_total",
          "Connections closed by the slowloris header timeout.",
          h.header_timeouts);
  Counter(&out, "prestroid_http_idle_closes_total",
          "Keep-alive connections silently reaped by the idle timeout.",
          h.idle_closes);
  Counter(&out, "prestroid_http_draining_rejects_total",
          "Requests answered 503 while draining.", h.draining_rejects);
  Counter(&out, "prestroid_http_forced_drain_closes_total",
          "Connections force-closed at the drain deadline.",
          h.forced_drain_closes);
  Counter(&out, "prestroid_estimate_duplicate_labels_total",
          "Labeled observations suppressed by X-Idempotency-Key dedup.",
          sources.duplicate_labels);
  Gauge(&out, "prestroid_http_connections_active",
        "Currently open client connections.",
        static_cast<double>(h.connections_active));

  // --- serving tier --------------------------------------------------------
  Counter(&out, "prestroid_serving_requests_total",
          "Estimates produced by the serving tier.", s.requests);
  Family(&out, "prestroid_serving_estimates_by_tier_total", "counter",
         "Estimates answered by each degradation tier (model is the primary; "
         "anything else means the request was served degraded).");
  for (size_t i = 0; i < cost::kNumServingTiers; ++i) {
    LabeledLine(&out, "prestroid_serving_estimates_by_tier_total", "tier",
                cost::ServingTierToString(static_cast<cost::ServingTier>(i)),
                s.by_tier[i]);
  }
  Counter(&out, "prestroid_serving_deadline_skips_total",
          "Model tier skipped: EWMA over budget or deadline expired queued.",
          s.deadline_skips);
  Counter(&out, "prestroid_serving_deadline_misses_total",
          "Model answered but blew the request deadline.", s.deadline_misses);
  Counter(&out, "prestroid_serving_model_errors_total",
          "Model-tier failures (error or non-finite output).", s.model_errors);
  Counter(&out, "prestroid_serving_validation_rejects_total",
          "Plans too large/deep for the model tier.", s.validation_rejects);
  Counter(&out, "prestroid_serving_queue_rejects_total",
          "Requests rejected by a full shard queue.", s.rejected_requests);
  Counter(&out, "prestroid_serving_limit_rejects_total",
          "Plans rejected by the PlanLimits governor.", s.limit_rejects);
  Counter(&out, "prestroid_serving_quota_sheds_total",
          "Requests shed over a tenant quota.", s.quota_sheds);
  Counter(&out, "prestroid_serving_memory_denied_total",
          "Requests denied by the scratch-memory budget.", s.memory_denied);
  Counter(&out, "prestroid_serving_cache_hits_total",
          "Requests answered from the answer cache without their own "
          "featurization.",
          s.cache_hits);
  Counter(&out, "prestroid_serving_cache_misses_total",
          "Featurizations run (answer-cache misses).", s.cache_misses);
  Counter(&out, "prestroid_serving_cache_evictions_total",
          "LRU answer-cache evictions.", s.cache_evictions);
  Counter(&out, "prestroid_serving_model_swaps_total",
          "Successful hot-swap promotions.", s.model_swaps);
  Counter(&out, "prestroid_serving_model_rollbacks_total",
          "Post-swap regressions rolled back.", s.model_rollbacks);
  Counter(&out, "prestroid_serving_drift_flags_total",
          "Observations where the drift gate tripped.", s.drift_flags);
  Gauge(&out, "prestroid_serving_shards", "Serving shards in this process.",
        static_cast<double>(sources.shards));
  Gauge(&out, "prestroid_serving_tenants",
        "Tenants with explicit quotas configured.",
        static_cast<double>(sources.tenants));

  // --- latency distributions ----------------------------------------------
  Histogram(&out, "prestroid_request_latency_ms",
            "End-to-end /estimate latency: dispatch to response built (ms).",
            sources.request_latency);
  Histogram(&out, "prestroid_serving_latency_ms",
            "Serving-runtime queue+compute latency per estimate (ms).",
            sources.serving_latency);
  return out;
}

}  // namespace prestroid::net
