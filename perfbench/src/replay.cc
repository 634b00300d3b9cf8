#include "replay.h"

#include <cmath>
#include <list>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>

#include "core/pipeline.h"
#include "cost/serving_estimator.h"
#include "net/estimate_service.h"
#include "net/http.h"
#include "otp/otp_tree.h"
#include "plan/plan_limits.h"
#include "plan/plan_text.h"
#include "plan/planner.h"
#include "serve/plan_fingerprint.h"
#include "serve/sharded_runtime.h"
#include "spans.h"
#include "sql/parser.h"
#include "stats.h"
#include "subtree/subtree_sampler.h"
#include "workload/dataset.h"

namespace perfbench {

using prestroid::Result;
using prestroid::Status;
namespace core = prestroid::core;
namespace plan = prestroid::plan;

namespace {

Result<std::unique_ptr<core::PrestroidPipeline>> LoadModel(
    const ServingInputs& inputs) {
  return core::PrestroidPipeline::LoadFile(inputs.model_path);
}

// Least-recently-used set of fingerprints with the serving cache's capacity,
// so the replay featurizes exactly when the server's cache would miss.
class FeatureLru {
 public:
  explicit FeatureLru(size_t capacity) : capacity_(capacity) {}

  const core::PlanFeatures* Find(uint64_t key) {
    auto it = index_.find(key);
    if (it == index_.end()) return nullptr;
    order_.splice(order_.begin(), order_, it->second);
    return &it->second->second;
  }

  const core::PlanFeatures* Insert(uint64_t key, core::PlanFeatures features) {
    order_.emplace_front(key, std::move(features));
    index_[key] = order_.begin();
    if (order_.size() > capacity_) {
      index_.erase(order_.back().first);
      order_.pop_back();
    }
    return &order_.front().second;
  }

 private:
  size_t capacity_;
  std::list<std::pair<uint64_t, core::PlanFeatures>> order_;
  std::unordered_map<uint64_t,
                     std::list<std::pair<uint64_t, core::PlanFeatures>>::iterator>
      index_;
};

double MeanPerRequest(const std::vector<double>& values, size_t requests) {
  double sum = 0.0;
  for (double v : values) sum += v;
  return requests == 0 ? 0.0 : sum / static_cast<double>(requests);
}

}  // namespace

Result<plan::PlanNodePtr> ParseItem(const ServingItem& item) {
  const plan::PlanLimits limits;
  if (!item.sql) return plan::ParsePlanText(item.body, limits);
  prestroid::sql::ParseLimits sql_limits;
  sql_limits.max_depth = limits.max_predicate_depth;
  PRESTROID_ASSIGN_OR_RETURN(auto stmt,
                             prestroid::sql::ParseSelect(item.body, sql_limits));
  PRESTROID_ASSIGN_OR_RETURN(plan::Catalog catalog,
                             prestroid::net::SynthesizeCatalog(*stmt));
  const plan::Planner planner(&catalog);
  return planner.Plan(*stmt);
}

Result<std::vector<double>> ReferenceAnswers(const ServingInputs& inputs,
                                             const std::vector<bool>& needed) {
  PRESTROID_ASSIGN_OR_RETURN(auto pipeline, LoadModel(inputs));
  std::vector<double> answers(inputs.items.size(), std::nan(""));
  for (size_t i = 0; i < inputs.items.size(); ++i) {
    if (!needed[i]) continue;
    PRESTROID_ASSIGN_OR_RETURN(plan::PlanNodePtr parsed, ParseItem(inputs.items[i]));
    PRESTROID_ASSIGN_OR_RETURN(core::PlanFeatures features,
                               pipeline->FeaturizePlan(*parsed));
    answers[i] = pipeline->PredictFeaturized({&features})[0];
  }
  return answers;
}

Status TracedServingReplay(const ServingInputs& inputs, size_t first,
                           size_t count, double e2e_p50_ms,
                           const std::string& spans_path, RunReport* report) {
  // The server's default configuration: one shard, max batch 32, a 200 us
  // batch window and 1024 cache entries, with the fallback tiers fitted on
  // the same trace.
  PRESTROID_ASSIGN_OR_RETURN(auto records,
                             prestroid::workload::ReadTraceFile(inputs.trace_path));
  prestroid::cost::ServingLimits limits;
  limits.default_deadline_ms = 50.0;
  prestroid::cost::ServingEstimator estimator(limits);
  PRESTROID_RETURN_NOT_OK(estimator.FitFallbacks(records));
  PRESTROID_ASSIGN_OR_RETURN(auto served_pipeline, LoadModel(inputs));
  estimator.AttachPipeline(std::move(served_pipeline));
  prestroid::serve::ShardedRuntimeConfig config;
  prestroid::serve::ShardedServingRuntime runtime({&estimator}, config);
  PRESTROID_RETURN_NOT_OK(runtime.Start());

  // A second copy of the model for the layer probes, so probing never
  // touches the runtime's cache or pipeline.
  PRESTROID_ASSIGN_OR_RETURN(auto probe, LoadModel(inputs));
  const core::PipelineConfig& probe_config = probe->config();
  prestroid::ExecutionContext* exec = probe->execution_context();
  FeatureLru lru(config.shard.cache_entries);
  const plan::PlanLimits plan_limits;

  SpanRecorder spans;
  uint64_t forward_flops = 0;
  double forward_seconds = 0.0;
  size_t text_bytes = 0;
  double text_parse_s = 0.0;
  std::vector<const core::PlanFeatures*> batch;
  std::vector<core::PlanFeatures> batch_store;

  const size_t end = std::min(inputs.stream.size(), first + count);
  for (size_t pos = 0; pos < end; ++pos) {
    const bool timed = pos >= first;
    const ServingItem& item = inputs.items[inputs.stream[pos]];
    const uint64_t id = pos;
    const int64_t root = spans.Begin("request", -1, id);

    // net: the exact request bytes through the server's HTTP parser.
    {
      ScopedSpan span(&spans, "net.http_parse", root, id);
      std::string buffer = item.request;
      prestroid::net::HttpParser parser(16 << 10, plan_limits.max_plan_bytes);
      prestroid::net::HttpRequest request;
      if (parser.TryParse(&buffer, &request) !=
          prestroid::net::HttpParser::ParseState::kRequest) {
        return Status::Internal("replay: request bytes did not parse");
      }
    }
    // plan / sql: body -> plan.
    plan::PlanNodePtr parsed;
    if (!item.sql) {
      ScopedSpan span(&spans, "plan.parse_text", root, id);
      PRESTROID_ASSIGN_OR_RETURN(parsed, plan::ParsePlanText(item.body, plan_limits));
    } else {
      std::unique_ptr<prestroid::sql::SelectStmt> stmt;
      {
        ScopedSpan span(&spans, "sql.parse", root, id);
        prestroid::sql::ParseLimits sql_limits;
        sql_limits.max_depth = plan_limits.max_predicate_depth;
        PRESTROID_ASSIGN_OR_RETURN(
            stmt, prestroid::sql::ParseSelect(item.body, sql_limits));
      }
      ScopedSpan span(&spans, "plan.plan_sql", root, id);
      PRESTROID_ASSIGN_OR_RETURN(plan::Catalog catalog,
                                 prestroid::net::SynthesizeCatalog(*stmt));
      const plan::Planner planner(&catalog);
      PRESTROID_ASSIGN_OR_RETURN(parsed, planner.Plan(*stmt));
    }
    {
      ScopedSpan span(&spans, "plan.limits", root, id);
      PRESTROID_RETURN_NOT_OK(plan::CheckPlanLimits(*parsed, plan_limits));
    }
    uint64_t fingerprint = 0;
    {
      ScopedSpan span(&spans, "serve.fingerprint", root, id);
      fingerprint = prestroid::serve::FingerprintPlan(*parsed);
    }
    {
      ScopedSpan span(&spans, "serve.submit_to_result", root, id);
      PRESTROID_ASSIGN_OR_RETURN(auto future, runtime.Submit(*parsed));
      future.get();
    }
    spans.End(root);

    // Layer probes on the miss path and the forward pass, under their own
    // root so they do not count as time on the request path.
    const int64_t probe_root = spans.Begin("probe", -1, id);
    const core::PlanFeatures* features = lru.Find(fingerprint);
    if (features == nullptr) {
      {
        ScopedSpan span(&spans, "otp.recast", probe_root, id);
        PRESTROID_ASSIGN_OR_RETURN(prestroid::otp::OtpTree tree,
                                   prestroid::otp::RecastPlan(*parsed));
        ScopedSpan sample(&spans, "subtree.sample", span.index(), id);
        PRESTROID_RETURN_NOT_OK(
            prestroid::subtree::SampleSubtrees(*tree.root, probe_config.sampler)
                .status());
      }
      const int64_t featurize = spans.Begin("core.featurize", probe_root, id);
      auto featurized = probe->FeaturizePlan(*parsed);
      spans.End(featurize);
      if (!featurized.ok()) return featurized.status();
      features = lru.Insert(fingerprint, std::move(featurized).value());
    }
    const uint64_t flops_before = exec->stats().flops;
    const int64_t forward = spans.Begin("core.forward_b1", probe_root, id);
    probe->PredictFeaturized({features});
    spans.End(forward);
    spans.End(probe_root);
    if (timed) {
      const Span& f = spans.spans()[static_cast<size_t>(forward)];
      forward_seconds += static_cast<double>(f.end_ns - f.start_ns) / 1e9;
      forward_flops += exec->stats().flops - flops_before;
      batch_store.push_back(*features);
      if (batch_store.size() == 32) {
        batch.clear();
        for (const core::PlanFeatures& f32 : batch_store) batch.push_back(&f32);
        ScopedSpan span(&spans, "core.forward_b32", -1, id);
        probe->PredictFeaturized(batch);
        batch_store.clear();
      }
    }
  }
  const prestroid::cost::ServingStats stats = runtime.StatsSnapshot();
  runtime.Shutdown();

  // Aggregate the timed requests' spans.
  const std::vector<int64_t> self = spans.SelfTimesNs();
  std::map<std::string, std::vector<double>> per_layer_us;
  std::vector<double> attributed_ns_by_request(end, 0.0);
  const std::vector<Span>& all = spans.spans();
  size_t timed_requests = 0;
  for (size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    if (s.request_id < first) continue;
    if (s.name == "request") {
      ++timed_requests;
      continue;
    }
    per_layer_us[s.name].push_back(static_cast<double>(self[i]) / 1e3);
    if (s.name == "plan.parse_text") {
      text_bytes += inputs.items[inputs.stream[s.request_id]].body.size();
      text_parse_s += static_cast<double>(s.end_ns - s.start_ns) / 1e9;
    }
    if (s.parent >= 0 && all[static_cast<size_t>(s.parent)].name == "request") {
      attributed_ns_by_request[s.request_id] += static_cast<double>(self[i]);
    }
  }
  std::vector<double> request_attributed_ms;
  for (size_t r = first; r < end; ++r) {
    request_attributed_ms.push_back(attributed_ns_by_request[r] / 1e6);
  }
  auto median_us = [&](const char* name) {
    auto it = per_layer_us.find(name);
    return it == per_layer_us.end() ? 0.0 : Median(it->second);
  };
  auto per_request_us = [&](const char* name) {
    auto it = per_layer_us.find(name);
    return it == per_layer_us.end() ? 0.0
                                    : MeanPerRequest(it->second, timed_requests);
  };

  const double submit_ms = median_us("serve.submit_to_result") / 1e3;
  report->Add("net.overhead_ms", e2e_p50_ms - submit_ms, "ms");
  report->Add("net.http_parse_us", median_us("net.http_parse"), "us");
  report->Add("plan.parse_text_us", median_us("plan.parse_text"), "us");
  report->Add("plan.parse_text_mb_s",
              text_parse_s > 0 ? static_cast<double>(text_bytes) / 1e6 / text_parse_s
                               : 0.0,
              "MB/s");
  report->Add("plan.limits_us", median_us("plan.limits"), "us");
  report->Add("sql.parse_us", median_us("sql.parse"), "us");
  report->Add("plan.plan_sql_us", median_us("plan.plan_sql"), "us");
  report->Add("serve.fingerprint_us", median_us("serve.fingerprint"), "us");
  report->Add("serve.submit_to_result_ms", submit_ms, "ms");
  report->Add("serve.queue_high_watermark",
              static_cast<double>(stats.queue_high_watermark), "count");
  report->Add("core.featurize_us", per_request_us("core.featurize"), "us");
  report->Add("otp.recast_us", per_request_us("otp.recast"), "us");
  report->Add("subtree.sample_us", per_request_us("subtree.sample"), "us");
  report->Add("core.forward_us_per_item_b1", median_us("core.forward_b1"), "us");
  report->Add("core.forward_us_per_item_b32", median_us("core.forward_b32") / 32.0,
              "us");
  report->Add("tensor.forward_gflops",
              forward_seconds > 0
                  ? static_cast<double>(forward_flops) / 1e9 / forward_seconds
                  : 0.0,
              "GFLOP/s");
  report->Add("trace.attributed_share",
              e2e_p50_ms > 0 ? Median(request_attributed_ms) / e2e_p50_ms : 0.0,
              "ratio");
  if (!spans.Write(spans_path)) {
    return Status::IoError("cannot write span file " + spans_path);
  }
  return Status::OK();
}

}  // namespace perfbench
