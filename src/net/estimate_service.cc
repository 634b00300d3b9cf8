#include "net/estimate_service.h"

#include <algorithm>
#include <cstdlib>
#include <map>
#include <set>
#include <utility>

#include "net/metrics.h"
#include "plan/plan_text.h"
#include "plan/planner.h"
#include "sql/parser.h"
#include "util/string_util.h"

namespace prestroid::net {

namespace {

using Clock = std::chrono::steady_clock;

bool ParseDoubleStrict(const std::string& text, double* out) {
  if (text.empty()) return false;
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (end != text.c_str() + text.size()) return false;
  *out = value;
  return true;
}

/// Does the request ask for the SQL input mode? Either Content-Type
/// mentioning "sql" or an `input=sql` query parameter.
bool WantsSqlInput(const HttpRequest& request) {
  if (request.query.find("input=sql") != std::string::npos) return true;
  const std::string* content_type = request.FindHeader("content-type");
  return content_type != nullptr &&
         content_type->find("sql") != std::string::npos;
}

void CollectStmtRefs(const sql::SelectStmt& stmt,
                     std::map<std::string, std::set<std::string>>* tables,
                     std::map<std::string, std::string>* alias_to_base,
                     std::vector<std::pair<std::string, std::string>>* refs);

void CollectTableRef(const sql::TableRef& ref,
                     std::map<std::string, std::set<std::string>>* tables,
                     std::map<std::string, std::string>* alias_to_base,
                     std::vector<std::pair<std::string, std::string>>* refs) {
  if (ref.IsSubquery()) {
    CollectStmtRefs(*ref.subquery, tables, alias_to_base, refs);
    return;
  }
  (*tables)[ref.table];  // ensure the base table exists
  (*alias_to_base)[ref.VisibleName()] = ref.table;
}

void CollectStmtRefs(const sql::SelectStmt& stmt,
                     std::map<std::string, std::set<std::string>>* tables,
                     std::map<std::string, std::string>* alias_to_base,
                     std::vector<std::pair<std::string, std::string>>* refs) {
  CollectTableRef(stmt.from, tables, alias_to_base, refs);
  for (const sql::JoinClause& join : stmt.joins) {
    CollectTableRef(join.ref, tables, alias_to_base, refs);
    if (join.condition) plan::CollectColumnRefs(*join.condition, refs);
  }
  for (const sql::SelectItem& item : stmt.items) {
    if (item.expr) plan::CollectColumnRefs(*item.expr, refs);
  }
  if (stmt.where) plan::CollectColumnRefs(*stmt.where, refs);
  for (const sql::ExprPtr& expr : stmt.group_by) {
    plan::CollectColumnRefs(*expr, refs);
  }
  if (stmt.having) plan::CollectColumnRefs(*stmt.having, refs);
  for (const sql::OrderItem& item : stmt.order_by) {
    plan::CollectColumnRefs(*item.expr, refs);
  }
}

}  // namespace

Result<plan::Catalog> SynthesizeCatalog(const sql::SelectStmt& stmt) {
  std::map<std::string, std::set<std::string>> tables;
  std::map<std::string, std::string> alias_to_base;
  std::vector<std::pair<std::string, std::string>> refs;
  CollectStmtRefs(stmt, &tables, &alias_to_base, &refs);

  for (const auto& [qualifier, column] : refs) {
    if (column == "*") continue;
    if (!qualifier.empty()) {
      auto it = alias_to_base.find(qualifier);
      // Qualifiers naming a subquery alias resolve against the subquery's
      // own select list; only base-table qualifiers need catalog columns.
      if (it != alias_to_base.end()) tables[it->second].insert(column);
    } else {
      // Unqualified: the planner resolves against the first relation whose
      // column set contains it, so defining it everywhere always resolves.
      for (auto& [name, columns] : tables) columns.insert(column);
    }
  }

  plan::Catalog catalog;
  for (const auto& [name, columns] : tables) {
    if (name.empty()) continue;
    plan::TableDef table;
    table.name = name;
    for (const std::string& column : columns) {
      plan::ColumnDef def;
      def.name = column;
      table.columns.push_back(def);
    }
    PRESTROID_RETURN_NOT_OK(catalog.AddTable(std::move(table)));
  }
  return catalog;
}

EstimateService::EstimateService(serve::ShardedServingRuntime* runtime,
                                 EstimateServiceConfig config)
    : runtime_(runtime), config_(std::move(config)) {}

void EstimateService::RegisterRoutes(HttpServer* server) {
  server_ = server;
  // Batch workers wake the event loop once per resolved batch, so a pending
  // /estimate is written as soon as its future is ready.
  runtime_->SetCompletionNotifier(server->CompletionNotifier());
  server->Route("POST", "/estimate", [this](const HttpRequest& request) {
    return HandleEstimate(request);
  });
  server->Route("GET", "/healthz",
                [this](const HttpRequest& request) -> HandlerResult {
                  return HandleHealthz(request);
                });
  server->Route("GET", "/metrics",
                [this](const HttpRequest& request) -> HandlerResult {
                  return HandleMetrics(request);
                });
}

void EstimateService::SetLabeledObservationHook(LabeledObservationFn hook) {
  std::lock_guard<std::mutex> lock(mu_);
  labeled_hook_ = std::move(hook);
}

void EstimateService::Shutdown() {
  std::lock_guard<std::mutex> lock(mu_);
  inflight_.clear();
}

HistogramSnapshot EstimateService::RequestLatencySnapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return request_latency_.CumulativeSnapshot();
}

size_t EstimateService::InflightCount() const {
  std::lock_guard<std::mutex> lock(mu_);
  return inflight_.size();
}

uint64_t EstimateService::DuplicateLabelsSuppressed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return duplicate_labels_;
}

bool EstimateService::MarkKeyDeliveredLocked(const std::string& key) {
  if (!seen_keys_.insert(key).second) {
    ++duplicate_labels_;
    return false;
  }
  seen_keys_order_.push_back(key);
  while (seen_keys_order_.size() > config_.idempotency_window) {
    seen_keys_.erase(seen_keys_order_.front());
    seen_keys_order_.pop_front();
  }
  return true;
}

Result<plan::PlanNodePtr> EstimateService::ParseBody(
    const HttpRequest& request) {
  if (request.body.empty()) {
    return Status::InvalidArgument("empty request body");
  }
  if (!WantsSqlInput(request)) {
    return plan::ParsePlanText(request.body, config_.plan_limits);
  }
  sql::ParseLimits sql_limits;
  sql_limits.max_depth = config_.plan_limits.max_predicate_depth;
  PRESTROID_ASSIGN_OR_RETURN(
      std::unique_ptr<sql::SelectStmt> stmt,
      sql::ParseSelect(request.body, sql_limits));
  PRESTROID_ASSIGN_OR_RETURN(plan::Catalog catalog, SynthesizeCatalog(*stmt));
  const plan::Planner planner(&catalog);
  return planner.Plan(*stmt);
}

HttpResponse EstimateService::BuildEstimateBody(
    const cost::ServingEstimate& estimate) {
  const bool degraded = estimate.tier != cost::ServingTier::kModel;
  std::string body = "{\"cpu_minutes\": ";
  body += StrFormat("%.6g", estimate.cpu_minutes);
  body += ", \"tier\": \"";
  body += cost::ServingTierToString(estimate.tier);
  body += "\", \"degraded\": ";
  body += degraded ? "true" : "false";
  body += ", \"latency_ms\": ";
  body += StrFormat("%.4g", estimate.latency_ms);
  if (degraded && !estimate.degradation_reason.ok()) {
    body += ", \"degradation_reason\": \"";
    body += JsonEscape(estimate.degradation_reason.ToString());
    body += "\"";
  }
  body += "}";
  HttpResponse response;
  response.content_type = "application/json";
  response.body = std::move(body);
  return response;
}

void EstimateService::Remove(const std::shared_ptr<Inflight>& state) {
  std::lock_guard<std::mutex> lock(mu_);
  inflight_.erase(std::remove(inflight_.begin(), inflight_.end(), state),
                  inflight_.end());
}

HandlerResult EstimateService::HandleEstimate(const HttpRequest& request) {
  double deadline_ms = config_.default_deadline_ms;
  if (const std::string* header = request.FindHeader("x-deadline-ms")) {
    if (!ParseDoubleStrict(*header, &deadline_ms) || deadline_ms < 0) {
      return ErrorResponse(400, "invalid X-Deadline-Ms: " + *header);
    }
  }
  serve::TenantId tenant = 0;
  if (const std::string* header = request.FindHeader("x-tenant")) {
    int64_t parsed = 0;
    if (!ParseInt64(*header, &parsed) || parsed < 0 ||
        parsed > static_cast<int64_t>(UINT32_MAX)) {
      return ErrorResponse(400, "invalid X-Tenant: " + *header);
    }
    tenant = static_cast<serve::TenantId>(parsed);
  }
  auto state = std::make_shared<Inflight>();
  if (const std::string* header =
          request.FindHeader("x-actual-cpu-minutes")) {
    if (!ParseDoubleStrict(*header, &state->actual_cpu_minutes)) {
      return ErrorResponse(400, "invalid X-Actual-Cpu-Minutes: " + *header);
    }
    state->has_actual = true;
  }
  if (const std::string* header = request.FindHeader("x-idempotency-key")) {
    if (header->empty() || header->size() > 256) {
      return ErrorResponse(400, "X-Idempotency-Key must be 1..256 bytes");
    }
    state->idempotency_key = *header;
  }

  Result<plan::PlanNodePtr> plan = ParseBody(request);
  if (!plan.ok()) return ErrorResponse(plan.status());
  state->plan = std::move(plan).value();
  state->dispatched = Clock::now();

  Result<std::future<cost::ServingEstimate>> submitted =
      runtime_->Submit(*state->plan, deadline_ms, tenant);
  if (!submitted.ok()) return ErrorResponse(submitted.status());
  state->future = std::move(submitted).value();
  {
    // Park the plan: the runtime borrows it until the future resolves, and
    // the connection (hence the PendingResponse closure) can be abandoned
    // first.
    std::lock_guard<std::mutex> lock(mu_);
    inflight_.push_back(state);
  }

  PendingResponse pending;
  pending.poll = [this, state](HttpResponse* out) {
    if (state->future.wait_for(std::chrono::seconds(0)) !=
        std::future_status::ready) {
      return false;
    }
    const cost::ServingEstimate estimate = state->future.get();
    *out = BuildEstimateBody(estimate);
    const double elapsed_ms =
        std::chrono::duration<double, std::milli>(Clock::now() -
                                                  state->dispatched)
            .count();
    LabeledObservationFn hook;
    {
      std::lock_guard<std::mutex> lock(mu_);
      request_latency_.Record(elapsed_ms);
      if (state->has_actual) {
        // The dedup decision happens at *delivery* time, atomically with
        // marking the key seen: two in-flight retries carrying the same key
        // resolve in some order on the loop thread, and exactly one wins.
        if (state->idempotency_key.empty() ||
            MarkKeyDeliveredLocked(state->idempotency_key)) {
          hook = labeled_hook_;
        }
      }
    }
    Remove(state);
    if (hook) {
      hook(std::move(state->plan), estimate, state->actual_cpu_minutes);
    }
    return true;
  };
  return pending;
}

HttpResponse EstimateService::HandleHealthz(const HttpRequest& /*request*/) {
  HttpResponse response;
  response.content_type = "application/json";
  response.body = StrFormat("{\"status\": \"ok\", \"shards\": %zu}\n",
                            runtime_->ShardCount());
  return response;
}

HttpResponse EstimateService::HandleMetrics(const HttpRequest& /*request*/) {
  MetricsSources sources;
  sources.serving = runtime_->StatsSnapshot();
  sources.serving_latency = runtime_->LatencySnapshot().CumulativeSnapshot();
  sources.request_latency = RequestLatencySnapshot();
  if (server_ != nullptr) sources.http = server_->StatsSnapshot();
  sources.shards = runtime_->ShardCount();
  sources.tenants = runtime_->TenantSnapshot().size();
  sources.duplicate_labels = DuplicateLabelsSuppressed();
  HttpResponse response;
  response.content_type = "text/plain; version=0.0.4; charset=utf-8";
  response.body = RenderPrometheus(sources);
  return response;
}

}  // namespace prestroid::net
