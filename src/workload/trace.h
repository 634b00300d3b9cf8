#ifndef PRESTROID_WORKLOAD_TRACE_H_
#define PRESTROID_WORKLOAD_TRACE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "cost/cost_model.h"
#include "plan/plan_limits.h"
#include "plan/plan_node.h"
#include "workload/query_generator.h"
#include "workload/schema_generator.h"

namespace prestroid::workload {

/// One executed query of a trace: the SQL text, its logical plan, and the
/// simulated profiler metrics (the unit of the Grab-Traces / TPC-DS
/// datasets).
struct QueryRecord {
  int64_t id = 0;
  int day = 0;
  /// Template index for template-derived workloads, -1 for ad-hoc queries.
  int template_id = -1;
  std::string sql;
  plan::PlanNodePtr plan;
  /// The plan's node count when it was checked but not built (`plan` is
  /// then null; DeserializeTrace with build_plans false), else 0.
  size_t plan_nodes = 0;
  cost::ExecutionMetrics metrics;

  QueryRecord() = default;
  QueryRecord(QueryRecord&&) = default;
  QueryRecord& operator=(QueryRecord&&) = default;
  QueryRecord(const QueryRecord&) = delete;
  QueryRecord& operator=(const QueryRecord&) = delete;
};

/// Parameters of Grab-like trace generation.
struct TraceConfig {
  size_t num_queries = 2000;
  int num_days = 60;
  /// Queries are issued on days in [min_day, num_days). A nonzero min_day
  /// carves out a shifted window (e.g. the Table 5 out-of-range week).
  int min_day = 0;
  uint64_t seed = 11;
  QueryGenConfig query_config;
  /// Keep only queries whose total CPU time falls in this band (the paper
  /// filters to 1-60 minutes). Set filter_by_cpu=false to keep everything
  /// (used by the Figure 2 / Figure 8 shape studies).
  bool filter_by_cpu = true;
  double min_cpu_minutes = 1.0;
  double max_cpu_minutes = 60.0;
  /// Give up after this many candidate generations per accepted query.
  size_t max_attempts_factor = 40;
};

/// Generates a Grab-like trace: ad-hoc diverse queries spread across the
/// day window, executed through the cost simulator. Deterministic per seed.
Result<std::vector<QueryRecord>> GenerateGrabTrace(
    const GeneratedSchema& schema, const TraceConfig& config);

/// Serializes records to the on-disk trace format (SQL + EXPLAIN text +
/// metrics per record).
std::string SerializeTrace(const std::vector<QueryRecord>& records);

/// Parses a serialized trace. Strict: the first malformed or over-limit
/// record fails the whole parse (the tolerant, quarantining path lives in
/// workload/dataset.h). Each record's #PLAN...#END lines are handed to
/// plan::ParsePlanText as one slice of `text`, checked against `limits`
/// while parsing; nothing but the SQL, the plan tree and the metrics is
/// copied out of `text`. Unless `build_plans`, each plan goes to
/// plan::CheckPlanText instead: the same verdicts, and each record carries
/// a null plan and its node count in `plan_nodes`.
Result<std::vector<QueryRecord>> DeserializeTrace(
    std::string_view text, const plan::PlanLimits& limits = plan::PlanLimits(),
    bool build_plans = true);

/// Convenience file I/O. ReadTraceFile reads the file once into a buffer of
/// its size (ReadFileToString) and parses it in place.
Status WriteTraceFile(const std::string& path,
                      const std::vector<QueryRecord>& records);
Result<std::vector<QueryRecord>> ReadTraceFile(const std::string& path);

}  // namespace prestroid::workload

#endif  // PRESTROID_WORKLOAD_TRACE_H_
