#include "workload/trace.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "plan/plan_text.h"
#include "plan/planner.h"
#include "sql/parser.h"
#include "util/artifact_io.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace prestroid::workload {

Result<std::vector<QueryRecord>> GenerateGrabTrace(
    const GeneratedSchema& schema, const TraceConfig& config) {
  QueryGenerator generator(&schema, config.query_config);
  plan::Planner planner(&schema.catalog);
  cost::CostModel cost_model(&schema.catalog);
  Rng rng(config.seed);

  std::vector<QueryRecord> records;
  records.reserve(config.num_queries);
  const size_t max_attempts = config.num_queries * config.max_attempts_factor;
  size_t attempts = 0;
  int64_t next_id = 0;
  while (records.size() < config.num_queries && attempts < max_attempts) {
    ++attempts;
    const int day =
        config.min_day +
        static_cast<int>(rng.NextUint64(
            static_cast<uint64_t>(config.num_days - config.min_day)));
    const uint64_t structure_seed = rng.Next();
    const uint64_t literal_seed = rng.Next();
    std::string sql = generator.Generate(day, structure_seed, literal_seed);

    auto stmt = sql::ParseSelect(sql);
    if (!stmt.ok()) {
      return Status::Internal("generated query failed to parse: " +
                              stmt.status().ToString() + " sql: " + sql);
    }
    auto planned = planner.Plan(**stmt);
    if (!planned.ok()) {
      return Status::Internal("generated query failed to plan: " +
                              planned.status().ToString() + " sql: " + sql);
    }
    plan::PlanNodePtr query_plan = std::move(planned).value();
    auto metrics = cost_model.Execute(query_plan.get(), &rng);
    if (!metrics.ok()) return metrics.status();

    if (config.filter_by_cpu &&
        (metrics->total_cpu_minutes < config.min_cpu_minutes ||
         metrics->total_cpu_minutes > config.max_cpu_minutes)) {
      continue;
    }
    QueryRecord record;
    record.id = next_id++;
    record.day = day;
    record.sql = std::move(sql);
    record.plan = std::move(query_plan);
    record.metrics = *metrics;
    records.push_back(std::move(record));
  }
  if (records.size() < config.num_queries) {
    return Status::Internal(StrFormat(
        "trace generation accepted only %zu/%zu queries after %zu attempts; "
        "loosen the CPU-time filter or retune the cost model",
        records.size(), config.num_queries, attempts));
  }
  return records;
}

std::string SerializeTrace(const std::vector<QueryRecord>& records) {
  std::ostringstream os;
  os.precision(17);  // round-trip doubles exactly
  for (const QueryRecord& record : records) {
    os << "#QUERY " << record.id << " " << record.day << " "
       << record.template_id << " " << record.metrics.total_cpu_minutes << " "
       << record.metrics.peak_memory_gb << " " << record.metrics.input_gb
       << "\n";
    os << "#SQL " << record.sql << "\n";
    os << "#PLAN\n" << plan::PlanToText(*record.plan);
    os << "#END\n";
  }
  return os.str();
}

Result<std::vector<QueryRecord>> DeserializeTrace(
    std::string_view text, const plan::PlanLimits& limits, bool build_plans) {
  std::vector<QueryRecord> records;
  QueryRecord current;
  size_t plan_begin = 0;  // offset of the current record's first plan line
  enum class State { kIdle, kInRecord, kInPlan } state = State::kIdle;
  // Lines as std::getline yields them: split on '\n', no empty last line.
  for (size_t begin = 0; begin < text.size();) {
    const size_t end = std::min(text.find('\n', begin), text.size());
    const std::string_view line = text.substr(begin, end - begin);
    const size_t line_begin = begin;
    begin = end + 1;
    if (StartsWith(line, "#QUERY ")) {
      if (state != State::kIdle) {
        return Status::ParseError("nested #QUERY in trace");
      }
      current = QueryRecord();
      double cpu = 0, mem = 0, input = 0;
      long long id = 0;
      int day = 0, template_id = -1;
      // sscanf needs a NUL-terminated copy; header lines are short.
      const std::string header(line);
      if (std::sscanf(header.c_str(), "#QUERY %lld %d %d %lf %lf %lf", &id,
                      &day, &template_id, &cpu, &mem, &input) != 6) {
        return Status::ParseError("malformed #QUERY line: " + header);
      }
      current.id = id;
      current.day = day;
      current.template_id = template_id;
      current.metrics.total_cpu_minutes = cpu;
      current.metrics.peak_memory_gb = mem;
      current.metrics.input_gb = input;
      state = State::kInRecord;
    } else if (StartsWith(line, "#SQL ")) {
      if (state != State::kInRecord) {
        return Status::ParseError("#SQL outside record");
      }
      current.sql = line.substr(5);
    } else if (line == "#PLAN") {
      if (state != State::kInRecord) {
        return Status::ParseError("#PLAN outside record");
      }
      plan_begin = begin;
      state = State::kInPlan;
    } else if (line == "#END") {
      if (state != State::kInPlan) {
        return Status::ParseError("#END without #PLAN");
      }
      // The plan lines sit contiguously between "#PLAN\n" and this line,
      // each ending in '\n': parse that slice of the buffer in place.
      const std::string_view plan_text =
          text.substr(plan_begin, line_begin - plan_begin);
      if (build_plans) {
        PRESTROID_ASSIGN_OR_RETURN(current.plan,
                                   plan::ParsePlanText(plan_text, limits));
      } else {
        PRESTROID_ASSIGN_OR_RETURN(current.plan_nodes,
                                   plan::CheckPlanText(plan_text, limits));
      }
      records.push_back(std::move(current));
      current = QueryRecord();
      state = State::kIdle;
    } else if (state == State::kInPlan) {
      continue;  // a plan line, parsed with its record's slice at #END
    } else if (Trim(line).empty()) {
      continue;
    } else {
      return Status::ParseError("unexpected trace line: " + std::string(line));
    }
  }
  if (state != State::kIdle) {
    return Status::ParseError("truncated trace file");
  }
  return records;
}

Status WriteTraceFile(const std::string& path,
                      const std::vector<QueryRecord>& records) {
  std::ofstream out(path);
  if (!out.is_open()) return Status::IoError("cannot open for write: " + path);
  out << SerializeTrace(records);
  out.close();
  if (!out.good()) return Status::IoError("write failed: " + path);
  return Status::OK();
}

Result<std::vector<QueryRecord>> ReadTraceFile(const std::string& path) {
  PRESTROID_ASSIGN_OR_RETURN(const std::string text, ReadFileToString(path));
  return DeserializeTrace(text);
}

}  // namespace prestroid::workload
