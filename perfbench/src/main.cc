// perfbench_run: runs one benchmark workload and prints its metrics.
//
//   perfbench_run --workload recurring_plans|adhoc_sql
//                    --seed N --seconds S --trace 0|1
//                    --work-dir DIR --cli PATH/TO/prestroid_cli
//
// Human-readable detail goes to stdout first; the last line is one JSON
// object {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
// metrics are the end-to-end set, with --trace 1 the per-layer set (a layer
// the workload does not exercise reports 0). Exits 1 when any correctness
// check failed.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>

#include "report.h"
#include "serving_workload.h"

namespace {

using perfbench::RunOptions;
using perfbench::RunReport;

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Must match BENCHMARK.json.
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"latency_p50_ms", "ms"},
    {"ok_share", "ratio"},
    {"peak_rss_mb", "MB"},
};

constexpr MetricSpec kPerLayer[] = {
    {"net.overhead_ms", "ms"},
    {"net.http_parse_us", "us"},
    {"net.non200", "count"},
    {"plan.parse_text_us", "us"},
    {"plan.parse_text_mb_s", "MB/s"},
    {"plan.limits_us", "us"},
    {"sql.parse_us", "us"},
    {"plan.plan_sql_us", "us"},
    {"serve.fingerprint_us", "us"},
    {"serve.cache_hit_ratio", "ratio"},
    {"serve.submit_to_result_ms", "ms"},
    {"serve.queue_high_watermark", "count"},
    {"serve.rejected_requests", "count"},
    {"core.featurize_us", "us"},
    {"otp.recast_us", "us"},
    {"subtree.sample_us", "us"},
    {"core.forward_us_per_item_b1", "us"},
    {"core.forward_us_per_item_b32", "us"},
    {"tensor.forward_gflops", "GFLOP/s"},
    {"core.qerror_p50", "ratio"},
    {"core.qerror_p95", "ratio"},
    {"core.mse", "min2"},
    {"workload.ingest_s", "s"},
    {"core.fit_s", "s"},
    {"tensor.train_gflops", "GFLOP/s"},
    {"tensor.train_flops_per_epoch", "count"},
    {"tensor.peak_scratch_bytes", "bytes"},
    {"gen.late_p99_ms", "ms"},
    {"trace.attributed_share", "ratio"},
};

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench_run --workload NAME --seed N --seconds S "
               "--trace 0|1 --work-dir DIR --cli PATH\n");
  return 2;
}

template <size_t N>
void PrintJson(const RunReport& report, const MetricSpec (&specs)[N]) {
  std::map<std::string, double> measured;
  for (const RunReport::Metric& m : report.metrics) measured[m.name] = m.value;
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": {",
              report.violations.empty() ? "true" : "false", report.attempted,
              report.failed);
  for (size_t i = 0; i < N; ++i) {
    auto it = measured.find(specs[i].name);
    const double value = it == measured.end() || !std::isfinite(it->second)
                             ? 0.0
                             : it->second;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                specs[i].name, value, specs[i].unit);
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions options;
  if (argc % 2 == 0) return Usage();  // flags come in --name value pairs
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") options.workload = value;
    else if (key == "--seed") options.seed = std::strtoull(value, nullptr, 10);
    else if (key == "--seconds") options.seconds = std::strtod(value, nullptr);
    else if (key == "--trace") options.trace = std::strcmp(value, "0") != 0;
    else if (key == "--work-dir") options.work_dir = value;
    else if (key == "--cli") options.cli_path = value;
    else return Usage();
  }
  if (options.work_dir.empty() || options.cli_path.empty() ||
      !(options.seconds > 0)) {
    return Usage();
  }

  RunReport report;
  if (options.workload == "recurring_plans") {
    perfbench::RunServingWorkload(perfbench::ServingKind::kRecurringPlans, options,
                                  &report);
  } else if (options.workload == "adhoc_sql") {
    perfbench::RunServingWorkload(perfbench::ServingKind::kAdhocSql, options,
                                  &report);
  } else {
    return Usage();
  }
  if (report.attempted == 0) report.Violation("nothing was attempted");
  for (const std::string& v : report.violations) {
    std::printf("VIOLATION: %s\n", v.c_str());
  }
  if (options.trace) {
    PrintJson(report, kPerLayer);
  } else {
    PrintJson(report, kEndToEnd);
  }
  std::fflush(stdout);
  return report.violations.empty() ? 0 : 1;
}
