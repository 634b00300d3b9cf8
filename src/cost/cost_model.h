#ifndef PRESTROID_COST_COST_MODEL_H_
#define PRESTROID_COST_COST_MODEL_H_

#include "plan/catalog.h"
#include "plan/plan_node.h"
#include "util/random.h"
#include "util/status.h"

namespace prestroid::cost {

/// Tunable constants of the analytical execution model. The defaults are
/// calibrated so that the synthetic Grab-like workload lands in the paper's
/// 1–60 total-CPU-minute filter band.
struct CostModelParams {
  /// Simulated cluster CPU throughput: abstract cost units per CPU-minute.
  double cost_units_per_cpu_minute = 4.0e8;
  double scan_cost_per_byte = 0.03;
  double filter_cost_per_row = 0.6;
  double join_build_cost_per_row = 4.0;
  double join_probe_cost_per_row = 2.5;
  double aggregate_cost_per_row = 2.0;
  double sort_cost_per_row_log_row = 0.8;
  double exchange_cost_per_row = 1.0;
  double project_cost_per_row_expr = 0.3;
  /// Default equality selectivity when column stats are unavailable.
  double default_eq_selectivity = 0.005;
  double default_range_selectivity = 0.3;
  double like_selectivity = 0.08;
  /// Join selectivity when key statistics are unavailable.
  double default_join_selectivity = 1e-5;
  /// Multiplicative log-normal label noise (sigma of the underlying normal).
  /// Models run-to-run variance of a real cluster.
  double noise_sigma = 0.15;
  /// Saturation cap on any operator's output cardinality: a distributed
  /// engine spills/limits intermediates long before they reach astronomic
  /// sizes, so deep join pipelines compound sub-exponentially.
  double max_intermediate_rows = 5e8;
};

/// Resource-consumption outcome of one simulated query execution — the
/// metrics the paper reads from the Presto profiler (total CPU time, peak
/// memory, input bytes; Appendix A).
struct ExecutionMetrics {
  double total_cpu_minutes = 0.0;
  double peak_memory_gb = 0.0;
  double input_gb = 0.0;
};

/// Analytical cost model over logical plans: estimates per-operator output
/// cardinalities from catalog statistics, converts operator work into CPU
/// time, and adds calibrated noise to produce training labels. This is the
/// substitution for executing queries on a Presto cluster (DESIGN.md §2).
class CostModel {
 public:
  CostModel(const plan::Catalog* catalog, CostModelParams params = {});

  /// Estimates selectivity of a predicate applied to rows of `table`
  /// (nullptr table falls back to default selectivities). Returned value is
  /// clamped to [1e-6, 1].
  double PredicateSelectivity(sql::ExprRef predicate,
                              const plan::TableDef* table) const;

  /// Annotates every node's `cardinality` and returns the noiseless total
  /// CPU time in minutes. Fails if a scanned table is missing from the
  /// catalog.
  Result<double> EstimateCpuMinutes(plan::PlanNode* root) const;

  /// Full simulated execution: noiseless estimate + log-normal noise, plus
  /// derived peak-memory and input-size metrics. Deterministic given `rng`.
  Result<ExecutionMetrics> Execute(plan::PlanNode* root, Rng* rng) const;

  const CostModelParams& params() const { return params_; }

 private:
  /// Returns output cardinality; accumulates cost units into *cost.
  Result<double> Annotate(plan::PlanNode* node, double* cost_units,
                          double* peak_rows, double* input_bytes) const;

  const plan::Catalog* catalog_;
  CostModelParams params_;
};

}  // namespace prestroid::cost

#endif  // PRESTROID_COST_COST_MODEL_H_
