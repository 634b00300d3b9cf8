#ifndef PERFBENCH_INPUTS_H_
#define PERFBENCH_INPUTS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/pipeline.h"
#include "util/status.h"
#include "workload/dataset.h"
#include "workload/trace.h"

namespace perfbench {

/// Trace shape shared by every workload: a Grab-like trace over a generated
/// 40-table, 30-day schema (the CLI's gen-trace defaults) with
/// `kTraceQueries` labeled queries.
inline constexpr size_t kTraceQueries = 1200;

/// The model shape `prestroid_cli train` uses by default: Prestroid 15-9-32,
/// three 32-channel tree convolutions, dense 32-16, learning rate 3e-3,
/// one thread.
prestroid::core::PipelineConfig CliPipelineConfig();

/// Generates the seeded trace, writes it to `path` and returns its records.
prestroid::Result<std::vector<prestroid::workload::QueryRecord>> WriteSeededTrace(
    uint64_t seed, const std::string& path);

/// The 80/10/10 split every workload uses for a given seed.
prestroid::workload::DatasetSplits SeededSplits(uint64_t seed, size_t records);

/// One distinct request body with the label the trace recorded for it.
struct ServingItem {
  std::string body;
  bool sql = false;
  double label_minutes = 0.0;
  /// The complete HTTP request the generator sends for this item.
  std::string request;
};

/// Everything a serving workload needs, generated before any timing.
struct ServingInputs {
  std::string trace_path;
  std::string model_path;
  std::vector<ServingItem> items;
  /// Item index of every request the run may send, in send order. The first
  /// `warmup` entries fill the server's cache before anything is timed.
  std::vector<size_t> stream;
  size_t warmup = 0;
};

enum class ServingKind { kRecurringPlans, kAdhocSql };

/// recurring_plans: `kRecurringPool` plan-text bodies from the training
/// split. adhoc_sql: `kAdhocPool` SQL bodies of queries generated from the
/// same schema but outside the training trace. Either stream sends each body
/// once per pass over a seeded permutation of its pool. Also trains and
/// saves the serving model (CLI shape, at most 8 epochs) into `dir`.
inline constexpr size_t kRecurringPool = 512;
inline constexpr size_t kAdhocPool = 4096;
prestroid::Result<ServingInputs> PrepareServing(ServingKind kind, uint64_t seed,
                                                const std::string& dir,
                                                size_t stream_length);

}  // namespace perfbench

#endif  // PERFBENCH_INPUTS_H_
