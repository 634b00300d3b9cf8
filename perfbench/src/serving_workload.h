#ifndef PERFBENCH_SERVING_WORKLOAD_H_
#define PERFBENCH_SERVING_WORKLOAD_H_

#include "inputs.h"
#include "report.h"

namespace perfbench {

/// Runs recurring_plans or adhoc_sql against a `prestroid_cli serve
/// --listen` child in its default configuration. Untraced, it measures the
/// end-to-end metrics; traced, it measures the latency median once more and
/// then replays the same requests through the layers in process.
void RunServingWorkload(ServingKind kind, const RunOptions& options,
                        RunReport* report);

}  // namespace perfbench

#endif  // PERFBENCH_SERVING_WORKLOAD_H_
