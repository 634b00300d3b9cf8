#ifndef PERFBENCH_REPLAY_H_
#define PERFBENCH_REPLAY_H_

#include <cstddef>
#include <string>
#include <vector>

#include "inputs.h"
#include "plan/plan_node.h"
#include "report.h"
#include "util/status.h"

namespace perfbench {

/// Parses an item's body exactly as POST /estimate does: plan text under
/// the default PlanLimits, or SQL planned against a catalog synthesized from
/// the statement.
prestroid::Result<prestroid::plan::PlanNodePtr> ParseItem(const ServingItem& item);

/// The serving model's answer for every item with `needed[i]` set, computed
/// in process through FeaturizePlan + a one-element PredictFeaturized (NaN
/// for the rest). This is the reference the served answers must match.
prestroid::Result<std::vector<double>> ReferenceAnswers(
    const ServingInputs& inputs, const std::vector<bool>& needed);

/// Replays `stream[first, first + count)` in send order through each layer's
/// public functions, one request at a time, recording a span around every
/// call. Adds the per-layer metrics to `report` (e2e_p50_ms is the untraced
/// latency median the same invocation measured over the wire) and writes the
/// spans to `spans_path`. `stream[0, first)` is replayed untimed first so
/// caches start as warm as the server's.
prestroid::Status TracedServingReplay(const ServingInputs& inputs, size_t first,
                                      size_t count, double e2e_p50_ms,
                                      const std::string& spans_path,
                                      RunReport* report);

}  // namespace perfbench

#endif  // PERFBENCH_REPLAY_H_
