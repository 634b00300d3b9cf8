#ifndef PRESTROID_PLAN_PLAN_TEXT_H_
#define PRESTROID_PLAN_PLAN_TEXT_H_

#include <string>
#include <string_view>

#include "plan/plan_limits.h"
#include "plan/plan_node.h"
#include "util/status.h"

namespace prestroid::plan {

/// Serializes a plan tree to an EXPLAIN-style indented text form, e.g.
///
///   - Exchange [GATHER]
///     - Aggregate [keys: region | aggs: COUNT(*)]
///       - Filter [(fare > 10)]
///         - TableScan [trips]
///
/// The format round-trips through ParsePlanText. This stands in for Presto's
/// `EXPLAIN <query>` output as the ingestion format of trace files.
std::string PlanToText(const PlanNode& root);

/// Parses the text produced by PlanToText back into a plan tree in one pass:
/// lines are cut in place (views into `text`, no per-line copies) and each
/// node is built onto a depth-indexed stack as its line is read. Limits are
/// enforced during that walk — the byte, line, depth and node budgets are
/// checked on each line before its node is built, so no node beyond a
/// budget is ever allocated and an over-budget input is rejected with
/// kResourceExhausted — and malformed input (including a Limit payload that
/// is not exactly one in-range integer) yields kParseError/kInvalidArgument.
/// A line-level error (limits, indentation, bullet, bracket) outranks a
/// node-level one earlier in the text. Never aborts on hostile bytes.
Result<PlanNodePtr> ParsePlanText(std::string_view text,
                                  const PlanLimits& limits = PlanLimits());

/// ParsePlanText's verdict without the tree: the same Status for the same
/// text and limits, or the number of nodes the tree would have. It checks
/// every line and expression as ParsePlanText does, but builds no node and
/// copies out no expression.
Result<size_t> CheckPlanText(std::string_view text,
                             const PlanLimits& limits = PlanLimits());

}  // namespace prestroid::plan

#endif  // PRESTROID_PLAN_PLAN_TEXT_H_
