#ifndef PRESTROID_PLAN_PLAN_STATS_H_
#define PRESTROID_PLAN_PLAN_STATS_H_

#include <array>
#include <cstddef>
#include <string>

#include "plan/plan_node.h"

namespace prestroid::plan {

/// Shape statistics of a plan tree — the (node count, max depth) coordinates
/// plotted in the paper's Figure 2 and the long-tail histogram of Figure 8.
struct PlanStats {
  size_t node_count = 0;
  /// Largest root-to-leaf edge distance (a single node has depth 0).
  size_t max_depth = 0;
  /// Nodes per type, indexed by PlanNodeType (see count()).
  std::array<size_t, kPlanNodeTypeCount> per_type{};
  size_t num_joins = 0;
  size_t num_predicates = 0;  // Filter nodes + join conditions

  size_t count(PlanNodeType type) const {
    return per_type[static_cast<size_t>(type)];
  }
};

/// Computes shape statistics of `root`.
PlanStats ComputePlanStats(const PlanNode& root);

/// Node count of a perfectly balanced binary tree of the given depth
/// (2^(depth+1) - 1): the upper reference curve in Figure 2.
size_t BalancedTreeNodeCount(size_t depth);

/// Node count of a fully skewed (left-deep, single-child) tree of the given
/// depth (depth + 1): the lower reference curve in Figure 2.
size_t SkewedTreeNodeCount(size_t depth);

}  // namespace prestroid::plan

#endif  // PRESTROID_PLAN_PLAN_STATS_H_
