#include "plan/plan_stats.h"

#include <algorithm>
#include <utility>

namespace prestroid::plan {

PlanStats ComputePlanStats(const PlanNode& root) {
  // One iterative (node, depth) walk replaces the old VisitPlan pass plus a
  // recursive Depth() — stats run on hostile serving inputs, so traversal
  // depth must be heap-bounded, not thread-stack-bounded.
  PlanStats stats;
  std::vector<std::pair<const PlanNode*, size_t>> stack;
  stack.reserve(16);  // one allocation for the plans a trace holds
  stack.emplace_back(&root, 0);
  while (!stack.empty()) {
    auto [node, depth] = stack.back();
    stack.pop_back();
    ++stats.node_count;
    ++stats.per_type[static_cast<size_t>(node->type)];
    if (node->type == PlanNodeType::kJoin) {
      ++stats.num_joins;
      if (node->predicate != nullptr) ++stats.num_predicates;
    }
    if (node->type == PlanNodeType::kFilter) ++stats.num_predicates;
    stats.max_depth = std::max(stats.max_depth, depth);
    for (const PlanNodePtr& child : node->children) {
      stack.emplace_back(child.get(), depth + 1);
    }
  }
  return stats;
}

size_t BalancedTreeNodeCount(size_t depth) {
  return (static_cast<size_t>(1) << (depth + 1)) - 1;
}

size_t SkewedTreeNodeCount(size_t depth) { return depth + 1; }

}  // namespace prestroid::plan
