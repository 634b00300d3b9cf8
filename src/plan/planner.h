#ifndef PRESTROID_PLAN_PLANNER_H_
#define PRESTROID_PLAN_PLANNER_H_

#include <memory>

#include "plan/catalog.h"
#include "plan/plan_node.h"
#include "sql/ast.h"
#include "util/status.h"

namespace prestroid::plan {

/// Planner knobs. Defaults mimic a Presto-style distributed logical plan.
struct PlannerOptions {
  /// Push single-relation WHERE conjuncts below the join tree.
  bool predicate_pushdown = true;
  /// Insert Exchange nodes (repartition under joins, gather at the root),
  /// mirroring Presto plan fragments; disable for compact plans.
  bool insert_exchanges = true;
};

/// Translates parsed SELECT statements into logical-plan trees (the "EXPLAIN"
/// a query engine would produce, which Prestroid consumes). Left-deep join
/// trees follow the declared join order, like an un-reordered optimizer pass.
class Planner {
 public:
  Planner(const Catalog* catalog, PlannerOptions options = {});

  /// Builds a logical plan. Fails with NotFound for unknown tables/columns
  /// and InvalidArgument for unsupported statement shapes.
  Result<PlanNodePtr> Plan(const sql::SelectStmt& stmt) const;

 private:
  const Catalog* catalog_;
  PlannerOptions options_;
};

/// Splits a predicate into its top-level AND conjuncts (each part one range
/// copy of its subtree).
std::vector<sql::ExprPtr> SplitConjuncts(sql::ExprRef predicate);

/// Collects the table qualifiers referenced by `expr` (empty string for
/// unqualified columns).
void CollectColumnRefs(sql::ExprRef expr,
                       std::vector<std::pair<std::string, std::string>>* refs);

}  // namespace prestroid::plan

#endif  // PRESTROID_PLAN_PLANNER_H_
