#ifndef PRESTROID_PLAN_PLAN_NODE_H_
#define PRESTROID_PLAN_PLAN_NODE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "sql/ast.h"

namespace prestroid::plan {

/// Logical-plan operator taxonomy, mirroring the node vocabulary a Presto
/// EXPLAIN emits for the query shapes the workload generators produce.
enum class PlanNodeType {
  kTableScan,   // leaf; `table` set
  kFilter,      // 1 child; `predicate` set
  kProject,     // 1 child; `expressions` set
  kJoin,        // 2 children; `join_type` + optional `predicate`
  kAggregate,   // 1 child; `group_keys` + `expressions` (aggregate calls)
  kSort,        // 1 child; `expressions` (+ sort_descending flags)
  kLimit,       // 1 child; `limit`
  kExchange,    // 1 child; data shuffle/gather stage (`exchange_kind`)
  kDistinct,    // 1 child
};
constexpr size_t kPlanNodeTypeCount =
    static_cast<size_t>(PlanNodeType::kDistinct) + 1;

const char* PlanNodeTypeToString(PlanNodeType type);

/// Exchange flavours (Presto inserts these between plan fragments).
enum class ExchangeKind { kGather, kRepartition, kBroadcast };
const char* ExchangeKindToString(ExchangeKind kind);

struct PlanNode;
using PlanNodePtr = std::unique_ptr<PlanNode>;

/// One logical-plan operator. The tree is a strict hierarchy (each node owns
/// its children); a DAG is not needed for the query shapes in this repo.
struct PlanNode {
  PlanNode() = default;
  /// Iterative teardown: the implicit member-wise destructor recurses once
  /// per tree level, which overflows the thread stack on the deep chain
  /// plans the ingestion limits admit (up to ~150k levels).
  ~PlanNode();

  PlanNodeType type = PlanNodeType::kTableScan;
  std::vector<PlanNodePtr> children;

  std::string table;                       // kTableScan
  sql::ExprPtr predicate;                  // kFilter / kJoin condition
  std::vector<sql::ExprPtr> expressions;   // kProject / kAggregate / kSort
  std::vector<std::string> group_keys;     // kAggregate
  std::vector<bool> sort_descending;       // kSort, parallel to expressions
  sql::JoinType join_type = sql::JoinType::kInner;  // kJoin
  ExchangeKind exchange_kind = ExchangeKind::kGather;  // kExchange
  int64_t limit = -1;                      // kLimit

  /// Output-row estimate, populated by the cost model (0 = unset).
  double cardinality = 0.0;

  /// Deep copy of the subtree.
  PlanNodePtr Clone() const;

  /// Single-line description of this operator (without children), e.g.
  /// "Filter [a.x > 5]".
  std::string Label() const;
};

/// Factory helpers.
PlanNodePtr MakeTableScan(std::string table);
PlanNodePtr MakeFilter(sql::ExprPtr predicate, PlanNodePtr child);
PlanNodePtr MakeProject(std::vector<sql::ExprPtr> expressions, PlanNodePtr child);
PlanNodePtr MakeJoin(sql::JoinType type, sql::ExprPtr condition,
                     PlanNodePtr left, PlanNodePtr right);
PlanNodePtr MakeAggregate(std::vector<std::string> group_keys,
                          std::vector<sql::ExprPtr> aggregates, PlanNodePtr child);
PlanNodePtr MakeSort(std::vector<sql::ExprPtr> keys, std::vector<bool> descending,
                     PlanNodePtr child);
PlanNodePtr MakeLimit(int64_t limit, PlanNodePtr child);
PlanNodePtr MakeExchange(ExchangeKind kind, PlanNodePtr child);
PlanNodePtr MakeDistinct(PlanNodePtr child);

/// Visits every node pre-order.
void VisitPlan(const PlanNode& root,
               const std::function<void(const PlanNode&)>& fn);

}  // namespace prestroid::plan

#endif  // PRESTROID_PLAN_PLAN_NODE_H_
