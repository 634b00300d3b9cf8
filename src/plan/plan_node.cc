#include "plan/plan_node.h"

#include <utility>

#include "util/logging.h"
#include "util/string_util.h"

namespace prestroid::plan {

const char* PlanNodeTypeToString(PlanNodeType type) {
  switch (type) {
    case PlanNodeType::kTableScan:
      return "TableScan";
    case PlanNodeType::kFilter:
      return "Filter";
    case PlanNodeType::kProject:
      return "Project";
    case PlanNodeType::kJoin:
      return "Join";
    case PlanNodeType::kAggregate:
      return "Aggregate";
    case PlanNodeType::kSort:
      return "Sort";
    case PlanNodeType::kLimit:
      return "Limit";
    case PlanNodeType::kExchange:
      return "Exchange";
    case PlanNodeType::kDistinct:
      return "Distinct";
  }
  return "?";
}

const char* ExchangeKindToString(ExchangeKind kind) {
  switch (kind) {
    case ExchangeKind::kGather:
      return "GATHER";
    case ExchangeKind::kRepartition:
      return "REPARTITION";
    case ExchangeKind::kBroadcast:
      return "BROADCAST";
  }
  return "?";
}

PlanNode::~PlanNode() {
  // Detach the subtree into a flat worklist so unique_ptr teardown never
  // recurses more than one level, no matter how deep the plan is.
  std::vector<PlanNodePtr> pending;
  pending.reserve(children.size());
  for (PlanNodePtr& child : children) pending.push_back(std::move(child));
  children.clear();
  while (!pending.empty()) {
    PlanNodePtr node = std::move(pending.back());
    pending.pop_back();
    for (PlanNodePtr& child : node->children) {
      pending.push_back(std::move(child));
    }
    node->children.clear();
  }
}

namespace {

// Copies everything except children (those are wired up iteratively).
PlanNodePtr CloneShallow(const PlanNode& src) {
  auto copy = std::make_unique<PlanNode>();
  copy->type = src.type;
  copy->table = src.table;
  if (src.predicate != nullptr) copy->predicate = src.predicate->Clone();
  copy->expressions.reserve(src.expressions.size());
  for (const sql::ExprPtr& e : src.expressions) {
    copy->expressions.push_back(e->Clone());
  }
  copy->group_keys = src.group_keys;
  copy->sort_descending = src.sort_descending;
  copy->join_type = src.join_type;
  copy->exchange_kind = src.exchange_kind;
  copy->limit = src.limit;
  copy->cardinality = src.cardinality;
  return copy;
}

}  // namespace

PlanNodePtr PlanNode::Clone() const {
  PlanNodePtr root = CloneShallow(*this);
  std::vector<std::pair<const PlanNode*, PlanNode*>> stack;
  stack.emplace_back(this, root.get());
  while (!stack.empty()) {
    auto [src, dst] = stack.back();
    stack.pop_back();
    dst->children.reserve(src->children.size());
    for (const PlanNodePtr& child : src->children) {
      dst->children.push_back(CloneShallow(*child));
      stack.emplace_back(child.get(), dst->children.back().get());
    }
  }
  return root;
}

std::string PlanNode::Label() const {
  switch (type) {
    case PlanNodeType::kTableScan:
      return StrFormat("TableScan [%s]", table.c_str());
    case PlanNodeType::kFilter:
      // An in-memory Filter may lack its predicate (a field mutation drops
      // it); it prints with an empty payload, which ParsePlanText rejects.
      return StrFormat(
          "Filter [%s]",
          predicate != nullptr ? predicate->ToString().c_str() : "");
    case PlanNodeType::kProject: {
      std::vector<std::string> parts;
      parts.reserve(expressions.size());
      for (const sql::ExprPtr& e : expressions) parts.push_back(e->ToString());
      return StrFormat("Project [%s]", Join(parts, "; ").c_str());
    }
    case PlanNodeType::kJoin:
      return StrFormat(
          "Join [%s%s%s]", sql::JoinTypeToString(join_type),
          predicate != nullptr ? ": " : "",
          predicate != nullptr ? predicate->ToString().c_str() : "");
    case PlanNodeType::kAggregate: {
      std::vector<std::string> aggs;
      aggs.reserve(expressions.size());
      for (const sql::ExprPtr& e : expressions) aggs.push_back(e->ToString());
      return StrFormat("Aggregate [keys: %s | aggs: %s]",
                       Join(group_keys, "; ").c_str(),
                       Join(aggs, "; ").c_str());
    }
    case PlanNodeType::kSort: {
      std::vector<std::string> keys;
      for (size_t i = 0; i < expressions.size(); ++i) {
        keys.push_back(expressions[i]->ToString() +
                       (i < sort_descending.size() && sort_descending[i]
                            ? " DESC"
                            : ""));
      }
      return StrFormat("Sort [%s]", Join(keys, "; ").c_str());
    }
    case PlanNodeType::kLimit:
      return StrFormat("Limit [%lld]", static_cast<long long>(limit));
    case PlanNodeType::kExchange:
      return StrFormat("Exchange [%s]", ExchangeKindToString(exchange_kind));
    case PlanNodeType::kDistinct:
      return "Distinct";
  }
  return "?";
}

PlanNodePtr MakeTableScan(std::string table) {
  auto node = std::make_unique<PlanNode>();
  node->type = PlanNodeType::kTableScan;
  node->table = std::move(table);
  return node;
}

PlanNodePtr MakeFilter(sql::ExprPtr predicate, PlanNodePtr child) {
  PRESTROID_CHECK(predicate != nullptr);
  auto node = std::make_unique<PlanNode>();
  node->type = PlanNodeType::kFilter;
  node->predicate = std::move(predicate);
  node->children.push_back(std::move(child));
  return node;
}

PlanNodePtr MakeProject(std::vector<sql::ExprPtr> expressions,
                        PlanNodePtr child) {
  auto node = std::make_unique<PlanNode>();
  node->type = PlanNodeType::kProject;
  node->expressions = std::move(expressions);
  node->children.push_back(std::move(child));
  return node;
}

PlanNodePtr MakeJoin(sql::JoinType type, sql::ExprPtr condition,
                     PlanNodePtr left, PlanNodePtr right) {
  auto node = std::make_unique<PlanNode>();
  node->type = PlanNodeType::kJoin;
  node->join_type = type;
  node->predicate = std::move(condition);
  node->children.push_back(std::move(left));
  node->children.push_back(std::move(right));
  return node;
}

PlanNodePtr MakeAggregate(std::vector<std::string> group_keys,
                          std::vector<sql::ExprPtr> aggregates,
                          PlanNodePtr child) {
  auto node = std::make_unique<PlanNode>();
  node->type = PlanNodeType::kAggregate;
  node->group_keys = std::move(group_keys);
  node->expressions = std::move(aggregates);
  node->children.push_back(std::move(child));
  return node;
}

PlanNodePtr MakeSort(std::vector<sql::ExprPtr> keys,
                     std::vector<bool> descending, PlanNodePtr child) {
  auto node = std::make_unique<PlanNode>();
  node->type = PlanNodeType::kSort;
  node->expressions = std::move(keys);
  node->sort_descending = std::move(descending);
  node->children.push_back(std::move(child));
  return node;
}

PlanNodePtr MakeLimit(int64_t limit, PlanNodePtr child) {
  auto node = std::make_unique<PlanNode>();
  node->type = PlanNodeType::kLimit;
  node->limit = limit;
  node->children.push_back(std::move(child));
  return node;
}

PlanNodePtr MakeExchange(ExchangeKind kind, PlanNodePtr child) {
  auto node = std::make_unique<PlanNode>();
  node->type = PlanNodeType::kExchange;
  node->exchange_kind = kind;
  node->children.push_back(std::move(child));
  return node;
}

PlanNodePtr MakeDistinct(PlanNodePtr child) {
  auto node = std::make_unique<PlanNode>();
  node->type = PlanNodeType::kDistinct;
  node->children.push_back(std::move(child));
  return node;
}

void VisitPlan(const PlanNode& root,
               const std::function<void(const PlanNode&)>& fn) {
  // Explicit pre-order stack; children pushed right-to-left so visitation
  // order matches the old recursive form exactly.
  std::vector<const PlanNode*> stack;
  stack.push_back(&root);
  while (!stack.empty()) {
    const PlanNode* node = stack.back();
    stack.pop_back();
    fn(*node);
    for (size_t i = node->children.size(); i > 0; --i) {
      stack.push_back(node->children[i - 1].get());
    }
  }
}

}  // namespace prestroid::plan
