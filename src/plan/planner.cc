#include "plan/planner.h"

#include <set>

#include "util/logging.h"
#include "util/string_util.h"

namespace prestroid::plan {

namespace {

/// One relation in FROM scope: its visible name, plus either a base table or
/// an already-planned subquery.
struct Relation {
  std::string visible_name;
  std::string base_table;  // empty for subqueries
  PlanNodePtr subplan;     // set for subqueries
  /// Column names this relation can resolve (base-table schema or subquery
  /// output names).
  std::set<std::string> columns;
};

bool ExprHasAggregate(sql::ExprRef expr) {
  if (expr.kind() == sql::ExprKind::kFuncCall) {
    const std::string upper = ToUpper(expr.name());
    if (upper == "COUNT" || upper == "SUM" || upper == "AVG" ||
        upper == "MIN" || upper == "MAX") {
      return true;
    }
  }
  for (sql::ExprRef child : expr.children()) {
    if (ExprHasAggregate(child)) return true;
  }
  return false;
}

}  // namespace

void CollectColumnRefs(sql::ExprRef expr,
                       std::vector<std::pair<std::string, std::string>>* refs) {
  if (expr.kind() == sql::ExprKind::kColumn) {
    refs->emplace_back(expr.table(), expr.name());
  }
  for (sql::ExprRef child : expr.children()) CollectColumnRefs(child, refs);
}

namespace {

void AppendConjuncts(sql::ExprRef predicate, std::vector<sql::ExprPtr>* out) {
  if (predicate.kind() == sql::ExprKind::kAnd) {
    for (sql::ExprRef child : predicate.children()) AppendConjuncts(child, out);
  } else {
    out->push_back(predicate.Clone());
  }
}

}  // namespace

std::vector<sql::ExprPtr> SplitConjuncts(sql::ExprRef predicate) {
  std::vector<sql::ExprPtr> out;
  AppendConjuncts(predicate, &out);
  return out;
}

Planner::Planner(const Catalog* catalog, PlannerOptions options)
    : catalog_(catalog), options_(options) {
  PRESTROID_CHECK(catalog != nullptr);
}

Result<PlanNodePtr> Planner::Plan(const sql::SelectStmt& stmt) const {
  if (stmt.items.empty()) {
    return Status::InvalidArgument("SELECT list is empty");
  }

  // 1. Bring every FROM relation into scope.
  std::vector<Relation> relations;
  auto add_relation = [&](const sql::TableRef& ref) -> Status {
    Relation rel;
    rel.visible_name = ref.VisibleName();
    if (ref.IsSubquery()) {
      auto sub = Plan(*ref.subquery);
      if (!sub.ok()) return sub.status();
      rel.subplan = std::move(sub).value();
      for (const sql::SelectItem& item : ref.subquery->items) {
        if (!item.alias.empty()) {
          rel.columns.insert(item.alias);
        } else if (item.expr->root().kind() == sql::ExprKind::kColumn) {
          rel.columns.emplace(item.expr->root().name());
        }
      }
    } else {
      auto table = catalog_->GetTable(ref.table);
      if (!table.ok()) return table.status();
      rel.base_table = ref.table;
      for (const ColumnDef& col : (*table)->columns) {
        rel.columns.insert(col.name);
      }
    }
    relations.push_back(std::move(rel));
    return Status::OK();
  };
  PRESTROID_RETURN_NOT_OK(add_relation(stmt.from));
  for (const sql::JoinClause& join : stmt.joins) {
    PRESTROID_RETURN_NOT_OK(add_relation(join.ref));
  }

  // Maps a column reference to the index of the relation that defines it.
  auto resolve = [&](const std::string& qualifier,
                     const std::string& column) -> Result<size_t> {
    if (!qualifier.empty()) {
      for (size_t i = 0; i < relations.size(); ++i) {
        if (relations[i].visible_name == qualifier) return i;
      }
      return Status::NotFound("unknown relation qualifier: " + qualifier);
    }
    for (size_t i = 0; i < relations.size(); ++i) {
      if (relations[i].columns.count(column) > 0) return i;
    }
    return Status::NotFound("cannot resolve column: " + column);
  };

  // Which relations does a predicate touch?
  auto referenced_relations = [&](sql::ExprRef expr) -> Result<std::set<size_t>> {
    std::vector<std::pair<std::string, std::string>> refs;
    CollectColumnRefs(expr, &refs);
    std::set<size_t> out;
    for (const auto& [qualifier, column] : refs) {
      if (column == "*") continue;
      auto idx = resolve(qualifier, column);
      if (!idx.ok()) return idx.status();
      out.insert(*idx);
    }
    return out;
  };

  // 2. Predicate pushdown: split WHERE into conjuncts, attach single-relation
  // conjuncts to their scan, keep the rest for the top of the join tree.
  std::vector<std::vector<sql::ExprPtr>> pushed(relations.size());
  std::vector<sql::ExprPtr> residual;
  if (stmt.where != nullptr) {
    for (sql::ExprPtr& conjunct : SplitConjuncts(*stmt.where)) {
      auto touched = referenced_relations(*conjunct);
      if (!touched.ok()) return touched.status();
      if (options_.predicate_pushdown && touched->size() == 1) {
        pushed[*touched->begin()].push_back(std::move(conjunct));
      } else {
        residual.push_back(std::move(conjunct));
      }
    }
  }

  // 3. Leaf plans: scan (or subplan) + pushed-down filters.
  std::vector<PlanNodePtr> leaves;
  for (size_t i = 0; i < relations.size(); ++i) {
    PlanNodePtr leaf = relations[i].subplan != nullptr
                           ? std::move(relations[i].subplan)
                           : MakeTableScan(relations[i].base_table);
    for (sql::ExprPtr& pred : pushed[i]) {
      leaf = MakeFilter(std::move(pred), std::move(leaf));
    }
    leaves.push_back(std::move(leaf));
  }

  // 4. Left-deep join tree in declared order.
  PlanNodePtr root = std::move(leaves[0]);
  for (size_t j = 0; j < stmt.joins.size(); ++j) {
    PlanNodePtr right = std::move(leaves[j + 1]);
    if (options_.insert_exchanges) {
      right = MakeExchange(ExchangeKind::kRepartition, std::move(right));
      root = MakeExchange(ExchangeKind::kRepartition, std::move(root));
    }
    sql::ExprPtr condition;
    if (stmt.joins[j].condition != nullptr) {
      condition = stmt.joins[j].condition->Clone();
    }
    root = MakeJoin(stmt.joins[j].type, std::move(condition), std::move(root),
                    std::move(right));
  }

  // 5. Residual (multi-relation) WHERE conjuncts above the join tree.
  for (sql::ExprPtr& pred : residual) {
    root = MakeFilter(std::move(pred), std::move(root));
  }

  // 6. Aggregation.
  bool has_aggregate = !stmt.group_by.empty();
  for (const sql::SelectItem& item : stmt.items) {
    if (ExprHasAggregate(*item.expr)) has_aggregate = true;
  }
  if (has_aggregate) {
    std::vector<std::string> keys;
    keys.reserve(stmt.group_by.size());
    for (const sql::ExprPtr& key : stmt.group_by) keys.push_back(key->ToString());
    std::vector<sql::ExprPtr> aggs;
    for (const sql::SelectItem& item : stmt.items) {
      if (ExprHasAggregate(*item.expr)) aggs.push_back(item.expr->Clone());
    }
    root = MakeAggregate(std::move(keys), std::move(aggs), std::move(root));
    if (stmt.having != nullptr) {
      root = MakeFilter(stmt.having->Clone(), std::move(root));
    }
  } else if (stmt.having != nullptr) {
    return Status::InvalidArgument("HAVING without aggregation");
  }

  // 7. Projection (omitted for a bare SELECT *).
  bool star_only = stmt.items.size() == 1 &&
                   stmt.items[0].expr->root().kind() == sql::ExprKind::kStar;
  if (!star_only && !has_aggregate) {
    std::vector<sql::ExprPtr> exprs;
    exprs.reserve(stmt.items.size());
    for (const sql::SelectItem& item : stmt.items) {
      exprs.push_back(item.expr->Clone());
    }
    root = MakeProject(std::move(exprs), std::move(root));
  }
  if (stmt.distinct) root = MakeDistinct(std::move(root));

  // 8. Sort / Limit / final gather.
  if (!stmt.order_by.empty()) {
    std::vector<sql::ExprPtr> keys;
    std::vector<bool> desc;
    for (const sql::OrderItem& item : stmt.order_by) {
      keys.push_back(item.expr->Clone());
      desc.push_back(item.descending);
    }
    root = MakeSort(std::move(keys), std::move(desc), std::move(root));
  }
  if (stmt.limit.has_value()) root = MakeLimit(*stmt.limit, std::move(root));
  if (options_.insert_exchanges) {
    root = MakeExchange(ExchangeKind::kGather, std::move(root));
  }
  return root;
}

}  // namespace prestroid::plan
