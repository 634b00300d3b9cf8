#include "workload/query_generator.h"

#include <algorithm>
#include <cmath>

#include "sql/ast.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace prestroid::workload {

namespace {

using plan::ColumnDef;
using plan::ColumnType;
using sql::ExprPtr;

/// One relation in the FROM scope of a query being generated.
struct RelInfo {
  std::string alias;
  std::vector<ColumnDef> columns;
};

/// Stateful generator for a single query; splits structural choices (srng)
/// from literal choices (lrng) so templates can be re-instantiated.
class Generation {
 public:
  Generation(const GeneratedSchema* schema, const QueryGenConfig& config,
             const std::vector<std::string>& tables, int day, Rng srng,
             Rng lrng)
      : schema_(schema),
        config_(config),
        tables_(tables),
        srng_(srng),
        lrng_(lrng) {
    // Tables created within the recency window, for recency-biased picks.
    for (size_t i = 0; i < schema->table_names.size(); ++i) {
      if (schema->creation_day[i] <= day &&
          schema->creation_day[i] > day - config.recency_window_days) {
        recent_tables_.push_back(schema->table_names[i]);
      }
    }
  }

  std::unique_ptr<sql::SelectStmt> Build() {
    auto stmt = BuildSelect(/*depth=*/0, /*joins_budget=*/DrawJoinCount());
    // Deep pipeline chain: wrap in nested single-relation subqueries.
    if (srng_.Bernoulli(config_.p_deep_chain)) {
      size_t chain =
          1 + srng_.NextUint64(std::max<size_t>(1, config_.max_chain_depth));
      for (size_t i = 0; i < chain; ++i) stmt = WrapInChainStage(std::move(stmt));
    }
    return stmt;
  }

 private:
  size_t DrawJoinCount() {
    if (srng_.Bernoulli(config_.join_tail_prob)) {
      double tail = srng_.Pareto(3.0, config_.join_tail_pareto_alpha);
      return std::min(config_.max_joins, static_cast<size_t>(tail));
    }
    // Geometric body.
    size_t joins = 0;
    while (joins < 6 && srng_.Bernoulli(config_.join_geometric_p)) ++joins;
    return joins;
  }

  const ColumnDef& PickColumn(const RelInfo& rel) {
    return rel.columns[srng_.NextUint64(rel.columns.size())];
  }

  /// Prefers an integer "join key" column.
  const ColumnDef& PickJoinColumn(const RelInfo& rel) {
    std::vector<size_t> ints;
    for (size_t i = 0; i < rel.columns.size(); ++i) {
      if (rel.columns[i].type == ColumnType::kInt) ints.push_back(i);
    }
    if (!ints.empty()) return rel.columns[ints[srng_.NextUint64(ints.size())]];
    return PickColumn(rel);
  }

  ExprPtr Literal(const ColumnDef& col) {
    switch (col.type) {
      case ColumnType::kString: {
        size_t v = lrng_.NextUint64(
            static_cast<uint64_t>(std::max(2.0, col.num_distinct)));
        return sql::MakeString(StrFormat("%s_v%zu", col.name.c_str(), v));
      }
      case ColumnType::kInt:
        return sql::MakeNumber(std::floor(
            lrng_.Uniform(col.min_value, std::max(col.min_value + 1, col.max_value))));
      case ColumnType::kDouble:
      case ColumnType::kTimestamp:
        return sql::MakeNumber(lrng_.Uniform(col.min_value, col.max_value));
    }
    return sql::MakeNumber(0);
  }

  /// One atomic predicate clause on a random column of `rel`.
  ExprPtr AtomicClause(const RelInfo& rel) {
    const ColumnDef& col = PickColumn(rel);
    ExprPtr column = sql::MakeColumn(rel.alias, col.name);
    const double roll = srng_.UniformDouble();
    if (col.type == ColumnType::kString) {
      if (roll < 0.45) return sql::MakeCompare("=", std::move(column), Literal(col));
      if (roll < 0.65) {
        std::vector<ExprPtr> values;
        size_t k = 2 + lrng_.NextUint64(4);
        for (size_t i = 0; i < k; ++i) values.push_back(Literal(col));
        return sql::MakeIn(std::move(column), std::move(values));
      }
      if (roll < 0.85) {
        return sql::MakeLike(std::move(column),
                             sql::MakeString(StrFormat(
                                 "%%%s%%", col.name.substr(0, 3).c_str())));
      }
      return sql::MakeIsNull(std::move(column), srng_.Bernoulli(0.5));
    }
    // Numeric / timestamp columns.
    if (roll < 0.30) return sql::MakeCompare("=", std::move(column), Literal(col));
    if (roll < 0.70) {
      const char* ops[] = {"<", "<=", ">", ">="};
      return sql::MakeCompare(ops[srng_.NextUint64(4)], std::move(column),
                              Literal(col));
    }
    if (roll < 0.90) {
      ExprPtr lo = Literal(col);
      ExprPtr hi = Literal(col);
      // Both are literals of one column: swapping them swaps two numbers.
      if (lo->root().number() > hi->root().number()) std::swap(lo, hi);
      return sql::MakeBetween(std::move(column), std::move(lo), std::move(hi));
    }
    std::vector<ExprPtr> values;
    size_t k = 2 + lrng_.NextUint64(3);
    for (size_t i = 0; i < k; ++i) values.push_back(Literal(col));
    return sql::MakeIn(std::move(column), std::move(values));
  }

  /// A conjunction tree of `clauses` atomic predicates over random relations.
  ExprPtr PredicateTree(const std::vector<RelInfo>& rels, size_t clauses) {
    std::vector<ExprPtr> parts;
    for (size_t i = 0; i < clauses; ++i) {
      parts.push_back(AtomicClause(rels[srng_.NextUint64(rels.size())]));
    }
    ExprPtr tree = std::move(parts[0]);
    for (size_t i = 1; i < parts.size(); ++i) {
      if (srng_.Bernoulli(config_.p_or)) {
        tree = sql::MakeOr(std::move(tree), std::move(parts[i]));
      } else {
        tree = sql::MakeAnd(std::move(tree), std::move(parts[i]));
      }
    }
    return tree;
  }

  std::string NextAlias() { return StrFormat("t%zu", alias_counter_++); }

  /// Materializes one FROM relation: a base table or (recursively) a
  /// subquery, returning both its TableRef and its visible column schema.
  std::pair<sql::TableRef, RelInfo> MakeRelation(size_t depth) {
    sql::TableRef ref;
    RelInfo info;
    info.alias = NextAlias();
    ref.alias = info.alias;
    if (depth < config_.max_subquery_depth &&
        srng_.Bernoulli(config_.p_subquery)) {
      auto sub = BuildSelect(depth + 1, /*joins_budget=*/srng_.NextUint64(3));
      // Visible columns = the subquery's aliased outputs.
      for (const sql::SelectItem& item : sub->items) {
        ColumnDef col;
        col.name = item.alias;
        col.type = ColumnType::kDouble;
        col.num_distinct = 1000;
        col.min_value = 0;
        col.max_value = 1e6;
        if (!col.name.empty()) info.columns.push_back(std::move(col));
      }
      ref.subquery = std::move(sub);
      if (info.columns.empty()) {
        ColumnDef col;
        col.name = "c0";
        info.columns.push_back(std::move(col));
      }
    } else {
      if (!recent_tables_.empty() && srng_.Bernoulli(config_.recency_prob)) {
        ref.table = recent_tables_[srng_.NextUint64(recent_tables_.size())];
      } else {
        size_t idx = srng_.Zipf(tables_.size(), config_.table_zipf_s);
        ref.table = tables_[idx];
      }
      const plan::TableDef* def =
          schema_->catalog.GetTable(ref.table).ValueOrDie();
      info.columns = def->columns;
    }
    return {std::move(ref), std::move(info)};
  }

  std::unique_ptr<sql::SelectStmt> BuildSelect(size_t depth,
                                               size_t joins_budget) {
    auto stmt = std::make_unique<sql::SelectStmt>();
    std::vector<RelInfo> rels;

    auto [from_ref, from_info] = MakeRelation(depth);
    stmt->from = std::move(from_ref);
    rels.push_back(std::move(from_info));

    for (size_t j = 0; j < joins_budget; ++j) {
      auto [ref, info] = MakeRelation(depth);
      sql::JoinClause join;
      double roll = srng_.UniformDouble();
      join.type = roll < 0.8   ? sql::JoinType::kInner
                  : roll < 0.95 ? sql::JoinType::kLeft
                                : sql::JoinType::kRight;
      const RelInfo& left = rels[srng_.NextUint64(rels.size())];
      const ColumnDef& lcol = PickJoinColumn(left);
      const ColumnDef& rcol = PickJoinColumn(info);
      join.condition =
          sql::MakeCompare("=", sql::MakeColumn(left.alias, lcol.name),
                           sql::MakeColumn(info.alias, rcol.name));
      join.ref = std::move(ref);
      stmt->joins.push_back(std::move(join));
      rels.push_back(std::move(info));
    }

    if (srng_.Bernoulli(config_.p_where)) {
      size_t clauses = 1 + srng_.NextUint64(config_.max_pred_clauses);
      stmt->where = PredicateTree(rels, clauses);
    }

    const bool grouped = srng_.Bernoulli(config_.p_group_by);
    if (grouped) {
      size_t num_keys = 1 + srng_.NextUint64(2);
      for (size_t k = 0; k < num_keys; ++k) {
        const RelInfo& rel = rels[srng_.NextUint64(rels.size())];
        const ColumnDef& col = PickColumn(rel);
        stmt->group_by.push_back(sql::MakeColumn(rel.alias, col.name));
        sql::SelectItem item;
        item.expr = sql::MakeColumn(rel.alias, col.name);
        item.alias = StrFormat("k%zu", k);
        stmt->items.push_back(std::move(item));
      }
      size_t num_aggs = 1 + srng_.NextUint64(3);
      const char* fns[] = {"COUNT", "SUM", "AVG", "MIN", "MAX"};
      for (size_t a = 0; a < num_aggs; ++a) {
        const RelInfo& rel = rels[srng_.NextUint64(rels.size())];
        const ColumnDef& col = PickColumn(rel);
        const char* fn = fns[srng_.NextUint64(5)];
        std::vector<ExprPtr> args;
        args.push_back(sql::MakeColumn(rel.alias, col.name));
        sql::SelectItem item;
        item.expr = sql::MakeFuncCall(fn, std::move(args));
        item.alias = StrFormat("agg%zu", a);
        stmt->items.push_back(std::move(item));
      }
    } else if (depth == 0 && srng_.Bernoulli(0.15)) {
      sql::SelectItem item;
      item.expr = sql::MakeStar();
      stmt->items.push_back(std::move(item));
    } else {
      size_t num_cols = 1 + srng_.NextUint64(5);
      for (size_t i = 0; i < num_cols; ++i) {
        const RelInfo& rel = rels[srng_.NextUint64(rels.size())];
        const ColumnDef& col = PickColumn(rel);
        sql::SelectItem item;
        item.expr = sql::MakeColumn(rel.alias, col.name);
        item.alias = StrFormat("c%zu", i);
        stmt->items.push_back(std::move(item));
      }
    }

    if (srng_.Bernoulli(config_.p_order_by) && !stmt->items.empty()) {
      sql::OrderItem order;
      const sql::SelectItem& target =
          stmt->items[srng_.NextUint64(stmt->items.size())];
      order.expr = target.alias.empty() ? target.expr->Clone()
                                        : sql::MakeColumn("", target.alias);
      order.descending = srng_.Bernoulli(0.5);
      stmt->order_by.push_back(std::move(order));
    }
    if (srng_.Bernoulli(config_.p_limit)) {
      stmt->limit = static_cast<int64_t>(10 + srng_.NextUint64(100000));
    }
    return stmt;
  }

  /// One stage of a deep pipeline: SELECT <cols> FROM (<inner>) tN [WHERE..].
  std::unique_ptr<sql::SelectStmt> WrapInChainStage(
      std::unique_ptr<sql::SelectStmt> inner) {
    auto stmt = std::make_unique<sql::SelectStmt>();
    RelInfo info;
    info.alias = NextAlias();
    for (const sql::SelectItem& item : inner->items) {
      if (item.alias.empty()) continue;
      ColumnDef col;
      col.name = item.alias;
      col.type = ColumnType::kDouble;
      col.num_distinct = 1000;
      col.min_value = 0;
      col.max_value = 1e6;
      info.columns.push_back(std::move(col));
    }
    stmt->from.subquery = std::move(inner);
    stmt->from.alias = info.alias;
    if (info.columns.empty()) {
      // The inner query was a SELECT *; project a synthetic passthrough.
      ColumnDef col;
      col.name = "c0";
      info.columns.push_back(std::move(col));
    }
    size_t keep = 1 + srng_.NextUint64(info.columns.size());
    for (size_t i = 0; i < keep; ++i) {
      sql::SelectItem item;
      item.expr = sql::MakeColumn(info.alias, info.columns[i].name);
      item.alias = info.columns[i].name;
      stmt->items.push_back(std::move(item));
    }
    if (srng_.Bernoulli(0.5)) {
      std::vector<RelInfo> rels;
      rels.push_back(std::move(info));
      stmt->where = PredicateTree(rels, 1);
    }
    return stmt;
  }

  const GeneratedSchema* schema_;
  const QueryGenConfig& config_;
  const std::vector<std::string>& tables_;
  std::vector<std::string> recent_tables_;
  Rng srng_;
  Rng lrng_;
  size_t alias_counter_ = 0;
};

}  // namespace

QueryGenerator::QueryGenerator(const GeneratedSchema* schema,
                               QueryGenConfig config)
    : schema_(schema), config_(config) {
  PRESTROID_CHECK(schema != nullptr);
}

std::string QueryGenerator::Generate(int day, uint64_t structure_seed,
                                     uint64_t literal_seed) const {
  std::vector<std::string> tables = schema_->TablesAvailableAt(day);
  PRESTROID_CHECK(!tables.empty()) << "no tables exist on day " << day;
  Generation gen(schema_, config_, tables, day, Rng(structure_seed),
                 Rng(literal_seed));
  return gen.Build()->ToString();
}

}  // namespace prestroid::workload
