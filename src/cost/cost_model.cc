#include "cost/cost_model.h"

#include <algorithm>
#include <cmath>
#include <optional>

#include "util/logging.h"

namespace prestroid::cost {

namespace {

double Clamp01(double s) { return std::clamp(s, 1e-6, 1.0); }

/// Finds the column definition referenced on either side of a comparison.
const plan::ColumnDef* FindComparisonColumn(sql::ExprRef predicate,
                                            const plan::TableDef* table) {
  if (table == nullptr) return nullptr;
  for (sql::ExprRef child : predicate.children()) {
    if (child.kind() == sql::ExprKind::kColumn) {
      const plan::ColumnDef* col = table->FindColumn(child.name());
      if (col != nullptr) return col;
    }
  }
  return nullptr;
}

/// Extracts the literal operand of a comparison, if any.
std::optional<sql::ExprRef> FindLiteral(sql::ExprRef predicate) {
  for (sql::ExprRef child : predicate.children()) {
    if (child.kind() == sql::ExprKind::kNumberLit ||
        child.kind() == sql::ExprKind::kStringLit) {
      return child;
    }
  }
  return std::nullopt;
}

}  // namespace

CostModel::CostModel(const plan::Catalog* catalog, CostModelParams params)
    : catalog_(catalog), params_(params) {
  PRESTROID_CHECK(catalog != nullptr);
}

double CostModel::PredicateSelectivity(sql::ExprRef predicate,
                                       const plan::TableDef* table) const {
  switch (predicate.kind()) {
    case sql::ExprKind::kAnd:
      return Clamp01(PredicateSelectivity(predicate.child(0), table) *
                     PredicateSelectivity(predicate.child(1), table));
    case sql::ExprKind::kOr: {
      double a = PredicateSelectivity(predicate.child(0), table);
      double b = PredicateSelectivity(predicate.child(1), table);
      return Clamp01(a + b - a * b);
    }
    case sql::ExprKind::kNot:
      return Clamp01(1.0 - PredicateSelectivity(predicate.child(0), table));
    case sql::ExprKind::kCompare: {
      const plan::ColumnDef* col = FindComparisonColumn(predicate, table);
      const std::string_view op = predicate.op();
      if (op == "=") {
        if (col != nullptr && col->num_distinct > 0) {
          return Clamp01(1.0 / col->num_distinct);
        }
        return params_.default_eq_selectivity;
      }
      if (op == "<>" || op == "!=") {
        if (col != nullptr && col->num_distinct > 0) {
          return Clamp01(1.0 - 1.0 / col->num_distinct);
        }
        return Clamp01(1.0 - params_.default_eq_selectivity);
      }
      // Range comparison: fraction of the column's value range.
      const std::optional<sql::ExprRef> lit = FindLiteral(predicate);
      if (col != nullptr && lit.has_value() &&
          lit->kind() == sql::ExprKind::kNumberLit &&
          col->max_value > col->min_value) {
        double fraction = (lit->number() - col->min_value) /
                          (col->max_value - col->min_value);
        fraction = std::clamp(fraction, 0.0, 1.0);
        if (op == "<" || op == "<=") return Clamp01(fraction);
        return Clamp01(1.0 - fraction);  // > or >=
      }
      return params_.default_range_selectivity;
    }
    case sql::ExprKind::kIn: {
      const plan::ColumnDef* col = FindComparisonColumn(predicate, table);
      const double k = static_cast<double>(predicate.child_count()) - 1.0;
      if (col != nullptr && col->num_distinct > 0) {
        return Clamp01(k / col->num_distinct);
      }
      return Clamp01(k * params_.default_eq_selectivity);
    }
    case sql::ExprKind::kBetween: {
      const plan::ColumnDef* col = FindComparisonColumn(predicate, table);
      const sql::ExprRef lo = predicate.child(1);
      const sql::ExprRef hi = predicate.child(2);
      if (col != nullptr && lo.kind() == sql::ExprKind::kNumberLit &&
          hi.kind() == sql::ExprKind::kNumberLit &&
          col->max_value > col->min_value) {
        double fraction =
            (hi.number() - lo.number()) / (col->max_value - col->min_value);
        return Clamp01(std::max(fraction, 0.0));
      }
      return params_.default_range_selectivity;
    }
    case sql::ExprKind::kLike:
      return params_.like_selectivity;
    case sql::ExprKind::kIsNull:
      return predicate.op() == "NOT" ? 0.95 : 0.05;
    default:
      return params_.default_range_selectivity;
  }
}

Result<double> CostModel::Annotate(plan::PlanNode* node, double* cost_units,
                                   double* peak_rows,
                                   double* input_bytes) const {
  using plan::PlanNodeType;
  switch (node->type) {
    case PlanNodeType::kTableScan: {
      auto table = catalog_->GetTable(node->table);
      if (!table.ok()) return table.status();
      const double rows = (*table)->row_count;
      const double bytes = rows * (*table)->row_bytes;
      *cost_units += bytes * params_.scan_cost_per_byte;
      *input_bytes += bytes;
      *peak_rows = std::max(*peak_rows, rows);
      node->cardinality = rows;
      return rows;
    }
    case PlanNodeType::kFilter: {
      PRESTROID_ASSIGN_OR_RETURN(
          double in_rows,
          Annotate(node->children[0].get(), cost_units, peak_rows, input_bytes));
      // If the child chain bottoms out at a single scan, use that table's
      // statistics for selectivity.
      const plan::PlanNode* leaf = node->children[0].get();
      while (!leaf->children.empty()) leaf = leaf->children[0].get();
      const plan::TableDef* table = nullptr;
      if (leaf->type == PlanNodeType::kTableScan) {
        auto t = catalog_->GetTable(leaf->table);
        if (t.ok()) table = *t;
      }
      const double sel = PredicateSelectivity(*node->predicate, table);
      *cost_units += in_rows * params_.filter_cost_per_row;
      node->cardinality = in_rows * sel;
      return node->cardinality;
    }
    case PlanNodeType::kJoin: {
      PRESTROID_ASSIGN_OR_RETURN(
          double left_rows,
          Annotate(node->children[0].get(), cost_units, peak_rows, input_bytes));
      PRESTROID_ASSIGN_OR_RETURN(
          double right_rows,
          Annotate(node->children[1].get(), cost_units, peak_rows, input_bytes));
      double out_rows;
      if (node->join_type == sql::JoinType::kCross ||
          node->predicate == nullptr) {
        out_rows = left_rows * right_rows;
      } else {
        out_rows = std::max(
            left_rows * right_rows * params_.default_join_selectivity,
            std::max(left_rows, right_rows) * 0.1);
      }
      if (node->join_type == sql::JoinType::kLeft) {
        out_rows = std::max(out_rows, left_rows);
      } else if (node->join_type == sql::JoinType::kRight) {
        out_rows = std::max(out_rows, right_rows);
      } else if (node->join_type == sql::JoinType::kFull) {
        out_rows = std::max(out_rows, left_rows + right_rows);
      }
      out_rows = std::min(out_rows, params_.max_intermediate_rows);
      // Hash join: build on the smaller side, probe with the larger.
      const double build = std::min(left_rows, right_rows);
      const double probe = std::max(left_rows, right_rows);
      *cost_units += build * params_.join_build_cost_per_row +
                     probe * params_.join_probe_cost_per_row;
      *peak_rows = std::max(*peak_rows, build + out_rows * 0.01);
      node->cardinality = out_rows;
      return out_rows;
    }
    case PlanNodeType::kAggregate: {
      PRESTROID_ASSIGN_OR_RETURN(
          double in_rows,
          Annotate(node->children[0].get(), cost_units, peak_rows, input_bytes));
      *cost_units += in_rows * params_.aggregate_cost_per_row;
      // Group count grows sub-linearly with input (power-law heuristic);
      // a global aggregate (no keys) emits one row.
      node->cardinality = node->group_keys.empty()
                              ? 1.0
                              : std::max(1.0, std::pow(in_rows, 0.75));
      *peak_rows = std::max(*peak_rows, node->cardinality);
      return node->cardinality;
    }
    case PlanNodeType::kSort: {
      PRESTROID_ASSIGN_OR_RETURN(
          double in_rows,
          Annotate(node->children[0].get(), cost_units, peak_rows, input_bytes));
      *cost_units += in_rows * std::log2(std::max(2.0, in_rows)) *
                     params_.sort_cost_per_row_log_row;
      *peak_rows = std::max(*peak_rows, in_rows);
      node->cardinality = in_rows;
      return in_rows;
    }
    case PlanNodeType::kLimit: {
      PRESTROID_ASSIGN_OR_RETURN(
          double in_rows,
          Annotate(node->children[0].get(), cost_units, peak_rows, input_bytes));
      node->cardinality =
          std::min(in_rows, static_cast<double>(std::max<int64_t>(0, node->limit)));
      return node->cardinality;
    }
    case PlanNodeType::kExchange: {
      PRESTROID_ASSIGN_OR_RETURN(
          double in_rows,
          Annotate(node->children[0].get(), cost_units, peak_rows, input_bytes));
      double factor =
          node->exchange_kind == plan::ExchangeKind::kBroadcast ? 4.0 : 1.0;
      *cost_units += in_rows * params_.exchange_cost_per_row * factor;
      node->cardinality = in_rows;
      return in_rows;
    }
    case PlanNodeType::kProject: {
      PRESTROID_ASSIGN_OR_RETURN(
          double in_rows,
          Annotate(node->children[0].get(), cost_units, peak_rows, input_bytes));
      *cost_units += in_rows * params_.project_cost_per_row_expr *
                     static_cast<double>(std::max<size_t>(1, node->expressions.size()));
      node->cardinality = in_rows;
      return in_rows;
    }
    case PlanNodeType::kDistinct: {
      PRESTROID_ASSIGN_OR_RETURN(
          double in_rows,
          Annotate(node->children[0].get(), cost_units, peak_rows, input_bytes));
      *cost_units += in_rows * params_.aggregate_cost_per_row;
      node->cardinality = std::max(1.0, std::pow(in_rows, 0.8));
      *peak_rows = std::max(*peak_rows, node->cardinality);
      return node->cardinality;
    }
  }
  return Status::Internal("unhandled plan node type");
}

Result<double> CostModel::EstimateCpuMinutes(plan::PlanNode* root) const {
  double cost_units = 0.0, peak_rows = 0.0, input_bytes = 0.0;
  PRESTROID_RETURN_NOT_OK(
      Annotate(root, &cost_units, &peak_rows, &input_bytes).status());
  return cost_units / params_.cost_units_per_cpu_minute;
}

Result<ExecutionMetrics> CostModel::Execute(plan::PlanNode* root,
                                            Rng* rng) const {
  PRESTROID_CHECK(rng != nullptr);
  double cost_units = 0.0, peak_rows = 0.0, input_bytes = 0.0;
  PRESTROID_RETURN_NOT_OK(
      Annotate(root, &cost_units, &peak_rows, &input_bytes).status());
  ExecutionMetrics metrics;
  const double noise = rng->LogNormal(0.0, params_.noise_sigma);
  metrics.total_cpu_minutes =
      cost_units / params_.cost_units_per_cpu_minute * noise;
  // Peak memory: retained rows at ~160B each, with its own variance.
  metrics.peak_memory_gb =
      peak_rows * 160.0 / 1e9 * rng->LogNormal(0.0, params_.noise_sigma);
  metrics.input_gb = input_bytes / 1e9;
  return metrics;
}

}  // namespace prestroid::cost
