#include "sql/ast.h"

#include <cmath>
#include <sstream>

#include "util/logging.h"
#include "util/string_util.h"

namespace prestroid::sql {

const char* ExprKindToString(ExprKind kind) {
  switch (kind) {
    case ExprKind::kColumn:
      return "Column";
    case ExprKind::kNumberLit:
      return "Number";
    case ExprKind::kStringLit:
      return "String";
    case ExprKind::kNullLit:
      return "Null";
    case ExprKind::kStar:
      return "Star";
    case ExprKind::kBinary:
      return "Binary";
    case ExprKind::kCompare:
      return "Compare";
    case ExprKind::kAnd:
      return "And";
    case ExprKind::kOr:
      return "Or";
    case ExprKind::kNot:
      return "Not";
    case ExprKind::kIn:
      return "In";
    case ExprKind::kBetween:
      return "Between";
    case ExprKind::kLike:
      return "Like";
    case ExprKind::kIsNull:
      return "IsNull";
    case ExprKind::kFuncCall:
      return "FuncCall";
  }
  return "?";
}

ExprPtr Expr::Clone() const {
  auto copy = std::make_unique<Expr>();
  copy->kind = kind;
  copy->table = table;
  copy->name = name;
  copy->number = number;
  copy->str = str;
  copy->op = op;
  copy->children.reserve(children.size());
  for (const ExprPtr& child : children) copy->children.push_back(child->Clone());
  return copy;
}

namespace {

std::string FormatNumber(double value) {
  if (value == static_cast<int64_t>(value) && std::abs(value) < 9e15) {
    return StrFormat("%lld", static_cast<long long>(value));
  }
  // Plain decimal notation (never scientific) so the lexer can re-read it.
  std::string out = StrFormat("%.6f", value);
  while (!out.empty() && out.back() == '0') out.pop_back();
  if (!out.empty() && out.back() == '.') out.pop_back();
  return out;
}

}  // namespace

std::string Expr::ToString() const {
  switch (kind) {
    case ExprKind::kColumn:
      return table.empty() ? name : table + "." + name;
    case ExprKind::kNumberLit:
      return FormatNumber(number);
    case ExprKind::kStringLit:
      return "'" + str + "'";
    case ExprKind::kNullLit:
      return "NULL";
    case ExprKind::kStar:
      return "*";
    case ExprKind::kBinary:
    case ExprKind::kCompare:
      return "(" + children[0]->ToString() + " " + op + " " +
             children[1]->ToString() + ")";
    case ExprKind::kAnd:
      return "(" + children[0]->ToString() + " AND " +
             children[1]->ToString() + ")";
    case ExprKind::kOr:
      return "(" + children[0]->ToString() + " OR " +
             children[1]->ToString() + ")";
    case ExprKind::kNot:
      return "(NOT " + children[0]->ToString() + ")";
    case ExprKind::kIn: {
      std::string out = children[0]->ToString() + " IN (";
      for (size_t i = 1; i < children.size(); ++i) {
        if (i > 1) out += ", ";
        out += children[i]->ToString();
      }
      return out + ")";
    }
    case ExprKind::kBetween:
      return children[0]->ToString() + " BETWEEN " + children[1]->ToString() +
             " AND " + children[2]->ToString();
    case ExprKind::kLike:
      return children[0]->ToString() + " LIKE " + children[1]->ToString();
    case ExprKind::kIsNull:
      return children[0]->ToString() + " IS " + (op == "NOT" ? "NOT " : "") +
             "NULL";
    case ExprKind::kFuncCall: {
      std::string out = name + "(";
      for (size_t i = 0; i < children.size(); ++i) {
        if (i > 0) out += ", ";
        out += children[i]->ToString();
      }
      return out + ")";
    }
  }
  return "?";
}

ExprPtr MakeColumn(std::string table, std::string name) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kColumn;
  e->table = std::move(table);
  e->name = std::move(name);
  return e;
}

ExprPtr MakeNumber(double value) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kNumberLit;
  e->number = value;
  return e;
}

ExprPtr MakeString(std::string value) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kStringLit;
  e->str = std::move(value);
  return e;
}

ExprPtr MakeNull() {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kNullLit;
  return e;
}

ExprPtr MakeStar() {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kStar;
  return e;
}

namespace {
ExprPtr MakeWithChildren(ExprKind kind, std::string op,
                         std::vector<ExprPtr> children) {
  auto e = std::make_unique<Expr>();
  e->kind = kind;
  e->op = std::move(op);
  e->children = std::move(children);
  return e;
}

/// An operator node over a fixed number of operands, with the child vector
/// allocated once at its final size.
template <typename... Operands>
ExprPtr MakeOperator(ExprKind kind, std::string op, Operands... operands) {
  std::vector<ExprPtr> ch;
  ch.reserve(sizeof...(operands));
  (ch.push_back(std::move(operands)), ...);
  return MakeWithChildren(kind, std::move(op), std::move(ch));
}
}  // namespace

ExprPtr MakeCompare(std::string op, ExprPtr lhs, ExprPtr rhs) {
  return MakeOperator(ExprKind::kCompare, std::move(op), std::move(lhs),
                      std::move(rhs));
}

ExprPtr MakeBinary(std::string op, ExprPtr lhs, ExprPtr rhs) {
  return MakeOperator(ExprKind::kBinary, std::move(op), std::move(lhs),
                      std::move(rhs));
}

ExprPtr MakeAnd(ExprPtr lhs, ExprPtr rhs) {
  return MakeOperator(ExprKind::kAnd, "AND", std::move(lhs), std::move(rhs));
}

ExprPtr MakeOr(ExprPtr lhs, ExprPtr rhs) {
  return MakeOperator(ExprKind::kOr, "OR", std::move(lhs), std::move(rhs));
}

ExprPtr MakeNot(ExprPtr inner) {
  return MakeOperator(ExprKind::kNot, "NOT", std::move(inner));
}

ExprPtr MakeIn(ExprPtr lhs, std::vector<ExprPtr> values) {
  values.insert(values.begin(), std::move(lhs));
  return MakeWithChildren(ExprKind::kIn, "IN", std::move(values));
}

ExprPtr MakeBetween(ExprPtr value, ExprPtr lo, ExprPtr hi) {
  return MakeOperator(ExprKind::kBetween, "BETWEEN", std::move(value),
                      std::move(lo), std::move(hi));
}

ExprPtr MakeLike(ExprPtr lhs, ExprPtr pattern) {
  return MakeOperator(ExprKind::kLike, "LIKE", std::move(lhs),
                      std::move(pattern));
}

ExprPtr MakeIsNull(ExprPtr value, bool negated) {
  return MakeOperator(ExprKind::kIsNull, negated ? "NOT" : "",
                      std::move(value));
}

ExprPtr MakeFuncCall(std::string name, std::vector<ExprPtr> args) {
  auto e = MakeWithChildren(ExprKind::kFuncCall, "", std::move(args));
  e->name = std::move(name);
  return e;
}

const char* JoinTypeToString(JoinType type) {
  switch (type) {
    case JoinType::kInner:
      return "INNER";
    case JoinType::kLeft:
      return "LEFT";
    case JoinType::kRight:
      return "RIGHT";
    case JoinType::kFull:
      return "FULL";
    case JoinType::kCross:
      return "CROSS";
  }
  return "?";
}

std::string SelectStmt::ToString() const {
  std::ostringstream os;
  os << "SELECT ";
  if (distinct) os << "DISTINCT ";
  for (size_t i = 0; i < items.size(); ++i) {
    if (i > 0) os << ", ";
    os << items[i].expr->ToString();
    if (!items[i].alias.empty()) os << " AS " << items[i].alias;
  }
  os << " FROM ";
  if (from.IsSubquery()) {
    os << "(" << from.subquery->ToString() << ")";
  } else {
    os << from.table;
  }
  if (!from.alias.empty()) os << " AS " << from.alias;
  for (const JoinClause& join : joins) {
    os << " " << JoinTypeToString(join.type) << " JOIN ";
    if (join.ref.IsSubquery()) {
      os << "(" << join.ref.subquery->ToString() << ")";
    } else {
      os << join.ref.table;
    }
    if (!join.ref.alias.empty()) os << " AS " << join.ref.alias;
    if (join.condition != nullptr) os << " ON " << join.condition->ToString();
  }
  if (where != nullptr) os << " WHERE " << where->ToString();
  if (!group_by.empty()) {
    os << " GROUP BY ";
    for (size_t i = 0; i < group_by.size(); ++i) {
      if (i > 0) os << ", ";
      os << group_by[i]->ToString();
    }
  }
  if (having != nullptr) os << " HAVING " << having->ToString();
  if (!order_by.empty()) {
    os << " ORDER BY ";
    for (size_t i = 0; i < order_by.size(); ++i) {
      if (i > 0) os << ", ";
      os << order_by[i].expr->ToString();
      if (order_by[i].descending) os << " DESC";
    }
  }
  if (limit.has_value()) os << " LIMIT " << *limit;
  return os.str();
}

}  // namespace prestroid::sql
