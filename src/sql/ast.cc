#include "sql/ast.h"

#include <algorithm>
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

ExprPtr Expr::Clone() const { return std::make_unique<Expr>(*this); }

std::string Expr::ToString() const { return root().ToString(); }

ExprText Expr::Store(std::string_view text) {
  if (text.empty()) return {};
  PRESTROID_CHECK_LE(bytes_.size() + text.size(), size_t{UINT32_MAX});
  const ExprText stored{static_cast<uint32_t>(bytes_.size()),
                        static_cast<uint32_t>(text.size())};
  bytes_.append(text);
  return stored;
}

void Expr::SetName(uint32_t index, std::string_view name) {
  ExprNode& node = nodes_.at(index);
  PRESTROID_CHECK(node.kind == ExprKind::kColumn ||
                  node.kind == ExprKind::kFuncCall);
  node.text = Store(name);
}

void Expr::SetTable(uint32_t index, std::string_view table) {
  ExprNode& node = nodes_.at(index);
  PRESTROID_CHECK(node.kind == ExprKind::kColumn);
  node.table = Store(table);
}

void Expr::SetString(uint32_t index, std::string_view value) {
  ExprNode& node = nodes_.at(index);
  PRESTROID_CHECK(node.kind == ExprKind::kStringLit);
  node.text = Store(value);
}

void Expr::SetOp(uint32_t index, std::string_view op) {
  ExprNode& node = nodes_.at(index);
  PRESTROID_CHECK(node.kind == ExprKind::kBinary ||
                  node.kind == ExprKind::kCompare);
  node.text = Store(op);
}

void Expr::SetNumber(uint32_t index, double value) {
  ExprNode& node = nodes_.at(index);
  PRESTROID_CHECK(node.kind == ExprKind::kNumberLit);
  node.number = value;
}

std::string_view ExprRef::op() const {
  switch (kind()) {
    case ExprKind::kBinary:
    case ExprKind::kCompare:
      return expr_->View(node().text);
    case ExprKind::kAnd:
      return "AND";
    case ExprKind::kOr:
      return "OR";
    case ExprKind::kNot:
      return "NOT";
    case ExprKind::kIn:
      return "IN";
    case ExprKind::kBetween:
      return "BETWEEN";
    case ExprKind::kLike:
      return "LIKE";
    case ExprKind::kIsNull:
      return node().negated ? "NOT" : "";
    default:
      return "";
  }
}

std::string_view ExprRef::name() const {
  return kind() == ExprKind::kColumn || kind() == ExprKind::kFuncCall
             ? expr_->View(node().text)
             : std::string_view();
}

std::string_view ExprRef::table() const {
  return kind() == ExprKind::kColumn ? expr_->View(node().table)
                                     : std::string_view();
}

std::string_view ExprRef::str() const {
  return kind() == ExprKind::kStringLit ? expr_->View(node().text)
                                        : std::string_view();
}

ExprRef ExprRef::child(size_t i) const {
  PRESTROID_CHECK_LT(i, child_count());
  uint32_t at = index_ - node().first;
  for (; i > 0; --i) at += expr_->nodes_[at].next;
  return ExprRef(*expr_, at);
}

ExprRef::Children ExprRef::children() const {
  const uint32_t first = index_ - node().first;
  return {ChildIterator(expr_, first, node().arity),
          ChildIterator(expr_, first, 0)};
}

ExprPtr ExprRef::Clone() const {
  const uint32_t begin = index_ + 1 - node().size;
  const ExprNode* records = expr_->nodes_.data();
  // The bytes the range points into: for a parsed expression exactly the
  // subtree's own, appended in the same order as its records.
  uint32_t lo = UINT32_MAX;
  uint32_t hi = 0;
  for (uint32_t i = begin; i <= index_; ++i) {
    for (const ExprText& text : {records[i].table, records[i].text}) {
      if (text.size == 0) continue;
      lo = std::min(lo, text.offset);
      hi = std::max(hi, text.offset + text.size);
    }
  }
  if (lo > hi) lo = hi = 0;
  auto copy = std::make_unique<Expr>();
  copy->nodes_.assign(records + begin, records + index_ + 1);
  copy->nodes_.back().next = 0;
  copy->bytes_.assign(expr_->bytes_, lo, hi - lo);
  for (ExprNode& record : copy->nodes_) {
    for (ExprText* text : {&record.table, &record.text}) {
      text->offset = text->size == 0 ? 0 : text->offset - lo;
    }
  }
  return copy;
}

std::string ExprRef::ToString() const {
  std::string out;
  AppendText(&out);
  return out;
}

void ExprRef::AppendText(std::string* out) const {
  auto binary = [&](std::string_view op) {
    *out += '(';
    child(0).AppendText(out);
    *out += ' ';
    *out += op;
    *out += ' ';
    child(1).AppendText(out);
    *out += ')';
  };
  auto list = [&](ChildIterator it, ChildIterator end) {
    for (bool first = true; it != end; ++it, first = false) {
      if (!first) *out += ", ";
      (*it).AppendText(out);
    }
  };
  switch (kind()) {
    case ExprKind::kColumn:
      if (!table().empty()) {
        *out += table();
        *out += '.';
      }
      *out += name();
      return;
    case ExprKind::kNumberLit:
      *out += FormatNumber(number());
      return;
    case ExprKind::kStringLit:
      // An embedded quote doubles, as the lexer reads it back.
      *out += '\'';
      for (const char c : str()) {
        if (c == '\'') *out += '\'';
        *out += c;
      }
      *out += '\'';
      return;
    case ExprKind::kNullLit:
      *out += "NULL";
      return;
    case ExprKind::kStar:
      *out += '*';
      return;
    case ExprKind::kBinary:
    case ExprKind::kCompare:
    case ExprKind::kAnd:
    case ExprKind::kOr:
      binary(op());
      return;
    case ExprKind::kNot:
      *out += "(NOT ";
      child(0).AppendText(out);
      *out += ')';
      return;
    case ExprKind::kIn: {
      const Children all = children();
      ChildIterator it = all.begin();
      (*it).AppendText(out);
      *out += " IN (";
      list(++it, all.end());
      *out += ')';
      return;
    }
    case ExprKind::kBetween:
      child(0).AppendText(out);
      *out += " BETWEEN ";
      child(1).AppendText(out);
      *out += " AND ";
      child(2).AppendText(out);
      return;
    case ExprKind::kLike:
      child(0).AppendText(out);
      *out += " LIKE ";
      child(1).AppendText(out);
      return;
    case ExprKind::kIsNull:
      child(0).AppendText(out);
      *out += node().negated ? " IS NOT NULL" : " IS NULL";
      return;
    case ExprKind::kFuncCall:
      *out += name();
      *out += '(';
      list(children().begin(), children().end());
      *out += ')';
      return;
  }
  *out += '?';
}

ExprNode& ExprBuilder::Leaf(ExprKind kind) {
  ExprNode& node = expr_->nodes_.emplace_back();
  node.kind = kind;
  return node;
}

ExprNode& ExprBuilder::Parent(ExprKind kind, uint32_t arity) {
  std::vector<ExprNode>& nodes = expr_->nodes_;
  const uint32_t self = static_cast<uint32_t>(nodes.size());
  // The children are the `arity` subtrees that end right before `self`;
  // walk back over them, linking each to the sibling after it.
  uint32_t size = 1;
  uint32_t after = self;
  for (uint32_t k = 0; k < arity; ++k) {
    PRESTROID_CHECK_LT(size - 1, self);
    const uint32_t child = self - size;
    nodes[child].next = after == self ? 0 : after - child;
    size += nodes[child].size;
    after = child;
  }
  ExprNode& node = nodes.emplace_back();
  node.kind = kind;
  node.size = size;
  node.first = self - after;
  node.arity = arity;
  return node;
}

void ExprBuilder::Column(std::string_view table, std::string_view name) {
  ExprNode& node = Leaf(ExprKind::kColumn);
  node.table = expr_->Store(table);
  node.text = expr_->Store(name);
}

void ExprBuilder::Number(double value) { Leaf(ExprKind::kNumberLit).number = value; }

void ExprBuilder::String(std::string_view value) {
  Leaf(ExprKind::kStringLit).text = expr_->Store(value);
}

void ExprBuilder::Operator(ExprKind kind, std::string_view op) {
  Parent(kind, 2).text = expr_->Store(op);
}

void ExprBuilder::Node(ExprKind kind, uint32_t arity) { Parent(kind, arity); }

void ExprBuilder::IsNull(bool negated) {
  Parent(ExprKind::kIsNull, 1).negated = negated;
}

void ExprBuilder::FuncCall(std::string_view name, uint32_t arity) {
  Parent(ExprKind::kFuncCall, arity).text = expr_->Store(name);
}

void ExprBuilder::Clear() {
  // A scratch Expr keeps its capacity between parses, up to a bound, so one
  // hostile expression does not pin its buffers for the thread's life.
  constexpr size_t kKeepNodes = 4096;
  expr_->nodes_.clear();
  expr_->bytes_.clear();
  if (expr_->nodes_.capacity() > kKeepNodes) {
    expr_->nodes_.shrink_to_fit();
    expr_->bytes_.shrink_to_fit();
  }
}

void ExprBuilder::Append(const Expr& other) {
  PRESTROID_CHECK(&other != expr_);
  const uint32_t shift = static_cast<uint32_t>(expr_->bytes_.size());
  PRESTROID_CHECK_LE(expr_->bytes_.size() + other.bytes_.size(),
                     size_t{UINT32_MAX});
  const size_t from = expr_->nodes_.size();
  expr_->nodes_.insert(expr_->nodes_.end(), other.nodes_.begin(),
                       other.nodes_.end());
  expr_->bytes_ += other.bytes_;
  for (size_t i = from; i < expr_->nodes_.size(); ++i) {
    for (ExprText* text : {&expr_->nodes_[i].table, &expr_->nodes_[i].text}) {
      if (text->size != 0) text->offset += shift;
    }
  }
}

namespace {

/// A fresh expression holding `operands` in order, reusing the first one's
/// buffers.
ExprPtr Gather(std::vector<ExprPtr> operands) {
  ExprPtr out = std::move(operands.front());
  ExprBuilder builder(out.get());
  for (size_t i = 1; i < operands.size(); ++i) builder.Append(*operands[i]);
  return out;
}

/// `first` with each of `rest` appended, in order.
template <typename... Operands>
ExprPtr Concat(ExprPtr first, Operands... rest) {
  ExprBuilder builder(first.get());
  (builder.Append(*rest), ...);
  return first;
}

}  // namespace

ExprPtr MakeColumn(std::string_view table, std::string_view name) {
  auto e = std::make_unique<Expr>();
  ExprBuilder(e.get()).Column(table, name);
  return e;
}

ExprPtr MakeNumber(double value) {
  auto e = std::make_unique<Expr>();
  ExprBuilder(e.get()).Number(value);
  return e;
}

ExprPtr MakeString(std::string_view value) {
  auto e = std::make_unique<Expr>();
  ExprBuilder(e.get()).String(value);
  return e;
}

ExprPtr MakeNull() {
  auto e = std::make_unique<Expr>();
  ExprBuilder(e.get()).Null();
  return e;
}

ExprPtr MakeStar() {
  auto e = std::make_unique<Expr>();
  ExprBuilder(e.get()).Star();
  return e;
}

ExprPtr MakeCompare(std::string_view op, ExprPtr lhs, ExprPtr rhs) {
  ExprPtr e = Concat(std::move(lhs), std::move(rhs));
  ExprBuilder(e.get()).Operator(ExprKind::kCompare, op);
  return e;
}

ExprPtr MakeBinary(std::string_view op, ExprPtr lhs, ExprPtr rhs) {
  ExprPtr e = Concat(std::move(lhs), std::move(rhs));
  ExprBuilder(e.get()).Operator(ExprKind::kBinary, op);
  return e;
}

ExprPtr MakeAnd(ExprPtr lhs, ExprPtr rhs) {
  ExprPtr e = Concat(std::move(lhs), std::move(rhs));
  ExprBuilder(e.get()).Node(ExprKind::kAnd, 2);
  return e;
}

ExprPtr MakeOr(ExprPtr lhs, ExprPtr rhs) {
  ExprPtr e = Concat(std::move(lhs), std::move(rhs));
  ExprBuilder(e.get()).Node(ExprKind::kOr, 2);
  return e;
}

ExprPtr MakeNot(ExprPtr inner) {
  ExprBuilder(inner.get()).Node(ExprKind::kNot, 1);
  return inner;
}

ExprPtr MakeIn(ExprPtr lhs, std::vector<ExprPtr> values) {
  const uint32_t arity = static_cast<uint32_t>(values.size() + 1);
  values.insert(values.begin(), std::move(lhs));
  ExprPtr e = Gather(std::move(values));
  ExprBuilder(e.get()).Node(ExprKind::kIn, arity);
  return e;
}

ExprPtr MakeBetween(ExprPtr value, ExprPtr lo, ExprPtr hi) {
  ExprPtr e = Concat(std::move(value), std::move(lo), std::move(hi));
  ExprBuilder(e.get()).Node(ExprKind::kBetween, 3);
  return e;
}

ExprPtr MakeLike(ExprPtr lhs, ExprPtr pattern) {
  ExprPtr e = Concat(std::move(lhs), std::move(pattern));
  ExprBuilder(e.get()).Node(ExprKind::kLike, 2);
  return e;
}

ExprPtr MakeIsNull(ExprPtr value, bool negated) {
  ExprBuilder(value.get()).IsNull(negated);
  return value;
}

ExprPtr MakeFuncCall(std::string_view name, std::vector<ExprPtr> args) {
  const uint32_t arity = static_cast<uint32_t>(args.size());
  ExprPtr e = args.empty() ? std::make_unique<Expr>() : Gather(std::move(args));
  ExprBuilder(e.get()).FuncCall(name, arity);
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
