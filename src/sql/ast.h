#ifndef PRESTROID_SQL_AST_H_
#define PRESTROID_SQL_AST_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace prestroid::sql {

struct Expr;
using ExprPtr = std::unique_ptr<Expr>;
struct SelectStmt;

/// Expression node kinds covering the mini-SQL dialect's predicates and
/// scalar expressions.
enum class ExprKind : uint8_t {
  kColumn,     // [table.]name
  kNumberLit,  // numeric literal
  kStringLit,  // 'string' literal
  kNullLit,    // NULL
  kStar,       // * in SELECT or COUNT(*)
  kBinary,     // arithmetic: + - * / %
  kCompare,    // = <> != < <= > >=
  kAnd,        // conjunction (n-ary flattened to binary at parse time)
  kOr,
  kNot,
  kIn,         // child 0 IN (children 1..)
  kBetween,    // child 0 BETWEEN child 1 AND child 2
  kLike,       // child 0 LIKE child 1
  kIsNull,     // child 0 IS [NOT] NULL; op() is "NOT" if negated
  kFuncCall,   // name(children...) - aggregates COUNT/SUM/AVG/MIN/MAX
};

const char* ExprKindToString(ExprKind kind);

/// A byte range of one Expr's byte buffer; an empty one is {0, 0}.
struct ExprText {
  uint32_t offset = 0;
  uint32_t size = 0;
};

/// One node record of a flat Expr. Links are distances between node
/// indices, so a subtree's records copy out as one range unchanged.
struct ExprNode {
  double number = 0.0;  // kNumberLit
  ExprText table;       // kColumn: optional qualifier
  /// kColumn/kFuncCall: name; kStringLit: value; kBinary/kCompare: operator.
  ExprText text;
  uint32_t size = 1;   // records in this subtree, itself included
  uint32_t first = 0;  // distance back to the first child's record (0: leaf)
  uint32_t next = 0;   // distance on to the next sibling's record (0: none)
  uint32_t arity = 0;  // number of children
  ExprKind kind = ExprKind::kNullLit;
  bool negated = false;  // kIsNull: IS NOT NULL
};

class ExprRef;

/// One whole expression tree, flat: every node is an ExprNode record in one
/// array, in post-order (children before their parent, the root last), so a
/// subtree is the contiguous range [i + 1 - size, i]. Identifiers, string
/// literals and operators live in one byte buffer the records point into.
/// An expression therefore owns at most three heap blocks whatever its size
/// (this object, the record array, and the byte buffer once it outgrows the
/// small-string buffer); a copy is two buffer copies and destruction
/// recurses nowhere.
///
/// Readers go through ExprRef. Writers build with ExprBuilder (the parser
/// and the Make* helpers) or change one record's field with a setter; a
/// setter appends the new bytes and leaves the old ones unreferenced.
struct Expr {
  /// The root node.
  ExprRef root() const;

  /// Deep copy (the two buffers).
  ExprPtr Clone() const;
  /// Round-trippable SQL text.
  std::string ToString() const;

  const std::vector<ExprNode>& nodes() const { return nodes_; }
  const std::string& bytes() const { return bytes_; }

  /// Field setters on node `index`; each CHECKs that the node's kind
  /// carries the field (see ExprRef).
  void SetName(uint32_t index, std::string_view name);
  void SetTable(uint32_t index, std::string_view table);
  void SetString(uint32_t index, std::string_view value);
  void SetOp(uint32_t index, std::string_view op);
  void SetNumber(uint32_t index, double value);

 private:
  friend class ExprBuilder;
  friend class ExprRef;

  std::string_view View(ExprText text) const {
    return std::string_view(bytes_).substr(text.offset, text.size);
  }
  ExprText Store(std::string_view text);

  std::vector<ExprNode> nodes_;
  std::string bytes_;
};

/// Read-only view of one node of an Expr: valid while the Expr lives and is
/// not written to. A field a node's kind does not carry reads as empty (or
/// 0), as it did when every node held all of them.
class ExprRef {
 public:
  /// The root of `expr`.
  ExprRef(const Expr& expr)  // NOLINT(google-explicit-constructor)
      : expr_(&expr), index_(static_cast<uint32_t>(expr.nodes_.size() - 1)) {}
  ExprRef(const Expr& expr, uint32_t index) : expr_(&expr), index_(index) {}

  ExprKind kind() const { return node().kind; }
  /// kBinary/kCompare: the operator; kAnd/kOr/kNot/kIn/kBetween/kLike: the
  /// keyword; kIsNull: "NOT" if negated; otherwise empty.
  std::string_view op() const;
  /// kColumn: the column; kFuncCall: the function.
  std::string_view name() const;
  /// kColumn: the qualifier.
  std::string_view table() const;
  /// kStringLit: the unescaped value.
  std::string_view str() const;
  double number() const { return node().number; }

  size_t child_count() const { return node().arity; }
  /// Child `i` (0-based); walks i sibling links.
  ExprRef child(size_t i) const;

  /// Forward range over the children, in order.
  class ChildIterator {
   public:
    ChildIterator(const Expr* expr, uint32_t index, uint32_t left)
        : expr_(expr), index_(index), left_(left) {}
    ExprRef operator*() const { return ExprRef(*expr_, index_); }
    ChildIterator& operator++() {
      index_ += expr_->nodes_[index_].next;
      --left_;
      return *this;
    }
    bool operator!=(const ChildIterator& other) const {
      return left_ != other.left_;
    }

   private:
    const Expr* expr_;
    uint32_t index_;
    uint32_t left_;
  };
  struct Children {
    ChildIterator b, e;
    ChildIterator begin() const { return b; }
    ChildIterator end() const { return e; }
  };
  Children children() const;

  /// Record index of this node in its Expr.
  uint32_t index() const { return index_; }

  /// Deep copy of this subtree as its own Expr: one range copy of its
  /// records and of the bytes they point into.
  ExprPtr Clone() const;
  /// Round-trippable SQL text of this subtree.
  std::string ToString() const;

 private:
  const ExprNode& node() const { return expr_->nodes_[index_]; }
  void AppendText(std::string* out) const;

  const Expr* expr_;
  uint32_t index_;
};

inline ExprRef Expr::root() const { return ExprRef(*this); }

/// Appends nodes to one Expr in post-order, like a stack machine: a leaf
/// pushes one subtree, and an operator of arity n takes the n subtrees
/// appended last as its children, in order.
class ExprBuilder {
 public:
  explicit ExprBuilder(Expr* expr) : expr_(expr) {}

  void Column(std::string_view table, std::string_view name);
  void Number(double value);
  void String(std::string_view value);
  void Null() { Leaf(ExprKind::kNullLit); }
  void Star() { Leaf(ExprKind::kStar); }
  /// kBinary/kCompare over the last two subtrees.
  void Operator(ExprKind kind, std::string_view op);
  /// kAnd/kOr/kNot/kIn/kBetween/kLike over the last `arity` subtrees.
  void Node(ExprKind kind, uint32_t arity);
  void IsNull(bool negated);
  void FuncCall(std::string_view name, uint32_t arity);
  /// Appends a copy of `other` as one subtree.
  void Append(const Expr& other);

  /// Empties the Expr, keeping its buffers unless they have grown large.
  void Clear();

 private:
  ExprNode& Leaf(ExprKind kind);
  ExprNode& Parent(ExprKind kind, uint32_t arity);

  Expr* expr_;
};

/// Factory helpers used by the planner, the query generator and tests. Each
/// operator reuses its first operand's buffers and appends the others.
ExprPtr MakeColumn(std::string_view table, std::string_view name);
ExprPtr MakeNumber(double value);
ExprPtr MakeString(std::string_view value);
ExprPtr MakeNull();
ExprPtr MakeStar();
ExprPtr MakeCompare(std::string_view op, ExprPtr lhs, ExprPtr rhs);
ExprPtr MakeBinary(std::string_view op, ExprPtr lhs, ExprPtr rhs);
ExprPtr MakeAnd(ExprPtr lhs, ExprPtr rhs);
ExprPtr MakeOr(ExprPtr lhs, ExprPtr rhs);
ExprPtr MakeNot(ExprPtr inner);
ExprPtr MakeIn(ExprPtr lhs, std::vector<ExprPtr> values);
ExprPtr MakeBetween(ExprPtr value, ExprPtr lo, ExprPtr hi);
ExprPtr MakeLike(ExprPtr lhs, ExprPtr pattern);
ExprPtr MakeIsNull(ExprPtr value, bool negated);
ExprPtr MakeFuncCall(std::string_view name, std::vector<ExprPtr> args);

/// Join flavours supported by the dialect.
enum class JoinType { kInner, kLeft, kRight, kFull, kCross };
const char* JoinTypeToString(JoinType type);

/// One item of the SELECT list.
struct SelectItem {
  ExprPtr expr;
  std::string alias;  // empty if none
};

/// A base table or a parenthesized sub-select in FROM.
struct TableRef {
  std::string table;  // empty for subqueries
  std::string alias;  // empty if none
  std::unique_ptr<SelectStmt> subquery;

  bool IsSubquery() const { return subquery != nullptr; }
  /// The name this relation is visible as (alias if set, else table).
  std::string VisibleName() const { return alias.empty() ? table : alias; }
};

/// JOIN <ref> ON <condition>.
struct JoinClause {
  JoinType type = JoinType::kInner;
  TableRef ref;
  ExprPtr condition;  // null for CROSS JOIN
};

/// ORDER BY item.
struct OrderItem {
  ExprPtr expr;
  bool descending = false;
};

/// A parsed SELECT statement.
struct SelectStmt {
  bool distinct = false;
  std::vector<SelectItem> items;
  TableRef from;
  std::vector<JoinClause> joins;
  ExprPtr where;   // null if absent
  std::vector<ExprPtr> group_by;
  ExprPtr having;  // null if absent
  std::vector<OrderItem> order_by;
  std::optional<int64_t> limit;

  /// Round-trippable SQL text.
  std::string ToString() const;
};

}  // namespace prestroid::sql

#endif  // PRESTROID_SQL_AST_H_
