#include "sql/parser.h"

#include <cstdlib>
#include <string>

#include "sql/lexer.h"
#include "util/string_util.h"

namespace prestroid::sql {

namespace {

/// The one grammar error the Status reports as kResourceExhausted; the
/// parser tells it from the others by address.
constexpr char kTooDeep[] = "expression nesting exceeds depth limit";

bool Stops(const Token& token) {
  return token.type == TokenType::kEnd || token.type == TokenType::kError ||
         token.type == TokenType::kOverLimit;
}

bool IsComparisonOperator(std::string_view op) {
  return op == "=" || op == "<" || op == ">" || op == "<=" || op == ">=" ||
         op == "<>" || op == "!=";
}

/// The value of a number token, as strtod reads it. Number tokens are
/// short, so the NUL-terminated copy stays in the small-string buffer.
double ToDouble(std::string_view text) {
  return std::strtod(std::string(text).c_str(), nullptr);
}

/// Recursive-descent parser pulling from a Lexer cursor. Grammar (informal):
///
///   select    := SELECT [DISTINCT] items FROM table_ref join* [WHERE pred]
///                [GROUP BY exprs] [HAVING pred] [ORDER BY order_items]
///                [LIMIT number]
///   pred      := or ; or := and (OR and)* ; and := unary (AND unary)*
///   unary     := NOT unary | primary
///   primary   := '(' pred ')' | comparison
///   comparison:= value (cmp_op value | IN list | BETWEEN v AND v |
///                LIKE string | IS [NOT] NULL)
///   value     := term (('+'|'-') term)* ; term := factor (('*'|'/'|'%') factor)*
///   factor    := column | literal | func '(' args ')' | '(' value ')'
///
/// Every Parse* returns null (a bool false for table refs) on failure after
/// recording (message, offset) in the parser; callers pass the null up.
class Parser {
 public:
  Parser(std::string_view text, const ParseLimits& limits)
      : text_(text),
        limits_(limits),
        cursor_{Lexer(text, limits.max_tokens), {}, 0} {}

  std::unique_ptr<SelectStmt> ParseStatement() {
    std::unique_ptr<SelectStmt> stmt = ParseSelectBody();
    if (stmt == nullptr) return nullptr;
    if (Peek().type != TokenType::kEnd) return Fail("trailing tokens");
    return stmt;
  }

  ExprPtr ParseStandaloneExpression() {
    const Cursor saved = cursor_;
    // A bare value expression spanning the whole input (e.g. "AVG(x)" in a
    // Project) comes back from the predicate attempt as is; see
    // ParseComparison.
    bare_value_at_ = Peek().offset;
    ExprPtr pred = ParsePredicate();
    bare_value_at_ = kNoBareValue;
    if (pred != nullptr && Peek().type == TokenType::kEnd) return pred;
    // Fall back to a bare value expression. Only malformed input gets here,
    // or a value nested so deep that the predicate attempt's two extra
    // frames crossed the depth limit.
    cursor_ = saved;
    ExprPtr value = ParseValueExpr();
    if (value == nullptr) return nullptr;
    if (Peek().type != TokenType::kEnd) return Fail("trailing tokens");
    return value;
  }

  /// The Status of a failed parse. The lexer scans on from where the parser
  /// stopped: a malformed token (kParseError) or the token budget
  /// (kResourceExhausted) anywhere in the input outranks the grammar error,
  /// exactly as if the whole input had been lexed before parsing began.
  Status Failure() {
    Token stop;
    for (size_t i = 0;; ++i) {
      stop = i < cursor_.buffered ? cursor_.ahead[i] : cursor_.lexer.Next();
      if (Stops(stop)) break;
    }
    if (stop.type == TokenType::kError) {
      if (stop.text.front() == '\'') {
        return Status::ParseError(StrFormat(
            "unterminated string literal at offset %zu", stop.offset));
      }
      return Status::ParseError(
          StrFormat("unexpected character '%c' at offset %zu",
                    stop.text.front(), stop.offset));
    }
    if (stop.type == TokenType::kOverLimit) {
      return Status::ResourceExhausted(StrFormat(
          "input exceeds token limit (%zu tokens)", limits_.max_tokens));
    }
    if (what_ == kTooDeep) {
      return Status::ResourceExhausted(
          StrFormat("%s (%zu)", kTooDeep, limits_.max_depth));
    }
    const Token at = Lexer(text_.substr(offset_)).Next();
    return Status::ParseError(StrFormat(
        "%s near offset %zu (token '%.*s')", what_, offset_,
        static_cast<int>(at.text.size()), at.text.data()));
  }

 private:
  /// Everything a rewind restores: the lexer and its lookahead buffer.
  struct Cursor {
    Lexer lexer;
    Token ahead[2];
    size_t buffered = 0;
  };

  /// Counts live recursion frames so hostile nesting ("((((...") surfaces
  /// as a Status instead of exhausting the thread stack. Scoped to the
  /// functions that can re-enter themselves: predicates, factors, and
  /// subqueries.
  struct DepthScope {
    explicit DepthScope(Parser* parser) : parser_(parser) { ++parser_->depth_; }
    ~DepthScope() { --parser_->depth_; }
    Parser* parser_;
  };
  bool TooDeep() const { return depth_ > limits_.max_depth; }

  const Token& Peek(size_t ahead = 0) {
    while (cursor_.buffered <= ahead) {
      cursor_.ahead[cursor_.buffered++] = cursor_.lexer.Next();
    }
    return cursor_.ahead[ahead];
  }
  Token Advance() {
    const Token token = Peek();
    cursor_.ahead[0] = cursor_.ahead[1];
    --cursor_.buffered;
    return token;
  }
  bool Match(TokenType type) {
    if (Peek().type == type) {
      Advance();
      return true;
    }
    return false;
  }
  bool MatchKeyword(Keyword kw) {
    if (Peek().Is(kw)) {
      Advance();
      return true;
    }
    return false;
  }
  std::nullptr_t Fail(const char* what) {
    what_ = what;
    offset_ = Peek().offset;
    return nullptr;
  }

  std::unique_ptr<SelectStmt> ParseSelectBody() {
    DepthScope scope(this);
    if (TooDeep()) return Fail(kTooDeep);
    if (!MatchKeyword(Keyword::kSelect)) return Fail("expected SELECT");
    auto stmt = std::make_unique<SelectStmt>();
    stmt->distinct = MatchKeyword(Keyword::kDistinct);

    // Select list.
    while (true) {
      SelectItem item;
      item.expr = ParseValueExpr();
      if (item.expr == nullptr) return nullptr;
      if (MatchKeyword(Keyword::kAs)) {
        if (Peek().type != TokenType::kIdentifier) {
          return Fail("expected alias");
        }
        item.alias = Advance().text;
      } else if (Peek().type == TokenType::kIdentifier) {
        item.alias = Advance().text;
      }
      stmt->items.push_back(std::move(item));
      if (!Match(TokenType::kComma)) break;
    }

    if (!MatchKeyword(Keyword::kFrom)) return Fail("expected FROM");
    if (!ParseTableRef(&stmt->from)) return nullptr;

    // Joins.
    while (true) {
      JoinType type;
      if (MatchKeyword(Keyword::kJoin)) {
        type = JoinType::kInner;
      } else if (Peek().Is(Keyword::kInner) && Peek(1).Is(Keyword::kJoin)) {
        Advance();  // INNER
        Advance();  // JOIN
        type = JoinType::kInner;
      } else if (Peek().Is(Keyword::kLeft) || Peek().Is(Keyword::kRight) ||
                 Peek().Is(Keyword::kFull)) {
        const Keyword side = Advance().keyword;
        MatchKeyword(Keyword::kOuter);
        if (!MatchKeyword(Keyword::kJoin)) return Fail("expected JOIN");
        type = side == Keyword::kLeft    ? JoinType::kLeft
               : side == Keyword::kRight ? JoinType::kRight
                                         : JoinType::kFull;
      } else if (Peek().Is(Keyword::kCross) && Peek(1).Is(Keyword::kJoin)) {
        Advance();
        Advance();
        type = JoinType::kCross;
      } else {
        break;
      }
      JoinClause join;
      join.type = type;
      if (!ParseTableRef(&join.ref)) return nullptr;
      if (type != JoinType::kCross) {
        if (!MatchKeyword(Keyword::kOn)) return Fail("expected ON");
        join.condition = ParsePredicate();
        if (join.condition == nullptr) return nullptr;
      }
      stmt->joins.push_back(std::move(join));
    }

    if (MatchKeyword(Keyword::kWhere)) {
      stmt->where = ParsePredicate();
      if (stmt->where == nullptr) return nullptr;
    }
    if (MatchKeyword(Keyword::kGroup)) {
      if (!MatchKeyword(Keyword::kBy)) return Fail("expected BY after GROUP");
      while (true) {
        ExprPtr expr = ParseValueExpr();
        if (expr == nullptr) return nullptr;
        stmt->group_by.push_back(std::move(expr));
        if (!Match(TokenType::kComma)) break;
      }
    }
    if (MatchKeyword(Keyword::kHaving)) {
      stmt->having = ParsePredicate();
      if (stmt->having == nullptr) return nullptr;
    }
    if (MatchKeyword(Keyword::kOrder)) {
      if (!MatchKeyword(Keyword::kBy)) return Fail("expected BY after ORDER");
      while (true) {
        OrderItem item;
        item.expr = ParseValueExpr();
        if (item.expr == nullptr) return nullptr;
        if (MatchKeyword(Keyword::kDesc)) {
          item.descending = true;
        } else {
          MatchKeyword(Keyword::kAsc);
        }
        stmt->order_by.push_back(std::move(item));
        if (!Match(TokenType::kComma)) break;
      }
    }
    if (MatchKeyword(Keyword::kLimit)) {
      if (Peek().type != TokenType::kNumber) {
        return Fail("expected LIMIT count");
      }
      // Checked like plan text's Limit payload (ParseInt64): a fraction,
      // an exponent or a count past INT64_MAX is a parse error, never an
      // out-of-range double-to-integer conversion.
      int64_t count = 0;
      if (!ParseInt64(Peek().text, &count)) {
        return Fail("LIMIT count must be an integer in int64 range");
      }
      Advance();
      stmt->limit = count;
    }
    return stmt;
  }

  bool ParseTableRef(TableRef* ref) {
    if (Match(TokenType::kLeftParen)) {
      ref->subquery = ParseSelectBody();
      if (ref->subquery == nullptr) return false;
      if (!Match(TokenType::kRightParen)) {
        Fail("expected ')'");
        return false;
      }
    } else if (Peek().type == TokenType::kIdentifier) {
      ref->table = Advance().text;
    } else {
      Fail("expected table name or subquery");
      return false;
    }
    if (MatchKeyword(Keyword::kAs)) {
      if (Peek().type != TokenType::kIdentifier) {
        Fail("expected alias");
        return false;
      }
      ref->alias = Advance().text;
    } else if (Peek().type == TokenType::kIdentifier) {
      ref->alias = Advance().text;
    }
    if (ref->IsSubquery() && ref->alias.empty()) {
      Fail("subquery in FROM requires an alias");
      return false;
    }
    return true;
  }

  ExprPtr ParsePredicate() { return ParseOr(); }

  ExprPtr ParseOr() {
    ExprPtr result = ParseAnd();
    if (result == nullptr) return nullptr;
    while (MatchKeyword(Keyword::kOr)) {
      ExprPtr rhs = ParseAnd();
      if (rhs == nullptr) return nullptr;
      result = MakeOr(std::move(result), std::move(rhs));
    }
    return result;
  }

  ExprPtr ParseAnd() {
    ExprPtr result = ParseUnary();
    if (result == nullptr) return nullptr;
    while (MatchKeyword(Keyword::kAnd)) {
      ExprPtr rhs = ParseUnary();
      if (rhs == nullptr) return nullptr;
      result = MakeAnd(std::move(result), std::move(rhs));
    }
    return result;
  }

  ExprPtr ParseUnary() {
    DepthScope scope(this);
    if (TooDeep()) return Fail(kTooDeep);
    if (MatchKeyword(Keyword::kNot)) {
      ExprPtr inner = ParseUnary();
      if (inner == nullptr) return nullptr;
      return MakeNot(std::move(inner));
    }
    return ParsePrimaryPredicate();
  }

  // Lookahead to distinguish a parenthesized predicate from a parenthesized
  // value expression: both start with '('. We try the predicate first.
  ExprPtr ParsePrimaryPredicate() {
    DepthScope scope(this);
    if (TooDeep()) return Fail(kTooDeep);
    if (Peek().type == TokenType::kLeftParen && LooksLikeNestedPredicate()) {
      Advance();  // consume '('
      ExprPtr inner = ParsePredicate();
      if (inner == nullptr) return nullptr;
      if (!Match(TokenType::kRightParen)) return Fail("expected ')'");
      return inner;
    }
    return ParseComparison();
  }

  /// Scans ahead from the '(' at Peek() — on a copy of the cursor — to decide
  /// whether it encloses a boolean predicate (AND/OR/NOT/comparison inside).
  bool LooksLikeNestedPredicate() {
    Lexer scan = cursor_.lexer;
    size_t next_buffered = 1;  // ahead[0] is the '('
    int depth = 1;
    while (depth > 0) {
      const Token t = next_buffered < cursor_.buffered
                          ? cursor_.ahead[next_buffered++]
                          : scan.Next();
      if (Stops(t)) return false;
      if (t.type == TokenType::kLeftParen) ++depth;
      if (t.type == TokenType::kRightParen) --depth;
      if (depth >= 1 &&
          (t.Is(Keyword::kAnd) || t.Is(Keyword::kOr) || t.Is(Keyword::kNot) ||
           t.Is(Keyword::kIn) || t.Is(Keyword::kBetween) ||
           t.Is(Keyword::kLike) || t.Is(Keyword::kIs) ||
           (t.type == TokenType::kOperator && IsComparisonOperator(t.text)))) {
        return true;
      }
    }
    return false;
  }

  ExprPtr ParseComparison() {
    const size_t start = Peek().offset;
    ExprPtr value = ParseValueExpr();
    if (value == nullptr) return nullptr;
    // A standalone expression that is one value expression from its first
    // token to the end is that value: the predicate attempt would fail here
    // and the fallback would re-parse the same tokens into the same tree
    // (with two fewer nesting levels in use, so it cannot fail deeper).
    if (start == bare_value_at_ && Peek().type == TokenType::kEnd) {
      return value;
    }

    if (Peek().type == TokenType::kOperator &&
        IsComparisonOperator(Peek().text)) {
      const std::string_view op = Advance().text;
      ExprPtr rhs = ParseValueExpr();
      if (rhs == nullptr) return nullptr;
      return MakeCompare(std::string(op), std::move(value), std::move(rhs));
    }
    if (MatchKeyword(Keyword::kIn)) {
      if (!Match(TokenType::kLeftParen)) {
        return Fail("expected '(' after IN");
      }
      std::vector<ExprPtr> values;
      while (true) {
        ExprPtr v = ParseValueExpr();
        if (v == nullptr) return nullptr;
        values.push_back(std::move(v));
        if (!Match(TokenType::kComma)) break;
      }
      if (!Match(TokenType::kRightParen)) return Fail("expected ')'");
      return MakeIn(std::move(value), std::move(values));
    }
    if (MatchKeyword(Keyword::kBetween)) {
      ExprPtr lo = ParseValueExpr();
      if (lo == nullptr) return nullptr;
      if (!MatchKeyword(Keyword::kAnd)) return Fail("expected AND in BETWEEN");
      ExprPtr hi = ParseValueExpr();
      if (hi == nullptr) return nullptr;
      return MakeBetween(std::move(value), std::move(lo), std::move(hi));
    }
    if (MatchKeyword(Keyword::kLike)) {
      ExprPtr pattern = ParseValueExpr();
      if (pattern == nullptr) return nullptr;
      return MakeLike(std::move(value), std::move(pattern));
    }
    if (MatchKeyword(Keyword::kIs)) {
      const bool negated = MatchKeyword(Keyword::kNot);
      if (!MatchKeyword(Keyword::kNull)) return Fail("expected NULL after IS");
      return MakeIsNull(std::move(value), negated);
    }
    // A bare value expression in predicate position. Treat as error to
    // surface bugs.
    return Fail("expected comparison operator");
  }

  ExprPtr ParseValueExpr() { return ParseAdditive(); }

  ExprPtr ParseAdditive() {
    ExprPtr result = ParseMultiplicative();
    if (result == nullptr) return nullptr;
    while (Peek().IsOperator("+") || Peek().IsOperator("-")) {
      std::string op(Advance().text);
      ExprPtr rhs = ParseMultiplicative();
      if (rhs == nullptr) return nullptr;
      result = MakeBinary(std::move(op), std::move(result), std::move(rhs));
    }
    return result;
  }

  ExprPtr ParseMultiplicative() {
    ExprPtr result = ParseFactor();
    if (result == nullptr) return nullptr;
    while (Peek().IsOperator("*") || Peek().IsOperator("/") ||
           Peek().IsOperator("%")) {
      // A '*' in factor position is the star item, consumed by ParseFactor;
      // one here is a multiplication.
      std::string op(Advance().text);
      ExprPtr rhs = ParseFactor();
      if (rhs == nullptr) return nullptr;
      result = MakeBinary(std::move(op), std::move(result), std::move(rhs));
    }
    return result;
  }

  /// Comma-separated value expressions up to the closing ')' (the '(' is
  /// already consumed); `args` stays empty for "()".
  bool ParseArguments(bool allow_distinct, std::vector<ExprPtr>* args) {
    if (Match(TokenType::kRightParen)) return true;
    if (allow_distinct) MatchKeyword(Keyword::kDistinct);  // not tracked
    while (true) {
      ExprPtr arg = ParseValueExpr();
      if (arg == nullptr) return false;
      args->push_back(std::move(arg));
      if (!Match(TokenType::kComma)) break;
    }
    if (!Match(TokenType::kRightParen)) {
      Fail("expected ')'");
      return false;
    }
    return true;
  }

  ExprPtr ParseFactor() {
    DepthScope scope(this);
    if (TooDeep()) return Fail(kTooDeep);
    const Token t = Peek();
    if (t.IsOperator("*")) {
      Advance();
      return MakeStar();
    }
    if (t.IsOperator("-")) {
      Advance();
      if (Peek().type == TokenType::kNumber) {
        return MakeNumber(-ToDouble(Advance().text));
      }
      ExprPtr inner = ParseFactor();
      if (inner == nullptr) return nullptr;
      return MakeBinary("-", MakeNumber(0), std::move(inner));
    }
    if (t.type == TokenType::kNumber) {
      Advance();
      return MakeNumber(ToDouble(t.text));
    }
    if (t.type == TokenType::kString) {
      Advance();
      return MakeString(UnescapeString(t.text));
    }
    if (t.Is(Keyword::kNull)) {
      Advance();
      return MakeNull();
    }
    // Aggregate functions are keywords in this dialect.
    if ((t.Is(Keyword::kCount) || t.Is(Keyword::kSum) || t.Is(Keyword::kAvg) ||
         t.Is(Keyword::kMin) || t.Is(Keyword::kMax)) &&
        Peek(1).type == TokenType::kLeftParen) {
      Advance();  // name
      Advance();  // '('
      std::vector<ExprPtr> args;
      if (!ParseArguments(/*allow_distinct=*/true, &args)) return nullptr;
      return MakeFuncCall(KeywordName(t.keyword), std::move(args));
    }
    if (t.type == TokenType::kIdentifier) {
      Advance();
      if (Match(TokenType::kDot)) {
        if (Peek().type == TokenType::kIdentifier) {
          return MakeColumn(std::string(t.text), std::string(Advance().text));
        }
        if (Peek().IsOperator("*")) {
          Advance();
          return MakeColumn(std::string(t.text), "*");
        }
        return Fail("expected column after '.'");
      }
      if (Match(TokenType::kLeftParen)) {
        // Non-aggregate scalar function call.
        std::vector<ExprPtr> args;
        if (!ParseArguments(/*allow_distinct=*/false, &args)) return nullptr;
        return MakeFuncCall(std::string(t.text), std::move(args));
      }
      return MakeColumn("", std::string(t.text));
    }
    if (Match(TokenType::kLeftParen)) {
      ExprPtr inner = ParseValueExpr();
      if (inner == nullptr) return nullptr;
      if (!Match(TokenType::kRightParen)) return Fail("expected ')'");
      return inner;
    }
    return Fail("expected expression");
  }

  static constexpr size_t kNoBareValue = static_cast<size_t>(-1);

  std::string_view text_;
  ParseLimits limits_;
  Cursor cursor_;
  size_t depth_ = 0;
  /// Offset of the first token of a standalone expression while its
  /// predicate attempt runs, else kNoBareValue.
  size_t bare_value_at_ = kNoBareValue;
  const char* what_ = "expected expression";
  size_t offset_ = 0;
};

}  // namespace

Result<std::unique_ptr<SelectStmt>> ParseSelect(std::string_view sql,
                                                const ParseLimits& limits) {
  Parser parser(sql, limits);
  std::unique_ptr<SelectStmt> stmt = parser.ParseStatement();
  if (stmt == nullptr) return parser.Failure();
  return stmt;
}

Result<ExprPtr> ParseExpression(std::string_view text,
                                const ParseLimits& limits) {
  Parser parser(text, limits);
  ExprPtr expr = parser.ParseStandaloneExpression();
  if (expr == nullptr) return parser.Failure();
  return expr;
}

}  // namespace prestroid::sql
