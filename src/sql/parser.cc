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
/// Expressions are built flat: each top-level expression (a select item, a
/// WHERE predicate, ...) gets its own Expr, and the expression Parse*
/// functions append to it through one ExprBuilder, each leaving exactly one
/// complete subtree behind on success. Every Parse* returns null or false on
/// failure after recording (message, offset) in the parser; callers pass
/// the failure up.
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

  /// Parses the whole input as one expression into the per-thread scratch
  /// Expr (see Scratch), where it stays until the next parse on this thread.
  bool ParseStandaloneExpression() {
    const Cursor saved = cursor_;
    // A bare value expression spanning the whole input (e.g. "AVG(x)" in a
    // Project) comes back from the predicate attempt as is; see
    // ParseComparison.
    bare_value_at_ = Peek().offset;
    const bool pred = BuildInScratch(&Parser::ParsePredicate);
    bare_value_at_ = kNoBareValue;
    if (pred && Peek().type == TokenType::kEnd) return true;
    // Fall back to a bare value expression. Only malformed input gets here,
    // or a value nested so deep that the predicate attempt's two extra
    // frames crossed the depth limit.
    cursor_ = saved;
    if (!BuildInScratch(&Parser::ParseValueExpr)) return false;
    if (Peek().type != TokenType::kEnd) return Fail("trailing tokens");
    return true;
  }

  /// This thread's scratch Expr: each top-level expression is built here,
  /// so its buffers grow once per thread, not once per expression.
  static Expr& Scratch() {
    static thread_local Expr scratch;
    return scratch;
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
  /// What Fail returns: a null pointer or false, whichever the failing
  /// Parse* returns.
  struct Failed {
    template <typename T>
    operator T() const {  // NOLINT(google-explicit-constructor)
      return T();
    }
  };
  Failed Fail(const char* what) {
    what_ = what;
    offset_ = Peek().offset;
    return {};
  }

  /// Parses one top-level expression with `parse` into Scratch().
  bool BuildInScratch(bool (Parser::*parse)()) {
    ExprBuilder builder(&Scratch());
    builder.Clear();
    out_ = &builder;
    const bool ok = (this->*parse)();
    out_ = nullptr;
    return ok;
  }

  /// BuildInScratch, copied out at its exact size, so each of the
  /// expression's buffers is one allocation however the parse grew them.
  ExprPtr Build(bool (Parser::*parse)()) {
    if (!BuildInScratch(parse)) return nullptr;
    return Scratch().Clone();
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
      item.expr = Build(&Parser::ParseValueExpr);
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
        join.condition = Build(&Parser::ParsePredicate);
        if (join.condition == nullptr) return nullptr;
      }
      stmt->joins.push_back(std::move(join));
    }

    if (MatchKeyword(Keyword::kWhere)) {
      stmt->where = Build(&Parser::ParsePredicate);
      if (stmt->where == nullptr) return nullptr;
    }
    if (MatchKeyword(Keyword::kGroup)) {
      if (!MatchKeyword(Keyword::kBy)) return Fail("expected BY after GROUP");
      while (true) {
        ExprPtr expr = Build(&Parser::ParseValueExpr);
        if (expr == nullptr) return nullptr;
        stmt->group_by.push_back(std::move(expr));
        if (!Match(TokenType::kComma)) break;
      }
    }
    if (MatchKeyword(Keyword::kHaving)) {
      stmt->having = Build(&Parser::ParsePredicate);
      if (stmt->having == nullptr) return nullptr;
    }
    if (MatchKeyword(Keyword::kOrder)) {
      if (!MatchKeyword(Keyword::kBy)) return Fail("expected BY after ORDER");
      while (true) {
        OrderItem item;
        item.expr = Build(&Parser::ParseValueExpr);
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

  bool ParsePredicate() { return ParseOr(); }

  bool ParseOr() {
    if (!ParseAnd()) return false;
    while (MatchKeyword(Keyword::kOr)) {
      if (!ParseAnd()) return false;
      out_->Node(ExprKind::kOr, 2);
    }
    return true;
  }

  bool ParseAnd() {
    if (!ParseUnary()) return false;
    while (MatchKeyword(Keyword::kAnd)) {
      if (!ParseUnary()) return false;
      out_->Node(ExprKind::kAnd, 2);
    }
    return true;
  }

  bool ParseUnary() {
    DepthScope scope(this);
    if (TooDeep()) return Fail(kTooDeep);
    if (MatchKeyword(Keyword::kNot)) {
      if (!ParseUnary()) return false;
      out_->Node(ExprKind::kNot, 1);
      return true;
    }
    return ParsePrimaryPredicate();
  }

  // Lookahead to distinguish a parenthesized predicate from a parenthesized
  // value expression: both start with '('. We try the predicate first.
  bool ParsePrimaryPredicate() {
    DepthScope scope(this);
    if (TooDeep()) return Fail(kTooDeep);
    if (Peek().type == TokenType::kLeftParen && LooksLikeNestedPredicate()) {
      Advance();  // consume '('
      if (!ParsePredicate()) return false;
      if (!Match(TokenType::kRightParen)) return Fail("expected ')'");
      return true;
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

  bool ParseComparison() {
    const size_t start = Peek().offset;
    if (!ParseValueExpr()) return false;
    // A standalone expression that is one value expression from its first
    // token to the end is that value: the predicate attempt would fail here
    // and the fallback would re-parse the same tokens into the same tree
    // (with two fewer nesting levels in use, so it cannot fail deeper).
    if (start == bare_value_at_ && Peek().type == TokenType::kEnd) {
      return true;
    }

    if (Peek().type == TokenType::kOperator &&
        IsComparisonOperator(Peek().text)) {
      const std::string_view op = Advance().text;
      if (!ParseValueExpr()) return false;
      out_->Operator(ExprKind::kCompare, op);
      return true;
    }
    if (MatchKeyword(Keyword::kIn)) {
      if (!Match(TokenType::kLeftParen)) {
        return Fail("expected '(' after IN");
      }
      uint32_t arity = 1;
      while (true) {
        if (!ParseValueExpr()) return false;
        ++arity;
        if (!Match(TokenType::kComma)) break;
      }
      if (!Match(TokenType::kRightParen)) return Fail("expected ')'");
      out_->Node(ExprKind::kIn, arity);
      return true;
    }
    if (MatchKeyword(Keyword::kBetween)) {
      if (!ParseValueExpr()) return false;
      if (!MatchKeyword(Keyword::kAnd)) return Fail("expected AND in BETWEEN");
      if (!ParseValueExpr()) return false;
      out_->Node(ExprKind::kBetween, 3);
      return true;
    }
    if (MatchKeyword(Keyword::kLike)) {
      if (!ParseValueExpr()) return false;
      out_->Node(ExprKind::kLike, 2);
      return true;
    }
    if (MatchKeyword(Keyword::kIs)) {
      const bool negated = MatchKeyword(Keyword::kNot);
      if (!MatchKeyword(Keyword::kNull)) return Fail("expected NULL after IS");
      out_->IsNull(negated);
      return true;
    }
    // A bare value expression in predicate position. Treat as error to
    // surface bugs.
    return Fail("expected comparison operator");
  }

  bool ParseValueExpr() { return ParseAdditive(); }

  bool ParseAdditive() {
    if (!ParseMultiplicative()) return false;
    while (Peek().IsOperator("+") || Peek().IsOperator("-")) {
      const std::string_view op = Advance().text;
      if (!ParseMultiplicative()) return false;
      out_->Operator(ExprKind::kBinary, op);
    }
    return true;
  }

  bool ParseMultiplicative() {
    if (!ParseFactor()) return false;
    while (Peek().IsOperator("*") || Peek().IsOperator("/") ||
           Peek().IsOperator("%")) {
      // A '*' in factor position is the star item, consumed by ParseFactor;
      // one here is a multiplication.
      const std::string_view op = Advance().text;
      if (!ParseFactor()) return false;
      out_->Operator(ExprKind::kBinary, op);
    }
    return true;
  }

  /// Comma-separated value expressions up to the closing ')' (the '(' is
  /// already consumed); counts them into `arity` (0 for "()").
  bool ParseArguments(bool allow_distinct, uint32_t* arity) {
    if (Match(TokenType::kRightParen)) return true;
    if (allow_distinct) MatchKeyword(Keyword::kDistinct);  // not tracked
    while (true) {
      if (!ParseValueExpr()) return false;
      ++*arity;
      if (!Match(TokenType::kComma)) break;
    }
    if (!Match(TokenType::kRightParen)) return Fail("expected ')'");
    return true;
  }

  bool ParseFactor() {
    DepthScope scope(this);
    if (TooDeep()) return Fail(kTooDeep);
    const Token t = Peek();
    if (t.IsOperator("*")) {
      Advance();
      out_->Star();
      return true;
    }
    if (t.IsOperator("-")) {
      Advance();
      if (Peek().type == TokenType::kNumber) {
        out_->Number(-ToDouble(Advance().text));
        return true;
      }
      out_->Number(0);  // 0 - inner
      if (!ParseFactor()) return false;
      out_->Operator(ExprKind::kBinary, "-");
      return true;
    }
    if (t.type == TokenType::kNumber) {
      Advance();
      out_->Number(ToDouble(t.text));
      return true;
    }
    if (t.type == TokenType::kString) {
      Advance();
      out_->String(UnescapeString(t.text));
      return true;
    }
    if (t.Is(Keyword::kNull)) {
      Advance();
      out_->Null();
      return true;
    }
    // Aggregate functions are keywords in this dialect.
    if ((t.Is(Keyword::kCount) || t.Is(Keyword::kSum) || t.Is(Keyword::kAvg) ||
         t.Is(Keyword::kMin) || t.Is(Keyword::kMax)) &&
        Peek(1).type == TokenType::kLeftParen) {
      Advance();  // name
      Advance();  // '('
      uint32_t arity = 0;
      if (!ParseArguments(/*allow_distinct=*/true, &arity)) return false;
      out_->FuncCall(KeywordName(t.keyword), arity);
      return true;
    }
    if (t.type == TokenType::kIdentifier) {
      Advance();
      if (Match(TokenType::kDot)) {
        if (Peek().type == TokenType::kIdentifier) {
          out_->Column(t.text, Advance().text);
          return true;
        }
        if (Peek().IsOperator("*")) {
          Advance();
          out_->Column(t.text, "*");
          return true;
        }
        return Fail("expected column after '.'");
      }
      if (Match(TokenType::kLeftParen)) {
        // Non-aggregate scalar function call.
        uint32_t arity = 0;
        if (!ParseArguments(/*allow_distinct=*/false, &arity)) return false;
        out_->FuncCall(t.text, arity);
        return true;
      }
      out_->Column("", t.text);
      return true;
    }
    if (Match(TokenType::kLeftParen)) {
      if (!ParseValueExpr()) return false;
      if (!Match(TokenType::kRightParen)) return Fail("expected ')'");
      return true;
    }
    return Fail("expected expression");
  }

  static constexpr size_t kNoBareValue = static_cast<size_t>(-1);

  std::string_view text_;
  ParseLimits limits_;
  Cursor cursor_;
  /// The expression being built (set by Build).
  ExprBuilder* out_ = nullptr;
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
  if (!parser.ParseStandaloneExpression()) return parser.Failure();
  return Parser::Scratch().Clone();
}

Status CheckExpression(std::string_view text, const ParseLimits& limits) {
  Parser parser(text, limits);
  if (!parser.ParseStandaloneExpression()) return parser.Failure();
  return Status::OK();
}

}  // namespace prestroid::sql
