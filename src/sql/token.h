#ifndef PRESTROID_SQL_TOKEN_H_
#define PRESTROID_SQL_TOKEN_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace prestroid::sql {

/// Lexical token categories for the mini-SQL dialect.
enum class TokenType : uint8_t {
  kIdentifier,   // table_a, col_1 (also dotted parts, lexed separately)
  kKeyword,      // SELECT, FROM, WHERE, ... (any case; see Token::keyword)
  kNumber,       // 42, 3.14, .5, 1e3 (a leading '-' is an operator)
  kString,       // 'abc'
  kOperator,     // = <> != < <= > >= + - * / %
  kComma,
  kDot,
  kLeftParen,
  kRightParen,
  kEnd,          // end of input
  kError,        // malformed input at `offset`; the lexer stops here
  kOverLimit,    // the token budget ran out at `offset`; the lexer stops here
};

/// The dialect's reserved words. kNone marks a token that is not a keyword.
enum class Keyword : uint8_t {
  kNone,
  kSelect, kFrom, kWhere, kGroup, kBy, kHaving, kOrder, kLimit, kJoin,
  kInner, kLeft, kRight, kFull, kCross, kOuter, kOn, kAs, kAnd, kOr, kNot,
  kIn, kBetween, kLike, kIs, kNull, kAsc, kDesc, kDistinct, kCount, kSum,
  kAvg, kMin, kMax, kUnion,
};

/// Upper-case spelling of `keyword` ("" for kNone).
const char* KeywordName(Keyword keyword);

/// The keyword `word` spells, ignoring ASCII case, or kNone. A switch on
/// length and first letter picks the few candidates to compare.
Keyword LookupKeyword(std::string_view word);

/// One lexical token: a view into the lexed input, which must outlive it.
struct Token {
  TokenType type = TokenType::kEnd;
  Keyword keyword = Keyword::kNone;  // set for kKeyword only
  /// The token's bytes as written. For kString, the body between the quotes
  /// with '' escapes still in place (see UnescapeString); for kError, the
  /// offending bytes (an unterminated literal runs to the end of input).
  std::string_view text;
  size_t offset = 0;

  bool Is(Keyword kw) const { return keyword == kw; }
  bool IsOperator(std::string_view op) const {
    return type == TokenType::kOperator && text == op;
  }
};

/// Value of a string literal's body: each '' becomes one quote.
std::string UnescapeString(std::string_view body);

}  // namespace prestroid::sql

#endif  // PRESTROID_SQL_TOKEN_H_
