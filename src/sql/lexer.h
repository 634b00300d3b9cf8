#ifndef PRESTROID_SQL_LEXER_H_
#define PRESTROID_SQL_LEXER_H_

#include <cstddef>
#include <limits>
#include <string_view>

#include "sql/token.h"

namespace prestroid::sql {

/// Pull lexer over a mini-SQL string: each Next() scans one token in place
/// and returns a view into the input (which must outlive the lexer), so
/// lexing allocates nothing. Identifiers are kept as written; keywords are
/// recognized case-insensitively (Token::keyword); string literals use
/// single quotes with '' as the escape and are unescaped only when the
/// parser builds the literal (UnescapeString).
///
/// The lexer counts tokens as it scans, kEnd included. The token that would
/// be number `max_tokens + 1` comes back as kOverLimit instead (a malformed
/// one still comes back as kError), so an over-budget input costs
/// O(max_tokens) however long it is. kEnd, kError and kOverLimit are
/// sticky: every later Next() returns the same token. A Lexer is a small
/// value; copying it saves the cursor, and a copy scans ahead on its own.
class Lexer {
 public:
  explicit Lexer(std::string_view input,
                 size_t max_tokens = std::numeric_limits<size_t>::max())
      : input_(input), max_tokens_(max_tokens) {}

  Token Next() {
    if (stopped_) return last_;
    Token token = Scan();
    if (token.type != TokenType::kError && count_ >= max_tokens_) {
      token.type = TokenType::kOverLimit;
      token.keyword = Keyword::kNone;
    }
    ++count_;
    if (token.type == TokenType::kEnd || token.type == TokenType::kError ||
        token.type == TokenType::kOverLimit) {
      stopped_ = true;
      last_ = token;
    }
    return token;
  }

 private:
  Token Scan();

  std::string_view input_;
  size_t max_tokens_;
  size_t pos_ = 0;
  size_t count_ = 0;
  bool stopped_ = false;  // last_ is a sticky kEnd/kError/kOverLimit
  Token last_;
};

}  // namespace prestroid::sql

#endif  // PRESTROID_SQL_LEXER_H_
