#include "sql/lexer.h"

#include <array>
#include <cstdint>

namespace prestroid::sql {

namespace {

// ASCII character classes, matching <cctype> in the "C" locale, as one
// table lookup per byte.
enum CharClass : uint8_t {
  kSpace = 1,
  kDigit = 2,
  kIdentStart = 4,  // letters and '_'
};

constexpr std::array<uint8_t, 256> MakeCharClasses() {
  std::array<uint8_t, 256> classes{};
  for (int c = '\t'; c <= '\r'; ++c) classes[c] = kSpace;
  classes[' '] = kSpace;
  for (int c = '0'; c <= '9'; ++c) classes[c] = kDigit;
  for (int c = 'a'; c <= 'z'; ++c) classes[c] = kIdentStart;
  for (int c = 'A'; c <= 'Z'; ++c) classes[c] = kIdentStart;
  classes['_'] = kIdentStart;
  return classes;
}
constexpr std::array<uint8_t, 256> kCharClasses = MakeCharClasses();

bool Is(char c, uint8_t classes) {
  return (kCharClasses[static_cast<unsigned char>(c)] & classes) != 0;
}
bool IsSpace(char c) { return Is(c, kSpace); }
bool IsDigit(char c) { return Is(c, kDigit); }
bool IsIdentStart(char c) { return Is(c, kIdentStart); }
bool IsIdentChar(char c) { return Is(c, kIdentStart | kDigit); }

}  // namespace

Token Lexer::Scan() {
  const size_t n = input_.size();
  while (pos_ < n && IsSpace(input_[pos_])) ++pos_;
  Token token;
  token.offset = pos_;
  if (pos_ >= n) return token;  // kEnd
  const size_t start = pos_;
  const char c = input_[pos_];
  if (IsIdentStart(c)) {
    size_t j = pos_ + 1;
    while (j < n && IsIdentChar(input_[j])) ++j;
    token.text = input_.substr(start, j - start);
    token.keyword = LookupKeyword(token.text);
    token.type = token.keyword != Keyword::kNone ? TokenType::kKeyword
                                                 : TokenType::kIdentifier;
    pos_ = j;
    return token;
  }
  if (IsDigit(c) || (c == '.' && pos_ + 1 < n && IsDigit(input_[pos_ + 1]))) {
    size_t j = pos_;
    bool seen_dot = false;
    while (j < n && (IsDigit(input_[j]) || (input_[j] == '.' && !seen_dot))) {
      if (input_[j] == '.') seen_dot = true;
      ++j;
    }
    // Optional exponent: e[+-]?digits.
    if (j < n && (input_[j] == 'e' || input_[j] == 'E')) {
      size_t k = j + 1;
      if (k < n && (input_[k] == '+' || input_[k] == '-')) ++k;
      if (k < n && IsDigit(input_[k])) {
        while (k < n && IsDigit(input_[k])) ++k;
        j = k;
      }
    }
    token.type = TokenType::kNumber;
    token.text = input_.substr(start, j - start);
    pos_ = j;
    return token;
  }
  if (c == '\'') {
    for (size_t j = pos_ + 1; j < n; ++j) {
      if (input_[j] != '\'') continue;
      if (j + 1 < n && input_[j + 1] == '\'') {
        ++j;  // '' escape
        continue;
      }
      token.type = TokenType::kString;
      token.text = input_.substr(start + 1, j - start - 1);
      pos_ = j + 1;
      return token;
    }
    token.type = TokenType::kError;  // unterminated literal
    token.text = input_.substr(start);
    pos_ = n;
    return token;
  }
  size_t length = 1;
  switch (c) {
    case ',':
      token.type = TokenType::kComma;
      break;
    case '.':
      token.type = TokenType::kDot;
      break;
    case '(':
      token.type = TokenType::kLeftParen;
      break;
    case ')':
      token.type = TokenType::kRightParen;
      break;
    case '<':
      token.type = TokenType::kOperator;
      if (pos_ + 1 < n && (input_[pos_ + 1] == '=' || input_[pos_ + 1] == '>')) {
        length = 2;
      }
      break;
    case '>':
      token.type = TokenType::kOperator;
      if (pos_ + 1 < n && input_[pos_ + 1] == '=') length = 2;
      break;
    case '!':
      // Only "!=" is an operator; a lone '!' is malformed.
      if (pos_ + 1 < n && input_[pos_ + 1] == '=') {
        token.type = TokenType::kOperator;
        length = 2;
      } else {
        token.type = TokenType::kError;
      }
      break;
    case '=':
    case '+':
    case '-':
    case '*':
    case '/':
    case '%':
      token.type = TokenType::kOperator;
      break;
    default:
      token.type = TokenType::kError;
      break;
  }
  token.text = input_.substr(start, length);
  pos_ += length;
  return token;
}

}  // namespace prestroid::sql
