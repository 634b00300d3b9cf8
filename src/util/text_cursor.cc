#include "util/text_cursor.h"

#include <charconv>
#include <cmath>
#include <cstdint>
#include <limits>
#include <system_error>
#include <type_traits>

namespace prestroid {

namespace {

// The C locale's isspace set: ' ', '\t', '\n', '\v', '\f', '\r'.
bool IsSpace(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }

bool IsDigit(char c) { return c >= '0' && c <= '9'; }

// Strips one leading sign; returns true for '-'.
bool StripSign(std::string_view* token) {
  const bool negative = !token->empty() && token->front() == '-';
  if (negative || (!token->empty() && token->front() == '+')) {
    token->remove_prefix(1);
  }
  return negative;
}

// `digits` is an unsigned float token that from_chars matched whole but
// reported out of range. True when its magnitude is below one, so it
// underflowed (stream extraction reads it as zero) rather than overflowed
// (stream extraction fails). That is the sign of the decimal exponent of its
// first nonzero digit.
bool BelowOne(std::string_view digits) {
  size_t i = 0;
  while (i < digits.size() && digits[i] == '0') ++i;
  int64_t lead = -1;  // decimal exponent of the first nonzero digit
  for (; i < digits.size() && IsDigit(digits[i]); ++i) ++lead;
  if (lead < 0 && i < digits.size() && digits[i] == '.') {
    for (++i; i < digits.size() && digits[i] == '0'; ++i) --lead;
  }
  while (i < digits.size() && (IsDigit(digits[i]) || digits[i] == '.')) ++i;
  if (i == digits.size()) return lead < 0;
  std::string_view exponent_text = digits.substr(i + 1);  // past 'e' / 'E'
  const bool negative = StripSign(&exponent_text);
  int64_t exponent = 0;
  if (std::from_chars(exponent_text.data(),
                      exponent_text.data() + exponent_text.size(), exponent)
          .ec != std::errc()) {
    return negative;  // an exponent past int64 outweighs any lead
  }
  return negative ? exponent > lead : exponent < -lead;
}

template <typename T>
bool ParseFloat(std::string_view token, T* out) {
  const bool negative = StripSign(&token);
  // from_chars takes a '-' of its own; a second sign is not a number.
  if (token.empty() || token.front() == '-') return false;
  const char* const end = token.data() + token.size();
  T value = 0;
  const auto [ptr, ec] =
      std::from_chars(token.data(), end, value, std::chars_format::general);
  if (ptr != end) return false;
  if (ec == std::errc::result_out_of_range) {
    if (!BelowOne(token)) return false;
    value = 0;
  } else if (ec != std::errc() || !std::isfinite(value)) {
    return false;  // nan and inf, which stream extraction never reads
  }
  *out = negative ? -value : value;
  return true;
}

template <typename T>
bool ParseInteger(std::string_view token, T* out) {
  const bool negative = StripSign(&token);
  const char* const end = token.data() + token.size();
  uint64_t magnitude = 0;
  const auto [ptr, ec] = std::from_chars(token.data(), end, magnitude);
  if (ec != std::errc() || ptr != end) return false;
  using Unsigned = std::make_unsigned_t<T>;
  uint64_t limit = std::numeric_limits<T>::max();
  if (std::is_signed_v<T> && negative) ++limit;
  if (magnitude > limit) return false;
  const auto value = static_cast<Unsigned>(magnitude);
  *out = static_cast<T>(negative ? Unsigned{0} - value : value);
  return true;
}

}  // namespace

bool TextCursor::Word(std::string_view* out) {
  while (pos_ < text_.size() && IsSpace(text_[pos_])) ++pos_;
  const size_t begin = pos_;
  while (pos_ < text_.size() && !IsSpace(text_[pos_])) ++pos_;
  // Also covers "no token left": then begin == pos_ == size.
  if (pos_ == text_.size()) return false;
  *out = text_.substr(begin, pos_ - begin);
  return true;
}

bool TextCursor::Expect(std::string_view tag) {
  std::string_view word;
  return Word(&word) && word == tag;
}

template <typename T>
bool TextCursor::Number(T* out) {
  std::string_view token;
  if (!Word(&token)) return false;
  if constexpr (std::is_floating_point_v<T>) {
    return ParseFloat(token, out);
  } else {
    return ParseInteger(token, out);
  }
}

template bool TextCursor::Number(int*);
template bool TextCursor::Number(long*);
template bool TextCursor::Number(long long*);
template bool TextCursor::Number(unsigned long*);
template bool TextCursor::Number(unsigned long long*);
template bool TextCursor::Number(float*);
template bool TextCursor::Number(double*);

}  // namespace prestroid
