#ifndef PRESTROID_UTIL_TEXT_CURSOR_H_
#define PRESTROID_UTIL_TEXT_CURSOR_H_

#include <cstddef>
#include <string_view>

namespace prestroid {

/// A read cursor over whitespace-separated text records: the parse side of
/// the model artifact's text sections (core/pipeline_io.cc and
/// Word2Vec::Restore). It reads in place, with no copy into a stream, and
/// numbers go through std::from_chars.
///
/// Each read skips ASCII whitespace and takes one token, the bytes up to the
/// next whitespace. A read fails, returns false and leaves its output
/// unwritten when
///  - no token is left, or the token runs to the end of the text (the
///    writer ends every record with '\n', so such a token was cut);
///  - a number token is not wholly one number ("1.5abc", "0x1p3", "12x");
///  - an integer overflows its type, or a float overflows to infinity;
///  - a float token spells nan or inf.
/// Otherwise a number reads as stream extraction (operator>>) reads it: a
/// leading '+' is allowed, a '-' on an unsigned type wraps as in strtoull,
/// and a float too small for its type reads as a zero of its sign.
class TextCursor {
 public:
  explicit TextCursor(std::string_view text) : text_(text) {}

  /// The next token, a view into the text.
  bool Word(std::string_view* out);
  /// Reads a word and checks that it is `tag`.
  bool Expect(std::string_view tag);
  /// Reads an integer or floating-point token into `*out`.
  template <typename T>
  bool Number(T* out);

 private:
  std::string_view text_;
  size_t pos_ = 0;
};

}  // namespace prestroid

#endif  // PRESTROID_UTIL_TEXT_CURSOR_H_
