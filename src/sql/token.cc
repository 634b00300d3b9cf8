#include "sql/token.h"

#include <iterator>

namespace prestroid::sql {

const char* KeywordName(Keyword keyword) {
  static constexpr const char* kNames[] = {
      "",       "SELECT", "FROM",  "WHERE",  "GROUP", "BY",      "HAVING",
      "ORDER",  "LIMIT",  "JOIN",  "INNER",  "LEFT",  "RIGHT",   "FULL",
      "CROSS",  "OUTER",  "ON",    "AS",     "AND",   "OR",      "NOT",
      "IN",     "BETWEEN", "LIKE", "IS",     "NULL",  "ASC",     "DESC",
      "DISTINCT", "COUNT", "SUM",  "AVG",    "MIN",   "MAX",     "UNION",
  };
  static_assert(std::size(kNames) == static_cast<size_t>(Keyword::kUnion) + 1);
  return kNames[static_cast<size_t>(keyword)];
}

namespace {

/// True if `word` equals the upper-case `upper` ignoring ASCII case. Only
/// called on identifier bytes ([A-Za-z0-9_]), where clearing bit 5 upper-
/// cases a letter and never turns a digit or '_' into one.
bool MatchesUpper(std::string_view word, const char* upper) {
  for (size_t i = 0; i < word.size(); ++i) {
    if ((static_cast<unsigned char>(word[i]) & 0xDF) !=
        static_cast<unsigned char>(upper[i])) {
      return false;
    }
  }
  return true;
}

}  // namespace

Keyword LookupKeyword(std::string_view word) {
  if (word.size() < 2 || word.size() > 8) return Keyword::kNone;
  auto is = [&](const char* upper, Keyword kw) {
    return MatchesUpper(word, upper) ? kw : Keyword::kNone;
  };
  const char first = static_cast<char>(word[0] & 0xDF);
  switch (word.size()) {
    case 2:
      switch (first) {
        case 'A':
          return is("AS", Keyword::kAs);
        case 'B':
          return is("BY", Keyword::kBy);
        case 'I': {
          const Keyword kw = is("IN", Keyword::kIn);
          return kw != Keyword::kNone ? kw : is("IS", Keyword::kIs);
        }
        case 'O': {
          const Keyword kw = is("ON", Keyword::kOn);
          return kw != Keyword::kNone ? kw : is("OR", Keyword::kOr);
        }
      }
      break;
    case 3:
      switch (first) {
        case 'A': {
          Keyword kw = is("AND", Keyword::kAnd);
          if (kw == Keyword::kNone) kw = is("ASC", Keyword::kAsc);
          return kw != Keyword::kNone ? kw : is("AVG", Keyword::kAvg);
        }
        case 'M': {
          const Keyword kw = is("MAX", Keyword::kMax);
          return kw != Keyword::kNone ? kw : is("MIN", Keyword::kMin);
        }
        case 'N':
          return is("NOT", Keyword::kNot);
        case 'S':
          return is("SUM", Keyword::kSum);
      }
      break;
    case 4:
      switch (first) {
        case 'D':
          return is("DESC", Keyword::kDesc);
        case 'F': {
          const Keyword kw = is("FROM", Keyword::kFrom);
          return kw != Keyword::kNone ? kw : is("FULL", Keyword::kFull);
        }
        case 'J':
          return is("JOIN", Keyword::kJoin);
        case 'L': {
          const Keyword kw = is("LEFT", Keyword::kLeft);
          return kw != Keyword::kNone ? kw : is("LIKE", Keyword::kLike);
        }
        case 'N':
          return is("NULL", Keyword::kNull);
      }
      break;
    case 5:
      switch (first) {
        case 'C': {
          const Keyword kw = is("COUNT", Keyword::kCount);
          return kw != Keyword::kNone ? kw : is("CROSS", Keyword::kCross);
        }
        case 'G':
          return is("GROUP", Keyword::kGroup);
        case 'I':
          return is("INNER", Keyword::kInner);
        case 'L':
          return is("LIMIT", Keyword::kLimit);
        case 'O': {
          const Keyword kw = is("ORDER", Keyword::kOrder);
          return kw != Keyword::kNone ? kw : is("OUTER", Keyword::kOuter);
        }
        case 'R':
          return is("RIGHT", Keyword::kRight);
        case 'U':
          return is("UNION", Keyword::kUnion);
        case 'W':
          return is("WHERE", Keyword::kWhere);
      }
      break;
    case 6:
      switch (first) {
        case 'H':
          return is("HAVING", Keyword::kHaving);
        case 'S':
          return is("SELECT", Keyword::kSelect);
      }
      break;
    case 7:
      return is("BETWEEN", Keyword::kBetween);
    case 8:
      return is("DISTINCT", Keyword::kDistinct);
  }
  return Keyword::kNone;
}

std::string UnescapeString(std::string_view body) {
  std::string value;
  value.reserve(body.size());
  for (size_t i = 0; i < body.size(); ++i) {
    value.push_back(body[i]);
    if (body[i] == '\'') ++i;  // the lexer only admits '' pairs
  }
  return value;
}

}  // namespace prestroid::sql
