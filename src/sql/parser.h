#ifndef PRESTROID_SQL_PARSER_H_
#define PRESTROID_SQL_PARSER_H_

#include <memory>
#include <string_view>

#include "sql/ast.h"
#include "util/status.h"

namespace prestroid::sql {

/// Resource guard for one parse. The recursive-descent parser consumes
/// thread stack proportional to expression nesting, so `max_depth` is a hard
/// cap (kResourceExhausted beyond it) rather than a tunable suggestion.
/// `max_tokens` bounds work: the lexer counts while it scans (the final
/// end-of-input token counts too) and an input of more tokens is rejected
/// with kResourceExhausted once token `max_tokens + 1` is reached.
struct ParseLimits {
  size_t max_tokens = 100000;
  size_t max_depth = 200;
};

/// Parses a mini-SQL SELECT statement (the dialect used by the workload
/// generators and the Prestroid pipeline) in one pass: the recursive-descent
/// parser pulls tokens from a sql::Lexer cursor over `sql` with one or two
/// tokens of lookahead, and builds the AST as it goes. Returns kParseError on
/// malformed input and kResourceExhausted on inputs over the limits — never
/// aborts. A lexical error anywhere in the input outranks a grammar error
/// before it: the Status is decided (and formatted) once, at this entry
/// point, after the parser gives up.
Result<std::unique_ptr<SelectStmt>> ParseSelect(
    std::string_view sql, const ParseLimits& limits = ParseLimits());

/// Parses a standalone predicate or scalar expression (plan-text payloads
/// and tests). A predicate is tried first, then a bare value expression
/// (e.g. "AVG(x)" in a Project); the failed first attempt costs a rewind of
/// the cursor, not a formatted Status.
Result<ExprPtr> ParseExpression(std::string_view text,
                                const ParseLimits& limits = ParseLimits());

/// ParseExpression's verdict without the expression: the same Status for the
/// same text and limits, and no allocation once this thread has parsed an
/// expression as large.
Status CheckExpression(std::string_view text,
                       const ParseLimits& limits = ParseLimits());

}  // namespace prestroid::sql

#endif  // PRESTROID_SQL_PARSER_H_
