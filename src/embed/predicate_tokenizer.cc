#include "embed/predicate_tokenizer.h"

#include "util/string_util.h"

namespace prestroid::embed {

namespace {

/// Appends column-name tokens of a value expression (literals are dropped).
void CollectColumnTokens(sql::ExprRef expr, std::vector<std::string>* out) {
  if (expr.kind() == sql::ExprKind::kColumn && expr.name() != "*") {
    out->push_back(ToLower(expr.name()));
  }
  for (sql::ExprRef child : expr.children()) CollectColumnTokens(child, out);
}

}  // namespace

bool IsAtomicClause(sql::ExprRef expr) {
  switch (expr.kind()) {
    case sql::ExprKind::kAnd:
    case sql::ExprKind::kOr:
    case sql::ExprKind::kNot:
      return false;
    default:
      return true;
  }
}

std::vector<std::string> TokenizeClause(sql::ExprRef clause) {
  std::vector<std::string> tokens;
  switch (clause.kind()) {
    case sql::ExprKind::kCompare:
      CollectColumnTokens(clause, &tokens);
      tokens.emplace_back(clause.op());
      break;
    case sql::ExprKind::kIn:
      CollectColumnTokens(clause.child(0), &tokens);
      tokens.push_back("IN");
      break;
    case sql::ExprKind::kBetween:
      CollectColumnTokens(clause.child(0), &tokens);
      tokens.push_back("BETWEEN");
      break;
    case sql::ExprKind::kLike:
      CollectColumnTokens(clause.child(0), &tokens);
      tokens.push_back("LIKE");
      break;
    case sql::ExprKind::kIsNull:
      CollectColumnTokens(clause.child(0), &tokens);
      tokens.push_back(clause.op() == "NOT" ? "IS_NOT_NULL" : "IS_NULL");
      break;
    default:
      // Bare columns / arithmetic in predicate position: keep the columns.
      CollectColumnTokens(clause, &tokens);
      break;
  }
  return tokens;
}

std::vector<std::string> TokenizePredicate(sql::ExprRef predicate) {
  std::vector<std::string> tokens;
  if (IsAtomicClause(predicate)) {
    return TokenizeClause(predicate);
  }
  for (sql::ExprRef child : predicate.children()) {
    for (std::string& token : TokenizePredicate(child)) {
      tokens.push_back(std::move(token));
    }
  }
  return tokens;
}

void CollectAtomicClauses(sql::ExprRef predicate,
                          std::vector<sql::ExprRef>* clauses) {
  if (IsAtomicClause(predicate)) {
    clauses->push_back(predicate);
    return;
  }
  for (sql::ExprRef child : predicate.children()) {
    CollectAtomicClauses(child, clauses);
  }
}

}  // namespace prestroid::embed
