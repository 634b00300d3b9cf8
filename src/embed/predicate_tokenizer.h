#ifndef PRESTROID_EMBED_PREDICATE_TOKENIZER_H_
#define PRESTROID_EMBED_PREDICATE_TOKENIZER_H_

#include <string>
#include <vector>

#include "sql/ast.h"

namespace prestroid::embed {

/// Extracts the Word2Vec training tokens of one *atomic* predicate clause:
/// column names and the comparison operator, with all literal values omitted
/// (paper Section 4.2 / Figure 4). E.g. `a.longitude > 103.8` ->
/// ["longitude", ">"].
std::vector<std::string> TokenizeClause(sql::ExprRef clause);

/// Flattens a whole predicate tree into its token sequence, stripping the
/// AND/OR conjunctions and every literal. This is the "sentence" a predicate
/// contributes to Word2Vec training.
std::vector<std::string> TokenizePredicate(sql::ExprRef predicate);

/// True for the atomic clause kinds (everything except AND/OR/NOT).
bool IsAtomicClause(sql::ExprRef expr);

/// Collects the atomic clauses of a predicate tree in-order.
void CollectAtomicClauses(sql::ExprRef predicate,
                          std::vector<sql::ExprRef>* clauses);

}  // namespace prestroid::embed

#endif  // PRESTROID_EMBED_PREDICATE_TOKENIZER_H_
