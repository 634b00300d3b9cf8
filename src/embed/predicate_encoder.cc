#include "embed/predicate_encoder.h"

#include <algorithm>
#include <cstring>

#include "embed/predicate_tokenizer.h"
#include "util/logging.h"

namespace prestroid::embed {

PredicateEncoder::PredicateEncoder(const Word2Vec* model) : model_(model) {
  PRESTROID_CHECK(model != nullptr);
  PRESTROID_CHECK(model->trained());
}

size_t PredicateEncoder::dim() const { return model_->dim(); }

namespace {

/// Averages the embeddings of known tokens into `out`; returns the number of
/// in-vocabulary tokens found.
size_t AverageTokens(const Word2Vec& model,
                     const std::vector<std::string>& tokens, float* out) {
  const size_t d = model.dim();
  std::memset(out, 0, sizeof(float) * d);
  size_t known = 0;
  for (const std::string& token : tokens) {
    const float* v = model.Embedding(token);
    if (v == nullptr) continue;
    for (size_t j = 0; j < d; ++j) out[j] += v[j];
    ++known;
  }
  if (known > 0) {
    const float inv = 1.0f / static_cast<float>(known);
    for (size_t j = 0; j < d; ++j) out[j] *= inv;
  }
  return known;
}

}  // namespace

bool PredicateEncoder::TryEmbed(sql::ExprRef predicate, float* out) const {
  const size_t d = dim();
  if (IsAtomicClause(predicate)) {
    return AverageTokens(*model_, TokenizeClause(predicate), out) > 0;
  }
  if (predicate.kind() == sql::ExprKind::kNot) {
    return TryEmbed(predicate.child(0), out);
  }
  // AND -> MIN feature pooling over children; OR -> MAX.
  const bool is_and = predicate.kind() == sql::ExprKind::kAnd;
  std::vector<float> child(d);
  bool any = false;
  for (sql::ExprRef sub : predicate.children()) {
    if (!TryEmbed(sub, child.data())) continue;
    if (!any) {
      std::memcpy(out, child.data(), sizeof(float) * d);
      any = true;
    } else {
      for (size_t j = 0; j < d; ++j) {
        out[j] = is_and ? std::min(out[j], child[j]) : std::max(out[j], child[j]);
      }
    }
  }
  if (!any) std::memset(out, 0, sizeof(float) * d);
  return any;
}

void PredicateEncoder::FitGlobalFallback(
    const std::vector<const sql::Expr*>& predicates) {
  const size_t d = dim();
  global_fallback_.assign(d, 0.0f);
  std::vector<float> buffer(d);
  size_t count = 0;
  for (const sql::Expr* predicate : predicates) {
    if (predicate == nullptr) continue;
    if (!TryEmbed(*predicate, buffer.data())) continue;
    for (size_t j = 0; j < d; ++j) global_fallback_[j] += buffer[j];
    ++count;
  }
  if (count > 0) {
    const float inv = 1.0f / static_cast<float>(count);
    for (size_t j = 0; j < d; ++j) global_fallback_[j] *= inv;
  }
}

void PredicateEncoder::SetQueryContext(
    const std::vector<const sql::Expr*>& query_predicates) {
  const size_t d = dim();
  query_pred_fallback_.assign(d, 0.0f);
  query_token_fallback_.assign(d, 0.0f);

  // Level 1: mean over the query's embeddable PRED nodes.
  std::vector<float> buffer(d);
  size_t pred_count = 0;
  std::vector<std::string> all_tokens;
  for (const sql::Expr* predicate : query_predicates) {
    if (predicate == nullptr) continue;
    if (TryEmbed(*predicate, buffer.data())) {
      for (size_t j = 0; j < d; ++j) query_pred_fallback_[j] += buffer[j];
      ++pred_count;
    }
    for (std::string& token : TokenizePredicate(*predicate)) {
      all_tokens.push_back(std::move(token));
    }
  }
  if (pred_count > 0) {
    const float inv = 1.0f / static_cast<float>(pred_count);
    for (size_t j = 0; j < d; ++j) query_pred_fallback_[j] *= inv;
  } else {
    query_pred_fallback_.clear();
  }

  // Level 2: mean over all known tokens of the query.
  if (AverageTokens(*model_, all_tokens, buffer.data()) > 0) {
    query_token_fallback_ = buffer;
  } else {
    query_token_fallback_.clear();
  }
  has_query_context_ = true;
}

void PredicateEncoder::ClearQueryContext() {
  query_pred_fallback_.clear();
  query_token_fallback_.clear();
  has_query_context_ = false;
}

void PredicateEncoder::Embed(const sql::Expr& predicate, float* out) const {
  if (TryEmbed(predicate, out)) return;
  const size_t d = dim();
  // Out-of-vocabulary: walk the fallback hierarchy.
  if (has_query_context_ && !query_pred_fallback_.empty()) {
    std::memcpy(out, query_pred_fallback_.data(), sizeof(float) * d);
    return;
  }
  if (has_query_context_ && !query_token_fallback_.empty()) {
    std::memcpy(out, query_token_fallback_.data(), sizeof(float) * d);
    return;
  }
  if (!global_fallback_.empty()) {
    std::memcpy(out, global_fallback_.data(), sizeof(float) * d);
    return;
  }
  std::memset(out, 0, sizeof(float) * d);
}

}  // namespace prestroid::embed
