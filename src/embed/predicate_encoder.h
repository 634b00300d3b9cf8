#ifndef PRESTROID_EMBED_PREDICATE_ENCODER_H_
#define PRESTROID_EMBED_PREDICATE_ENCODER_H_

#include <vector>

#include "embed/word2vec.h"
#include "otp/otp_encoder.h"
#include "sql/ast.h"

namespace prestroid::embed {

/// Turns predicate expression trees into fixed-width embeddings using a
/// trained Word2Vec model (paper Section 4.2):
///
///  - an atomic clause is the mean of its token embeddings;
///  - AND conjunctions MIN-pool their children, OR conjunctions MAX-pool
///    (following Sun & Li 2019);
///  - out-of-vocabulary predicates fall back through the 3-level hierarchy:
///    mean of the current query's in-vocabulary PRED embeddings, then the
///    mean embedding of the query's known tokens, then the global mean over
///    all training predicates.
class PredicateEncoder : public otp::PredicateEmbedder {
 public:
  /// `model` must be trained and outlive the encoder.
  explicit PredicateEncoder(const Word2Vec* model);

  /// Computes the global fallback (level 3) over the training predicates.
  void FitGlobalFallback(const std::vector<const sql::Expr*>& predicates);

  /// Fallback-vector access for serialization.
  const std::vector<float>& global_fallback() const { return global_fallback_; }
  void RestoreGlobalFallback(std::vector<float> fallback) {
    global_fallback_ = std::move(fallback);
  }

  /// Installs the OOV context for one query before encoding its tree
  /// (levels 1 and 2 of the hierarchy). Pass the query's predicates.
  void SetQueryContext(const std::vector<const sql::Expr*>& query_predicates);
  void ClearQueryContext();

  // otp::PredicateEmbedder:
  size_t dim() const override;
  void Embed(const sql::Expr& predicate, float* out) const override;

  /// Returns false (and leaves `out` zero) when the predicate has no
  /// in-vocabulary token anywhere — the caller then applies the fallback.
  bool TryEmbed(sql::ExprRef predicate, float* out) const;

 private:
  const Word2Vec* model_;
  std::vector<float> global_fallback_;
  std::vector<float> query_pred_fallback_;
  std::vector<float> query_token_fallback_;
  bool has_query_context_ = false;
};

}  // namespace prestroid::embed

#endif  // PRESTROID_EMBED_PREDICATE_ENCODER_H_
