#ifndef PRESTROID_EMBED_WORD2VEC_H_
#define PRESTROID_EMBED_WORD2VEC_H_

#include <ostream>
#include <string>
#include <vector>

#include "embed/vocabulary.h"
#include "util/random.h"
#include "util/status.h"
#include "util/text_cursor.h"

namespace prestroid::embed {

/// Training algorithm variants (Mikolov et al. 2013).
enum class Word2VecMode { kSkipGram, kCbow };

/// Hyper-parameters. Defaults follow the paper: window 5, min_count 10,
/// feature size P_f chosen per experiment.
struct Word2VecConfig {
  Word2VecMode mode = Word2VecMode::kSkipGram;
  size_t dim = 100;          // P_f
  size_t window = 5;
  size_t min_count = 10;
  size_t negative = 5;       // negative samples per positive pair
  size_t epochs = 5;
  float learning_rate = 0.025f;
  float min_learning_rate = 0.0001f;
  uint64_t seed = 101;
};

/// From-scratch Word2Vec with negative sampling (the Gensim substitution of
/// DESIGN.md §2). Trained on predicate token "sentences" produced by
/// TokenizePredicate.
class Word2Vec {
 public:
  explicit Word2Vec(Word2VecConfig config = {});

  /// Builds the vocabulary and trains embeddings. Fails with InvalidArgument
  /// if no token survives the min_count cutoff.
  Status Train(const std::vector<std::vector<std::string>>& sentences);

  size_t dim() const { return config_.dim; }
  const Vocabulary& vocabulary() const { return vocab_; }
  bool trained() const { return trained_; }

  /// Serializes the trained model (config, vocabulary, both embedding
  /// matrices) to a stream; Restore() reads that text back from `in`.
  void Serialize(std::ostream& os) const;
  Status Restore(TextCursor& in);

  const Word2VecConfig& config() const { return config_; }

  /// Returns the embedding of `token`, or nullptr if out-of-vocabulary.
  const float* Embedding(const std::string& token) const;
  const float* EmbeddingOf(size_t token_id) const;

  /// Cosine similarity between two tokens; NotFound if either is OOV.
  Result<double> Similarity(const std::string& a, const std::string& b) const;

  /// The `top_k` in-vocabulary tokens most similar to `token`.
  Result<std::vector<std::pair<std::string, double>>> MostSimilar(
      const std::string& token, size_t top_k) const;

 private:
  void TrainPair(int center, int context, float lr);
  void TrainCbowWindow(const std::vector<int>& context_ids, int center,
                       float lr);
  int SampleNegative();

  Word2VecConfig config_;
  Vocabulary vocab_;
  bool trained_ = false;
  std::vector<float> input_vectors_;   // [vocab, dim] word embeddings
  std::vector<float> output_vectors_;  // [vocab, dim] context embeddings
  std::vector<int> negative_table_;    // unigram^0.75 sampling table
  Rng rng_;
};

}  // namespace prestroid::embed

#endif  // PRESTROID_EMBED_WORD2VEC_H_
