#include "embed/word2vec.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"

namespace prestroid::embed {

namespace {

constexpr size_t kNegativeTableSize = 1 << 18;

float FastSigmoid(float x) {
  if (x > 8.0f) return 1.0f;
  if (x < -8.0f) return 0.0f;
  return 1.0f / (1.0f + std::exp(-x));
}

}  // namespace

Word2Vec::Word2Vec(Word2VecConfig config)
    : config_(config), rng_(config.seed) {
  PRESTROID_CHECK_GT(config_.dim, 0u);
  PRESTROID_CHECK_GT(config_.window, 0u);
}

Status Word2Vec::Train(const std::vector<std::vector<std::string>>& sentences) {
  vocab_.Build(sentences, config_.min_count);
  if (vocab_.size() == 0) {
    return Status::InvalidArgument(
        "no token meets the min_count cutoff; lower min_count or supply more "
        "sentences");
  }
  const size_t v = vocab_.size();
  const size_t d = config_.dim;

  // Initialize: input vectors uniform in [-0.5/d, 0.5/d], outputs zero
  // (the word2vec.c convention).
  input_vectors_.assign(v * d, 0.0f);
  output_vectors_.assign(v * d, 0.0f);
  for (float& w : input_vectors_) {
    w = static_cast<float>((rng_.UniformDouble() - 0.5) / static_cast<double>(d));
  }

  // Unigram^0.75 negative-sampling table.
  negative_table_.assign(kNegativeTableSize, 0);
  double norm = 0.0;
  for (size_t i = 0; i < v; ++i) {
    norm += std::pow(static_cast<double>(vocab_.CountOf(i)), 0.75);
  }
  size_t pos = 0;
  double acc = 0.0;
  for (size_t i = 0; i < v && pos < kNegativeTableSize; ++i) {
    acc += std::pow(static_cast<double>(vocab_.CountOf(i)), 0.75) / norm;
    size_t until = std::min(
        kNegativeTableSize,
        static_cast<size_t>(acc * static_cast<double>(kNegativeTableSize)));
    for (; pos < until; ++pos) negative_table_[pos] = static_cast<int>(i);
  }
  for (; pos < kNegativeTableSize; ++pos) {
    negative_table_[pos] = static_cast<int>(v - 1);
  }

  // Map sentences to id sequences once (drop OOV tokens).
  std::vector<std::vector<int>> id_sentences;
  size_t total_tokens = 0;
  id_sentences.reserve(sentences.size());
  for (const auto& sentence : sentences) {
    std::vector<int> ids;
    ids.reserve(sentence.size());
    for (const std::string& token : sentence) {
      int id = vocab_.Lookup(token);
      if (id >= 0) ids.push_back(id);
    }
    if (ids.size() >= 2) {
      total_tokens += ids.size();
      id_sentences.push_back(std::move(ids));
    }
  }
  if (id_sentences.empty()) {
    return Status::InvalidArgument("no sentence has two in-vocabulary tokens");
  }

  const double total_steps =
      static_cast<double>(total_tokens) * static_cast<double>(config_.epochs);
  double step = 0.0;
  for (size_t epoch = 0; epoch < config_.epochs; ++epoch) {
    for (const std::vector<int>& ids : id_sentences) {
      for (size_t center = 0; center < ids.size(); ++center) {
        float lr = static_cast<float>(
            config_.learning_rate * (1.0 - step / (total_steps + 1.0)));
        lr = std::max(lr, config_.min_learning_rate);
        // Dynamic window shrink, as in word2vec.c.
        size_t reduced =
            1 + static_cast<size_t>(rng_.NextUint64(config_.window));
        size_t lo = center >= reduced ? center - reduced : 0;
        size_t hi = std::min(ids.size() - 1, center + reduced);
        if (config_.mode == Word2VecMode::kSkipGram) {
          for (size_t ctx = lo; ctx <= hi; ++ctx) {
            if (ctx == center) continue;
            TrainPair(ids[center], ids[ctx], lr);
          }
        } else {
          std::vector<int> context;
          for (size_t ctx = lo; ctx <= hi; ++ctx) {
            if (ctx != center) context.push_back(ids[ctx]);
          }
          if (!context.empty()) TrainCbowWindow(context, ids[center], lr);
        }
        step += 1.0;
      }
    }
  }
  trained_ = true;
  return Status::OK();
}

void Word2Vec::TrainPair(int center, int context, float lr) {
  const size_t d = config_.dim;
  float* in = input_vectors_.data() + static_cast<size_t>(center) * d;
  std::vector<float> grad_in(d, 0.0f);
  for (size_t k = 0; k <= config_.negative; ++k) {
    int target;
    float label;
    if (k == 0) {
      target = context;
      label = 1.0f;
    } else {
      target = SampleNegative();
      if (target == context) continue;
      label = 0.0f;
    }
    float* out = output_vectors_.data() + static_cast<size_t>(target) * d;
    float dot = 0.0f;
    for (size_t j = 0; j < d; ++j) dot += in[j] * out[j];
    const float g = (label - FastSigmoid(dot)) * lr;
    for (size_t j = 0; j < d; ++j) {
      grad_in[j] += g * out[j];
      out[j] += g * in[j];
    }
  }
  for (size_t j = 0; j < d; ++j) in[j] += grad_in[j];
}

void Word2Vec::TrainCbowWindow(const std::vector<int>& context_ids, int center,
                               float lr) {
  const size_t d = config_.dim;
  // Mean of context vectors.
  std::vector<float> mean(d, 0.0f);
  for (int id : context_ids) {
    const float* in = input_vectors_.data() + static_cast<size_t>(id) * d;
    for (size_t j = 0; j < d; ++j) mean[j] += in[j];
  }
  const float inv = 1.0f / static_cast<float>(context_ids.size());
  for (size_t j = 0; j < d; ++j) mean[j] *= inv;

  std::vector<float> grad(d, 0.0f);
  for (size_t k = 0; k <= config_.negative; ++k) {
    int target;
    float label;
    if (k == 0) {
      target = center;
      label = 1.0f;
    } else {
      target = SampleNegative();
      if (target == center) continue;
      label = 0.0f;
    }
    float* out = output_vectors_.data() + static_cast<size_t>(target) * d;
    float dot = 0.0f;
    for (size_t j = 0; j < d; ++j) dot += mean[j] * out[j];
    const float g = (label - FastSigmoid(dot)) * lr;
    for (size_t j = 0; j < d; ++j) {
      grad[j] += g * out[j];
      out[j] += g * mean[j];
    }
  }
  for (int id : context_ids) {
    float* in = input_vectors_.data() + static_cast<size_t>(id) * d;
    for (size_t j = 0; j < d; ++j) in[j] += grad[j];
  }
}

int Word2Vec::SampleNegative() {
  return negative_table_[rng_.NextUint64(negative_table_.size())];
}

void Word2Vec::Serialize(std::ostream& os) const {
  PRESTROID_CHECK(trained_);
  os.precision(9);  // float32 round-trips with 9 significant digits
  os << "W2V v1 " << static_cast<int>(config_.mode) << " " << config_.dim
     << " " << config_.window << " " << config_.min_count << " "
     << config_.negative << "\n";
  os << vocab_.size() << "\n";
  for (size_t i = 0; i < vocab_.size(); ++i) {
    os << vocab_.TokenOf(i) << " " << vocab_.CountOf(i) << "\n";
  }
  auto dump = [&os](const std::vector<float>& data) {
    for (size_t i = 0; i < data.size(); ++i) {
      if (i > 0) os << " ";
      os << data[i];
    }
    os << "\n";
  };
  dump(input_vectors_);
  dump(output_vectors_);
}

Status Word2Vec::Restore(TextCursor& in) {
  int mode = 0;
  if (!in.Expect("W2V") || !in.Expect("v1") || !in.Number(&mode) ||
      !in.Number(&config_.dim) || !in.Number(&config_.window) ||
      !in.Number(&config_.min_count) || !in.Number(&config_.negative)) {
    return Status::ParseError("bad Word2Vec header");
  }
  config_.mode = static_cast<Word2VecMode>(mode);
  // The header fields drive allocations below, so bound them before use: a
  // corrupted dim or vocab count must fail cleanly, not request
  // vocab_size * dim floats of memory or spin a SIZE_MAX loop.
  constexpr size_t kMaxRestoreDim = 1u << 16;
  constexpr size_t kMaxRestoreVocab = 1u << 24;
  if (config_.dim == 0 || config_.dim > kMaxRestoreDim) {
    return Status::DataCorruption("implausible Word2Vec dimension");
  }
  size_t vocab_size = 0;
  if (!in.Number(&vocab_size) || vocab_size > kMaxRestoreVocab) {
    return Status::DataCorruption("implausible Word2Vec vocabulary size");
  }
  std::vector<std::string> tokens(vocab_size);
  std::vector<int64_t> counts(vocab_size);
  for (size_t i = 0; i < vocab_size; ++i) {
    std::string_view token;
    if (!in.Word(&token) || !in.Number(&counts[i])) {
      return Status::ParseError("truncated Word2Vec vocabulary");
    }
    tokens[i] = token;
  }
  vocab_.Restore(std::move(tokens), std::move(counts));
  input_vectors_.assign(vocab_size * config_.dim, 0.0f);
  output_vectors_.assign(vocab_size * config_.dim, 0.0f);
  for (std::vector<float>* vectors : {&input_vectors_, &output_vectors_}) {
    for (float& w : *vectors) {
      if (!in.Number(&w)) {
        return Status::ParseError("truncated Word2Vec embeddings");
      }
    }
  }
  trained_ = true;
  return Status::OK();
}

const float* Word2Vec::Embedding(const std::string& token) const {
  int id = vocab_.Lookup(token);
  if (id < 0) return nullptr;
  return EmbeddingOf(static_cast<size_t>(id));
}

const float* Word2Vec::EmbeddingOf(size_t token_id) const {
  PRESTROID_CHECK(trained_);
  PRESTROID_CHECK_LT(token_id, vocab_.size());
  return input_vectors_.data() + token_id * config_.dim;
}

Result<double> Word2Vec::Similarity(const std::string& a,
                                    const std::string& b) const {
  const float* va = Embedding(a);
  const float* vb = Embedding(b);
  if (va == nullptr || vb == nullptr) {
    return Status::NotFound("token out of vocabulary");
  }
  double dot = 0.0, na = 0.0, nb = 0.0;
  for (size_t j = 0; j < config_.dim; ++j) {
    dot += static_cast<double>(va[j]) * vb[j];
    na += static_cast<double>(va[j]) * va[j];
    nb += static_cast<double>(vb[j]) * vb[j];
  }
  if (na == 0.0 || nb == 0.0) return 0.0;
  return dot / (std::sqrt(na) * std::sqrt(nb));
}

Result<std::vector<std::pair<std::string, double>>> Word2Vec::MostSimilar(
    const std::string& token, size_t top_k) const {
  if (Embedding(token) == nullptr) {
    return Status::NotFound("token out of vocabulary: " + token);
  }
  std::vector<std::pair<std::string, double>> scored;
  for (size_t i = 0; i < vocab_.size(); ++i) {
    const std::string& other = vocab_.TokenOf(i);
    if (other == token) continue;
    auto sim = Similarity(token, other);
    scored.emplace_back(other, sim.ValueOrDie());
  }
  std::sort(scored.begin(), scored.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });
  if (scored.size() > top_k) scored.resize(top_k);
  return scored;
}

}  // namespace prestroid::embed
