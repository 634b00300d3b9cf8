#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "embed/predicate_encoder.h"
#include "embed/predicate_tokenizer.h"
#include "embed/vocabulary.h"
#include "embed/word2vec.h"
#include "sql/parser.h"

namespace prestroid::embed {
namespace {

sql::ExprPtr Pred(const std::string& text) {
  return sql::ParseExpression(text).ValueOrDie();
}

TEST(TokenizerTest, StripsValuesKeepsColumnsAndOps) {
  auto tokens = TokenizeClause(*Pred("longitude > 103.8"));
  ASSERT_EQ(tokens.size(), 2u);
  EXPECT_EQ(tokens[0], "longitude");
  EXPECT_EQ(tokens[1], ">");
}

TEST(TokenizerTest, InBetweenLikeIsNullMarkers) {
  EXPECT_EQ(TokenizeClause(*Pred("c IN (1, 2)")).back(), "IN");
  EXPECT_EQ(TokenizeClause(*Pred("c BETWEEN 1 AND 2")).back(), "BETWEEN");
  EXPECT_EQ(TokenizeClause(*Pred("c LIKE '%x%'")).back(), "LIKE");
  EXPECT_EQ(TokenizeClause(*Pred("c IS NULL")).back(), "IS_NULL");
  EXPECT_EQ(TokenizeClause(*Pred("c IS NOT NULL")).back(), "IS_NOT_NULL");
}

TEST(TokenizerTest, PredicateStripsConjunctions) {
  auto tokens =
      TokenizePredicate(*Pred("longitude > 1 AND (latitude < 2 OR city = 'x')"));
  // Conjunction words never appear; all column tokens do.
  for (const std::string& t : tokens) {
    EXPECT_NE(t, "AND");
    EXPECT_NE(t, "OR");
  }
  EXPECT_EQ(tokens[0], "longitude");
  ASSERT_EQ(tokens.size(), 6u);  // 3 columns + 3 ops
}

TEST(TokenizerTest, ColumnNamesLowercased) {
  auto tokens = TokenizeClause(*Pred("t.LONGITUDE = 3"));
  EXPECT_EQ(tokens[0], "longitude");
}

TEST(TokenizerTest, CollectAtomicClauses) {
  auto pred = Pred("a = 1 AND (b = 2 OR NOT c = 3)");
  std::vector<sql::ExprRef> clauses;
  CollectAtomicClauses(*pred, &clauses);
  EXPECT_EQ(clauses.size(), 3u);
  EXPECT_TRUE(IsAtomicClause(clauses[0]));
}

TEST(VocabularyTest, MinCountCutoffAndFrequencyOrder) {
  std::vector<std::vector<std::string>> sentences = {
      {"a", "b", "a"}, {"a", "c"}, {"b", "a"}};
  Vocabulary vocab;
  vocab.Build(sentences, 2);
  EXPECT_EQ(vocab.size(), 2u);  // a (4), b (2); c dropped
  EXPECT_EQ(vocab.TokenOf(0), "a");
  EXPECT_EQ(vocab.TokenOf(1), "b");
  EXPECT_EQ(vocab.Lookup("c"), -1);
  EXPECT_EQ(vocab.CountOf(0), 4);
  EXPECT_EQ(vocab.total_count(), 6);
}

/// Synthetic corpus: geo tokens always co-occur, finance tokens always
/// co-occur, and the groups never mix. Word2Vec must place within-group
/// pairs closer than cross-group pairs — the paper's LONGITUDE/LATITUDE vs
/// DATAMART example.
std::vector<std::vector<std::string>> ThematicCorpus(size_t repeats) {
  std::vector<std::vector<std::string>> corpus;
  for (size_t i = 0; i < repeats; ++i) {
    corpus.push_back({"longitude", ">", "latitude", "<", "geohash", "="});
    corpus.push_back({"latitude", ">=", "longitude", "<="});
    corpus.push_back({"datamart", "=", "warehouse", "=", "ledger", ">"});
    corpus.push_back({"ledger", "<", "datamart", "="});
  }
  return corpus;
}

TEST(Word2VecTest, LearnsThematicStructure) {
  Word2VecConfig config;
  config.dim = 24;
  config.min_count = 2;
  config.epochs = 30;
  config.seed = 77;
  Word2Vec model(config);
  ASSERT_TRUE(model.Train(ThematicCorpus(60)).ok());
  double within = model.Similarity("longitude", "latitude").ValueOrDie();
  double across = model.Similarity("longitude", "datamart").ValueOrDie();
  EXPECT_GT(within, across);
}

TEST(Word2VecTest, CbowAlsoLearns) {
  Word2VecConfig config;
  config.mode = Word2VecMode::kCbow;
  config.dim = 16;
  config.min_count = 2;
  config.epochs = 60;
  // Disjoint token groups (no shared operator tokens bridging them).
  std::vector<std::vector<std::string>> corpus;
  for (int i = 0; i < 80; ++i) {
    corpus.push_back({"alpha", "beta", "gamma"});
    corpus.push_back({"beta", "alpha"});
    corpus.push_back({"one", "two", "three"});
    corpus.push_back({"three", "one"});
  }
  Word2Vec model(config);
  ASSERT_TRUE(model.Train(corpus).ok());
  EXPECT_GT(model.Similarity("alpha", "beta").ValueOrDie(),
            model.Similarity("alpha", "one").ValueOrDie());
}

TEST(Word2VecTest, MostSimilarRanksNeighbors) {
  Word2VecConfig config;
  config.dim = 24;
  config.min_count = 2;
  config.epochs = 30;
  Word2Vec model(config);
  ASSERT_TRUE(model.Train(ThematicCorpus(60)).ok());
  auto similar = model.MostSimilar("longitude", 3).ValueOrDie();
  ASSERT_EQ(similar.size(), 3u);
  // The top neighbours of a geo token are geo-group tokens.
  EXPECT_TRUE(similar[0].first == "latitude" || similar[0].first == "geohash" ||
              similar[0].first == ">" || similar[0].first == "<" ||
              similar[0].first == ">=" || similar[0].first == "<=" ||
              similar[0].first == "=");
}

TEST(Word2VecTest, OovReturnsNull) {
  Word2VecConfig config;
  config.dim = 8;
  config.min_count = 1;
  config.epochs = 2;
  Word2Vec model(config);
  ASSERT_TRUE(model.Train({{"a", "b"}, {"a", "b"}}).ok());
  EXPECT_EQ(model.Embedding("zzz"), nullptr);
  EXPECT_FALSE(model.Similarity("a", "zzz").ok());
}

TEST(Word2VecTest, EmptyCorpusFails) {
  Word2Vec model;
  EXPECT_FALSE(model.Train({}).ok());
  Word2VecConfig config;
  config.min_count = 100;
  Word2Vec strict(config);
  EXPECT_FALSE(strict.Train({{"a", "b"}}).ok());
}

TEST(Word2VecTest, SerializeRestoreRoundTrip) {
  Word2VecConfig config;
  config.dim = 12;
  config.min_count = 2;
  config.epochs = 10;
  Word2Vec model(config);
  ASSERT_TRUE(model.Train(ThematicCorpus(30)).ok());

  std::ostringstream os;
  model.Serialize(os);
  const std::string text = os.str();
  TextCursor in(text);
  Word2Vec restored;
  ASSERT_TRUE(restored.Restore(in).ok());

  EXPECT_EQ(restored.dim(), model.dim());
  EXPECT_EQ(restored.vocabulary().size(), model.vocabulary().size());
  for (size_t i = 0; i < model.vocabulary().size(); ++i) {
    const std::string& token = model.vocabulary().TokenOf(i);
    EXPECT_EQ(restored.vocabulary().Lookup(token), static_cast<int>(i));
    const float* a = model.Embedding(token);
    const float* b = restored.Embedding(token);
    ASSERT_NE(b, nullptr);
    for (size_t j = 0; j < model.dim(); ++j) {
      EXPECT_NEAR(a[j], b[j], std::abs(a[j]) * 1e-5f + 1e-7f);
    }
  }
  // Similarities agree too.
  EXPECT_NEAR(model.Similarity("longitude", "latitude").ValueOrDie(),
              restored.Similarity("longitude", "latitude").ValueOrDie(), 1e-5);
}

TEST(Word2VecTest, RestoreRejectsGarbage) {
  TextCursor bad("NOT_W2V nope\n");
  Word2Vec model;
  EXPECT_FALSE(model.Restore(bad).ok());
}

class EncoderFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    Word2VecConfig config;
    config.dim = 16;
    config.min_count = 2;
    config.epochs = 20;
    model_ = std::make_unique<Word2Vec>(config);
    ASSERT_TRUE(model_->Train(ThematicCorpus(40)).ok());
    encoder_ = std::make_unique<PredicateEncoder>(model_.get());
  }

  std::unique_ptr<Word2Vec> model_;
  std::unique_ptr<PredicateEncoder> encoder_;
};

TEST_F(EncoderFixture, AtomicClauseIsTokenMean) {
  std::vector<float> out(encoder_->dim());
  ASSERT_TRUE(encoder_->TryEmbed(*Pred("longitude > 1"), out.data()));
  const float* lon = model_->Embedding("longitude");
  const float* gt = model_->Embedding(">");
  ASSERT_NE(lon, nullptr);
  ASSERT_NE(gt, nullptr);
  for (size_t j = 0; j < encoder_->dim(); ++j) {
    EXPECT_NEAR(out[j], (lon[j] + gt[j]) / 2.0f, 1e-5f);
  }
}

TEST_F(EncoderFixture, AndPoolsMinOrPoolsMax) {
  std::vector<float> a(encoder_->dim()), b(encoder_->dim());
  std::vector<float> and_out(encoder_->dim()), or_out(encoder_->dim());
  ASSERT_TRUE(encoder_->TryEmbed(*Pred("longitude > 1"), a.data()));
  ASSERT_TRUE(encoder_->TryEmbed(*Pred("datamart = 'x'"), b.data()));
  ASSERT_TRUE(encoder_->TryEmbed(*Pred("longitude > 1 AND datamart = 'x'"),
                                 and_out.data()));
  ASSERT_TRUE(encoder_->TryEmbed(*Pred("longitude > 1 OR datamart = 'x'"),
                                 or_out.data()));
  for (size_t j = 0; j < encoder_->dim(); ++j) {
    EXPECT_NEAR(and_out[j], std::min(a[j], b[j]), 1e-5f);
    EXPECT_NEAR(or_out[j], std::max(a[j], b[j]), 1e-5f);
  }
}

TEST_F(EncoderFixture, FullyOovFailsTryEmbed) {
  std::vector<float> out(encoder_->dim(), 1.0f);
  EXPECT_FALSE(encoder_->TryEmbed(*Pred("unknown_col LIKE '%q%'"), out.data()));
  for (float v : out) EXPECT_EQ(v, 0.0f);
}

TEST_F(EncoderFixture, OovFallbackHierarchy) {
  // Level 1: mean of the query's embeddable predicates.
  auto known = Pred("longitude > 1");
  auto unknown = Pred("mystery_col LIKE '%q%'");
  encoder_->SetQueryContext({known.get(), unknown.get()});
  std::vector<float> fallback(encoder_->dim());
  encoder_->Embed(*unknown, fallback.data());
  std::vector<float> known_emb(encoder_->dim());
  ASSERT_TRUE(encoder_->TryEmbed(*known, known_emb.data()));
  for (size_t j = 0; j < encoder_->dim(); ++j) {
    EXPECT_NEAR(fallback[j], known_emb[j], 1e-5f);  // only 1 known pred
  }
  encoder_->ClearQueryContext();

  // Level 3: global fallback when no query context exists.
  encoder_->FitGlobalFallback({known.get()});
  std::vector<float> global(encoder_->dim());
  encoder_->Embed(*unknown, global.data());
  for (size_t j = 0; j < encoder_->dim(); ++j) {
    EXPECT_NEAR(global[j], known_emb[j], 1e-5f);
  }
}

TEST_F(EncoderFixture, NoFallbackYieldsZero) {
  auto unknown = Pred("mystery_col LIKE '%q%'");
  std::vector<float> out(encoder_->dim(), 5.0f);
  encoder_->Embed(*unknown, out.data());
  for (float v : out) EXPECT_EQ(v, 0.0f);
}

// Hostile-token coverage for the fallback hierarchy: ingestion admits any
// predicate the SQL grammar accepts, so the encoder must absorb degenerate
// token streams without crashing or emitting garbage.

TEST_F(EncoderFixture, EmptyTokenizationPredicateIsHandled) {
  // A literal-only comparison tokenizes to just its operator; a bare literal
  // tokenizes to nothing at all. Neither may crash, and the no-token case
  // must take the fallback path exactly like an OOV predicate.
  auto literal_only = Pred("1");
  EXPECT_TRUE(TokenizePredicate(*literal_only).empty());
  std::vector<float> out(encoder_->dim(), 7.0f);
  EXPECT_FALSE(encoder_->TryEmbed(*literal_only, out.data()));
  for (float v : out) EXPECT_EQ(v, 0.0f);

  // With a fallback available, the empty predicate inherits it.
  auto known = Pred("longitude > 1");
  encoder_->FitGlobalFallback({known.get()});
  std::vector<float> known_emb(encoder_->dim());
  ASSERT_TRUE(encoder_->TryEmbed(*known, known_emb.data()));
  encoder_->Embed(*literal_only, out.data());
  for (size_t j = 0; j < encoder_->dim(); ++j) {
    EXPECT_NEAR(out[j], known_emb[j], 1e-5f);
  }
}

TEST_F(EncoderFixture, AllOovQueryContextFallsThroughToGlobal) {
  // Levels 1 and 2 are both empty when every predicate in the query is OOV;
  // the encoder must keep descending to the global level, not divide by a
  // zero count or reuse stale context.
  // LIKE / IS NULL markers are outside the training vocabulary, so these
  // clauses have no in-vocabulary token at all (a compare op like '=' would
  // anchor them back into the vocab).
  auto oov_a = Pred("ghost_col IS NULL");
  auto oov_b = Pred("phantom_col LIKE '%z%'");
  encoder_->SetQueryContext({oov_a.get(), oov_b.get()});
  std::vector<float> out(encoder_->dim(), 3.0f);
  encoder_->Embed(*oov_a, out.data());
  for (float v : out) EXPECT_EQ(v, 0.0f);  // nothing to fall back on yet

  auto known = Pred("longitude > 1");
  encoder_->FitGlobalFallback({known.get()});
  std::vector<float> known_emb(encoder_->dim());
  ASSERT_TRUE(encoder_->TryEmbed(*known, known_emb.data()));
  encoder_->Embed(*oov_b, out.data());
  for (size_t j = 0; j < encoder_->dim(); ++j) {
    EXPECT_NEAR(out[j], known_emb[j], 1e-5f);
  }
  encoder_->ClearQueryContext();
}

TEST_F(EncoderFixture, GiantTokenIsJustAnotherOovToken) {
  // A 64 KiB column name sails through the SQL grammar (identifiers have no
  // length cap of their own; the plan-text layer bounds total line bytes).
  // The encoder must treat it as a plain OOV token — no crash, no
  // pathological slowdown, and the level-1 fallback still applies.
  const std::string giant(1 << 16, 'z');
  auto monster = Pred(giant + " LIKE '%q%'");  // LIKE marker is OOV too
  std::vector<float> out(encoder_->dim(), 9.0f);
  EXPECT_FALSE(encoder_->TryEmbed(*monster, out.data()));
  for (float v : out) EXPECT_EQ(v, 0.0f);

  auto known = Pred("longitude > 1");
  encoder_->SetQueryContext({known.get(), monster.get()});
  std::vector<float> known_emb(encoder_->dim());
  ASSERT_TRUE(encoder_->TryEmbed(*known, known_emb.data()));
  encoder_->Embed(*monster, out.data());
  for (size_t j = 0; j < encoder_->dim(); ++j) {
    EXPECT_NEAR(out[j], known_emb[j], 1e-5f);
  }
  encoder_->ClearQueryContext();
}

}  // namespace
}  // namespace prestroid::embed
