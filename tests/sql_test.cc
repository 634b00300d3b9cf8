#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "plan/planner.h"
#include "serve/plan_fingerprint.h"
#include "sql/lexer.h"
#include "sql/parser.h"
#include "util/random.h"

namespace prestroid::sql {
namespace {

/// Pulls every token up to and including the first kEnd/kError/kOverLimit.
std::vector<Token> LexAll(std::string_view input,
                          size_t max_tokens = std::numeric_limits<size_t>::max()) {
  Lexer lexer(input, max_tokens);
  std::vector<Token> tokens;
  while (true) {
    tokens.push_back(lexer.Next());
    const TokenType type = tokens.back().type;
    if (type == TokenType::kEnd || type == TokenType::kError ||
        type == TokenType::kOverLimit) {
      return tokens;
    }
  }
}

TEST(LexerTest, KeywordsNormalizedIdentifiersKept) {
  auto tokens = LexAll("select Foo FROM bar_1");
  ASSERT_EQ(tokens.size(), 5u);  // + end
  EXPECT_EQ(tokens[0].type, TokenType::kKeyword);
  EXPECT_TRUE(tokens[0].Is(Keyword::kSelect));
  EXPECT_EQ(tokens[0].text, "select");  // a view of the input as written
  EXPECT_EQ(tokens[1].type, TokenType::kIdentifier);
  EXPECT_EQ(tokens[1].text, "Foo");
  EXPECT_TRUE(tokens[2].Is(Keyword::kFrom));
  EXPECT_EQ(tokens[3].text, "bar_1");
  EXPECT_EQ(tokens[4].type, TokenType::kEnd);
}

TEST(LexerTest, KeywordTableMatchesEveryKeywordInAnyCase) {
  for (int k = 1; k <= static_cast<int>(Keyword::kUnion); ++k) {
    const Keyword kw = static_cast<Keyword>(k);
    const std::string upper = KeywordName(kw);
    std::string lower = upper;
    for (char& c : lower) c = static_cast<char>(c - 'A' + 'a');
    EXPECT_EQ(LookupKeyword(upper), kw) << upper;
    EXPECT_EQ(LookupKeyword(lower), kw) << lower;
    EXPECT_EQ(LookupKeyword(upper + "_"), Keyword::kNone) << upper;
    EXPECT_EQ(LookupKeyword("X" + upper), Keyword::kNone) << upper;
  }
  EXPECT_EQ(LookupKeyword("SELECTS"), Keyword::kNone);
  EXPECT_EQ(LookupKeyword("SELEC7"), Keyword::kNone);
  EXPECT_EQ(LookupKeyword("ORDE"), Keyword::kNone);
  EXPECT_EQ(LookupKeyword("_S"), Keyword::kNone);
  EXPECT_EQ(LookupKeyword("A"), Keyword::kNone);
}

TEST(LexerTest, NumbersAndOperators) {
  auto tokens = LexAll("x >= 3.14 <> != <= .5");
  EXPECT_EQ(tokens[1].text, ">=");
  EXPECT_EQ(tokens[2].text, "3.14");
  EXPECT_EQ(tokens[3].text, "<>");
  EXPECT_EQ(tokens[4].text, "!=");
  EXPECT_EQ(tokens[5].text, "<=");
  EXPECT_EQ(tokens[6].text, ".5");
}

TEST(LexerTest, StringLiteralWithEscape) {
  auto tokens = LexAll("'it''s ok'");
  EXPECT_EQ(tokens[0].type, TokenType::kString);
  EXPECT_EQ(tokens[0].text, "it''s ok");  // escaped until the AST is built
  EXPECT_EQ(UnescapeString(tokens[0].text), "it's ok");
  auto parsed = ParseExpression("s = 'it''s ok'").ValueOrDie();
  EXPECT_EQ(parsed->root().child(1).str(), "it's ok");
}

TEST(LexerTest, UnterminatedStringFails) {
  auto tokens = LexAll("'oops");
  EXPECT_EQ(tokens.back().type, TokenType::kError);
  auto result = ParseExpression("'oops");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kParseError);
}

TEST(LexerTest, UnexpectedCharacterFails) {
  EXPECT_EQ(LexAll("select #").back().type, TokenType::kError);
  EXPECT_EQ(LexAll("a ! b").back().type, TokenType::kError);
  EXPECT_FALSE(ParseSelect("select #").ok());
  EXPECT_FALSE(ParseExpression("a ! b").ok());
}

TEST(LexerTest, CountsTokensAndStopsPastTheBudget) {
  // Three tokens plus kEnd: a budget of 4 admits them, 3 stops at kEnd.
  auto fits = LexAll("a = 1", 4);
  EXPECT_EQ(fits.back().type, TokenType::kEnd);
  auto over = LexAll("a = 1", 3);
  EXPECT_EQ(over.size(), 4u);
  EXPECT_EQ(over.back().type, TokenType::kOverLimit);
  // The stop is sticky and scans nothing further.
  Lexer lexer("a b c d e f", 2);
  lexer.Next();
  lexer.Next();
  EXPECT_EQ(lexer.Next().type, TokenType::kOverLimit);
  EXPECT_EQ(lexer.Next().type, TokenType::kOverLimit);
}

TEST(ParserTest, TokenLimitBoundaryForBothEntryPoints) {
  // The token count includes the final end-of-input token.
  const std::string sql = "SELECT a FROM t WHERE x = 1";  // 8 tokens + end
  ParseLimits limits;
  limits.max_tokens = 9;
  EXPECT_TRUE(ParseSelect(sql, limits).ok());
  limits.max_tokens = 8;
  auto over = ParseSelect(sql, limits);
  ASSERT_FALSE(over.ok());
  EXPECT_EQ(over.status().code(), StatusCode::kResourceExhausted);

  const std::string expr = "a + b * 2 > 3";  // 7 tokens + end
  limits.max_tokens = 8;
  EXPECT_TRUE(ParseExpression(expr, limits).ok());
  limits.max_tokens = 7;
  auto over_expr = ParseExpression(expr, limits);
  ASSERT_FALSE(over_expr.ok());
  EXPECT_EQ(over_expr.status().code(), StatusCode::kResourceExhausted);
}

TEST(ParserTest, ValueNestedToTheDepthLimitParsesStandalone) {
  // 199 parentheses put the innermost factor at depth 200, the limit: the
  // predicate attempt (two frames deeper) fails on depth and the bare-value
  // fallback succeeds. One more parenthesis is over the limit either way.
  auto nested = [](int depth) {
    return std::string(static_cast<size_t>(depth), '(') + "a" +
           std::string(static_cast<size_t>(depth), ')');
  };
  auto fits = ParseExpression(nested(199));
  ASSERT_TRUE(fits.ok()) << fits.status().ToString();
  EXPECT_EQ((*fits)->ToString(), "a");
  auto over = ParseExpression(nested(200));
  ASSERT_FALSE(over.ok());
  EXPECT_EQ(over.status().code(), StatusCode::kResourceExhausted);
}

TEST(ParserTest, LexicalErrorOutranksEarlierGrammarError) {
  // The grammar fails at "FROM" (no select item), but the stray '#' later
  // on decides the code, as does a token budget overrun.
  auto bad = ParseSelect("SELECT FROM t WHERE #");
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kParseError);
  ParseLimits limits;
  limits.max_tokens = 4;
  auto over = ParseSelect("SELECT FROM t WHERE a = 1", limits);
  ASSERT_FALSE(over.ok());
  EXPECT_EQ(over.status().code(), StatusCode::kResourceExhausted);
  // Nesting past the depth limit followed by a lexical error: kParseError.
  std::string deep = "SELECT a FROM t WHERE ";
  for (int i = 0; i < 300; ++i) deep += "(";
  deep += "x = 1 !";
  auto deep_bad = ParseSelect(deep);
  ASSERT_FALSE(deep_bad.ok());
  EXPECT_EQ(deep_bad.status().code(), StatusCode::kParseError);
}

TEST(ParserTest, MinimalSelect) {
  auto stmt = ParseSelect("SELECT * FROM trips").ValueOrDie();
  EXPECT_EQ(stmt->items.size(), 1u);
  EXPECT_EQ(stmt->items[0].expr->root().kind(), ExprKind::kStar);
  EXPECT_EQ(stmt->from.table, "trips");
  EXPECT_EQ(stmt->joins.size(), 0u);
  EXPECT_EQ(stmt->where, nullptr);
}

TEST(ParserTest, WherePredicatePrecedence) {
  auto stmt =
      ParseSelect("SELECT a FROM t WHERE x = 1 OR y = 2 AND z = 3").ValueOrDie();
  // AND binds tighter: OR(x=1, AND(y=2, z=3)).
  ASSERT_NE(stmt->where, nullptr);
  EXPECT_EQ(stmt->where->root().kind(), ExprKind::kOr);
  EXPECT_EQ(stmt->where->root().child(1).kind(), ExprKind::kAnd);
}

TEST(ParserTest, JoinVariants) {
  auto stmt = ParseSelect(
                  "SELECT a.x FROM a JOIN b ON a.id = b.id "
                  "LEFT JOIN c ON b.id = c.id CROSS JOIN d")
                  .ValueOrDie();
  ASSERT_EQ(stmt->joins.size(), 3u);
  EXPECT_EQ(stmt->joins[0].type, JoinType::kInner);
  EXPECT_EQ(stmt->joins[1].type, JoinType::kLeft);
  EXPECT_EQ(stmt->joins[2].type, JoinType::kCross);
  EXPECT_EQ(stmt->joins[2].condition, nullptr);
}

TEST(ParserTest, GroupByHavingOrderLimit) {
  auto stmt = ParseSelect(
                  "SELECT city, COUNT(*) AS n FROM trips GROUP BY city "
                  "HAVING COUNT(*) > 10 ORDER BY n DESC LIMIT 5")
                  .ValueOrDie();
  EXPECT_EQ(stmt->group_by.size(), 1u);
  ASSERT_NE(stmt->having, nullptr);
  ASSERT_EQ(stmt->order_by.size(), 1u);
  EXPECT_TRUE(stmt->order_by[0].descending);
  EXPECT_EQ(stmt->limit.value(), 5);
}

TEST(ParserTest, LimitCountIsACheckedInteger) {
  EXPECT_EQ(ParseSelect("SELECT a FROM t LIMIT 9223372036854775807")
                .ValueOrDie()
                ->limit.value(),
            INT64_MAX);
  // Out of range, fractional or in exponent form: a parse error, never a
  // wrapped or truncated count.
  for (const char* count :
       {"1e300", "9223372036854775808", "1e3", "2.5", ".5", "1E2"}) {
    const std::string sql = std::string("SELECT a FROM t LIMIT ") + count;
    EXPECT_EQ(ParseSelect(sql).status().code(), StatusCode::kParseError)
        << sql;
  }
}

TEST(ParserTest, SubqueryInFrom) {
  auto stmt =
      ParseSelect("SELECT t.c FROM (SELECT x AS c FROM inner_t) AS t")
          .ValueOrDie();
  ASSERT_TRUE(stmt->from.IsSubquery());
  EXPECT_EQ(stmt->from.alias, "t");
  EXPECT_EQ(stmt->from.subquery->from.table, "inner_t");
}

TEST(ParserTest, SubqueryRequiresAlias) {
  EXPECT_FALSE(ParseSelect("SELECT 1 FROM (SELECT x FROM t)").ok());
}

TEST(ParserTest, InBetweenLikeIsNull) {
  auto stmt = ParseSelect(
                  "SELECT a FROM t WHERE a IN (1, 2, 3) AND b BETWEEN 1 AND 9 "
                  "AND c LIKE '%x%' AND d IS NOT NULL")
                  .ValueOrDie();
  ASSERT_NE(stmt->where, nullptr);
  std::string text = stmt->where->ToString();
  EXPECT_NE(text.find("IN (1, 2, 3)"), std::string::npos);
  EXPECT_NE(text.find("BETWEEN 1 AND 9"), std::string::npos);
  EXPECT_NE(text.find("LIKE '%x%'"), std::string::npos);
  EXPECT_NE(text.find("IS NOT NULL"), std::string::npos);
}

TEST(ParserTest, ArithmeticPrecedence) {
  auto expr = ParseExpression("1 + 2 * 3").ValueOrDie();
  EXPECT_EQ(expr->root().kind(), ExprKind::kBinary);
  EXPECT_EQ(expr->root().op(), "+");
  EXPECT_EQ(expr->root().child(1).op(), "*");
}

TEST(ParserTest, NegativeNumbers) {
  auto expr = ParseExpression("x > -5").ValueOrDie();
  EXPECT_EQ(expr->root().child(1).number(), -5.0);
}

TEST(ParserTest, NotPredicate) {
  auto expr = ParseExpression("NOT (a = 1 OR b = 2)").ValueOrDie();
  EXPECT_EQ(expr->root().kind(), ExprKind::kNot);
  EXPECT_EQ(expr->root().child(0).kind(), ExprKind::kOr);
}

TEST(ParserTest, QualifiedColumns) {
  auto expr = ParseExpression("tbl.col = 4").ValueOrDie();
  EXPECT_EQ(expr->root().child(0).table(), "tbl");
  EXPECT_EQ(expr->root().child(0).name(), "col");
}

TEST(ParserTest, AggregateCalls) {
  auto stmt =
      ParseSelect("SELECT SUM(fare), AVG(t.dist), COUNT(*) FROM t").ValueOrDie();
  EXPECT_EQ(stmt->items.size(), 3u);
  EXPECT_EQ(stmt->items[0].expr->root().name(), "SUM");
  EXPECT_EQ(stmt->items[2].expr->root().child(0).kind(), ExprKind::kStar);
}

TEST(ParserTest, ErrorsOnGarbage) {
  EXPECT_FALSE(ParseSelect("SELECT").ok());
  EXPECT_FALSE(ParseSelect("FROM t").ok());
  EXPECT_FALSE(ParseSelect("SELECT a FROM t WHERE").ok());
  EXPECT_FALSE(ParseSelect("SELECT a FROM t JOIN").ok());
  EXPECT_FALSE(ParseSelect("SELECT a FROM t extra garbage !!").ok());
}

// Round-trip property: parse -> ToString -> parse -> ToString is stable.
class RoundTripTest : public ::testing::TestWithParam<const char*> {};

TEST_P(RoundTripTest, ParseToStringFixedPoint) {
  auto first = ParseSelect(GetParam());
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  std::string text1 = (*first)->ToString();
  auto second = ParseSelect(text1);
  ASSERT_TRUE(second.ok()) << second.status().ToString() << "\n" << text1;
  EXPECT_EQ(text1, (*second)->ToString());
}

INSTANTIATE_TEST_SUITE_P(
    Queries, RoundTripTest,
    ::testing::Values(
        "SELECT * FROM t",
        "SELECT a, b AS bb FROM t WHERE a > 1 AND b < 2",
        "SELECT DISTINCT x FROM t ORDER BY x",
        "SELECT t1.a FROM t1 JOIN t2 ON t1.id = t2.id WHERE t2.v IN (1, 2)",
        "SELECT COUNT(*) AS n FROM t GROUP BY c HAVING COUNT(*) > 3 LIMIT 7",
        "SELECT s.c FROM (SELECT a AS c FROM u WHERE a BETWEEN 0 AND 5) AS s",
        "SELECT a FROM t WHERE NOT (x = 1 OR y LIKE '%z%') AND w IS NULL",
        "SELECT a + b * 2 AS v FROM t WHERE a - 1 >= 0",
        "SELECT a FROM t WHERE s = 'it''s' AND u IN ('''', 'x''''y')"));

TEST(ExprTest, EmbeddedQuotePrintsDoubledAndReparses) {
  auto expr = ParseExpression("s = 'it''s'");
  ASSERT_TRUE(expr.ok()) << expr.status().ToString();
  EXPECT_EQ((*expr)->ToString(), "(s = 'it''s')");
  auto again = ParseExpression((*expr)->ToString());
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ((*again)->root().child(1).str(), "it's");
}

TEST(ExprTest, CloneIsIndependentOfItsSource) {
  auto expr = ParseExpression("a = 1 AND t.b = 'x'").ValueOrDie();
  const std::string text = expr->ToString();
  auto copy = expr->Clone();
  auto right = expr->root().child(1).Clone();
  // Write every field a setter reaches, then drop the source.
  const ExprRef left = expr->root().child(0);
  expr->SetNumber(left.child(1).index(), 99);
  expr->SetName(left.child(0).index(), "zz");
  expr->SetTable(expr->root().child(1).child(0).index(), "u");
  expr->SetString(expr->root().child(1).child(1).index(), "y");
  expr->SetOp(left.index(), "<>");
  EXPECT_EQ(expr->ToString(), "((zz <> 99) AND (u.b = 'y'))");
  expr.reset();
  EXPECT_EQ(copy->root().child(0).child(1).number(), 1.0);
  EXPECT_EQ(copy->ToString(), text);
  EXPECT_EQ(right->ToString(), "(t.b = 'x')");
  EXPECT_EQ(right->nodes().size(), 3u);
}

TEST(ExprTest, ParsedExpressionOwnsExactlySizedBuffers) {
  // The Expr object, its record array and its byte buffer: each buffer is
  // one allocation of exactly its contents, whatever the parse grew.
  auto stmt = ParseSelect(
                  "SELECT a FROM t WHERE a_long_column_name IN (1, 2, 3, 4, 5, "
                  "6, 7, 8, 9) AND another_column LIKE 'some long pattern%'")
                  .ValueOrDie();
  for (const Expr* expr : {stmt->where.get(), stmt->items[0].expr.get()}) {
    EXPECT_EQ(expr->nodes().capacity(), expr->nodes().size());
    EXPECT_GE(expr->bytes().capacity(), expr->bytes().size());
    EXPECT_LE(expr->bytes().capacity(),
              std::max<size_t>(expr->bytes().size(), 15));
  }
  EXPECT_EQ(stmt->where->nodes().size(), 15u);
}

TEST(ExprTest, SplitConjunctPrintsAsInsideItsParent) {
  auto where =
      ParseExpression(
          "(a.x > 1 AND s LIKE 'p''q%') AND (b.y IN (1, 2, 3) OR c IS NOT "
          "NULL) AND SUM(d) - -2.5 BETWEEN 0 AND 9 AND NOT e.f = 'g'")
          .ValueOrDie();
  std::vector<std::string> inside;
  std::vector<ExprRef> stack = {where->root()};
  while (!stack.empty()) {
    const ExprRef node = stack.back();
    stack.pop_back();
    if (node.kind() != ExprKind::kAnd) {
      inside.push_back(node.ToString());
      continue;
    }
    stack.push_back(node.child(1));
    stack.push_back(node.child(0));
  }
  const std::vector<ExprPtr> parts = plan::SplitConjuncts(*where);
  ASSERT_EQ(parts.size(), inside.size());
  ASSERT_EQ(parts.size(), 5u);
  for (size_t i = 0; i < parts.size(); ++i) {
    EXPECT_EQ(parts[i]->ToString(), inside[i]) << i;
    // A part holds its own subtree's records and bytes, nothing more.
    EXPECT_EQ(parts[i]->root().index() + 1, parts[i]->nodes().size());
    EXPECT_LE(parts[i]->bytes().size(), inside[i].size());
  }
}

TEST(ExprTest, MakeBuiltExpressionsReparseToTheSameText) {
  std::vector<ExprPtr> built;
  built.push_back(MakeCompare("<=", MakeColumn("t", "a"), MakeNumber(-3.25)));
  built.push_back(MakeAnd(
      MakeOr(MakeLike(MakeColumn("", "name"), MakeString("its%")),
             MakeIsNull(MakeColumn("u", "v"), /*negated=*/true)),
      MakeNot(MakeIsNull(MakeColumn("", "w"), /*negated=*/false))));
  std::vector<ExprPtr> values;
  values.push_back(MakeNumber(1));
  values.push_back(MakeString("two"));
  values.push_back(MakeNull());
  built.push_back(MakeIn(MakeColumn("", "k"), std::move(values)));
  built.push_back(MakeBetween(
      MakeBinary("*", MakeColumn("", "p"), MakeNumber(2)), MakeNumber(0.5),
      MakeBinary("+", MakeNumber(10), MakeColumn("q", "r"))));
  std::vector<ExprPtr> args;
  args.push_back(MakeStar());
  built.push_back(MakeCompare(">", MakeFuncCall("COUNT", std::move(args)),
                              MakeFuncCall("now", {})));
  for (const ExprPtr& expr : built) {
    const std::string text = expr->ToString();
    auto reparsed = ParseExpression(text);
    ASSERT_TRUE(reparsed.ok()) << text << ": " << reparsed.status().ToString();
    EXPECT_EQ((*reparsed)->ToString(), text);
    EXPECT_EQ((*reparsed)->nodes().size(), expr->nodes().size()) << text;
  }
  EXPECT_EQ(built[0]->ToString(), "(t.a <= -3.25)");
  EXPECT_EQ(built[2]->ToString(), "k IN (1, 'two', NULL)");
}

TEST(ExprTest, DeepNestedPredicateParsesClonesPrintsAndFingerprints) {
  // A right-nested conjunction 200 levels deep, and the same chain of 200
  // NOTs; the parse budget admits both.
  constexpr int kDepth = 200;
  std::string nested;
  for (int i = 0; i < kDepth; ++i) {
    nested += "(c" + std::to_string(i) + " = " + std::to_string(i) + " AND ";
  }
  nested += "z = 'end'";
  nested.append(kDepth, ')');
  std::string nots;
  for (int i = 0; i < kDepth; ++i) nots += "NOT ";
  nots += "z IS NULL";
  const ParseLimits limits{100000, 4 * kDepth + 8};
  for (const std::string& text : {nested, nots}) {
    auto parsed = ParseExpression(text, limits);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    ExprPtr expr = std::move(parsed).value();
    EXPECT_EQ(expr->nodes().back().size, expr->nodes().size());
    const ExprPtr copy = expr->Clone();
    const std::string printed = copy->ToString();
    auto reparsed = ParseExpression(printed, limits);
    ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
    EXPECT_EQ((*reparsed)->ToString(), printed);
    const uint64_t fingerprint =
        serve::FingerprintPlan(*plan::MakeFilter(std::move(expr),
                                                 plan::MakeTableScan("t")));
    EXPECT_EQ(serve::FingerprintPlan(*plan::MakeFilter(
                  std::move(reparsed).value(), plan::MakeTableScan("t"))),
              fingerprint);
  }
}

// --- Fuzz-style robustness: the parser must return a Status on arbitrary
// byte garbage, never crash, hang, or abort. -------------------------------

TEST(ParserFuzzTest, RandomByteStringsNeverCrash) {
  Rng rng(20260806);
  for (int round = 0; round < 2000; ++round) {
    const size_t length = static_cast<size_t>(rng.UniformInt(0, 120));
    std::string input;
    input.reserve(length);
    for (size_t i = 0; i < length; ++i) {
      input.push_back(static_cast<char>(rng.UniformInt(0, 255)));
    }
    auto select = ParseSelect(input);
    if (!select.ok()) {
      EXPECT_EQ(select.status().code(), StatusCode::kParseError) << input;
    }
    auto expr = ParseExpression(input);
    if (!expr.ok()) {
      EXPECT_EQ(expr.status().code(), StatusCode::kParseError) << input;
    }
  }
}

TEST(ParserFuzzTest, PrintableGarbageIsRejectedNotCrashed) {
  Rng rng(7);
  const std::string alphabet =
      "SELECTFROMWHEREJOINGROUPBYORDER()*,.<>=!'\"%+-/ 0123456789abcxyz_";
  for (int round = 0; round < 2000; ++round) {
    const size_t length = static_cast<size_t>(rng.UniformInt(1, 80));
    std::string input;
    input.reserve(length);
    for (size_t i = 0; i < length; ++i) {
      input.push_back(
          alphabet[static_cast<size_t>(rng.UniformInt(0, alphabet.size() - 1))]);
    }
    auto select = ParseSelect(input);
    if (!select.ok()) {
      EXPECT_EQ(select.status().code(), StatusCode::kParseError) << input;
    }
  }
}

TEST(ParserFuzzTest, TruncatedValidQueriesReturnStatus) {
  const std::string queries[] = {
      "SELECT t1.a FROM t1 JOIN t2 ON t1.id = t2.id WHERE t2.v IN (1, 2)",
      "SELECT COUNT(*) AS n FROM t GROUP BY c HAVING COUNT(*) > 3 LIMIT 7",
      "SELECT s.c FROM (SELECT a AS c FROM u WHERE a BETWEEN 0 AND 5) AS s",
      "SELECT a FROM t WHERE NOT (x = 1 OR y LIKE '%z%') AND w IS NULL"};
  for (const std::string& query : queries) {
    for (size_t cut = 0; cut < query.size(); ++cut) {
      // A truncated prefix may still be valid SQL; what it must never do is
      // crash, and every failure must be a typed ParseError.
      auto result = ParseSelect(query.substr(0, cut));
      if (!result.ok()) {
        EXPECT_EQ(result.status().code(), StatusCode::kParseError)
            << query.substr(0, cut);
      }
    }
  }
}

TEST(ParserFuzzTest, DeeplyNestedInputDoesNotOverflow) {
  // 200 levels of parenthesis nesting exceeds the default recursion budget:
  // the parser must reject with kResourceExhausted, not smash the stack.
  std::string deep = "SELECT a FROM t WHERE ";
  for (int i = 0; i < 200; ++i) deep += "(";
  deep += "x = 1";
  for (int i = 0; i < 200; ++i) deep += ")";
  auto result = ParseSelect(deep);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);

  // The same input parses once the caller raises the depth budget.
  ParseLimits relaxed;
  relaxed.max_depth = 1000;
  auto relaxed_result = ParseSelect(deep, relaxed);
  ASSERT_TRUE(relaxed_result.ok()) << relaxed_result.status().ToString();
}

TEST(ParserFuzzTest, TokenBombRejectedBeforeParse) {
  std::string sql = "SELECT a FROM t WHERE x IN (";
  ParseLimits tight;
  tight.max_tokens = 64;
  for (int i = 0; i < 100; ++i) sql += "1, ";
  sql += "2)";
  auto result = ParseSelect(sql, tight);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
}

}  // namespace
}  // namespace prestroid::sql
