// Safety net for the parsing front end (SQL lexer/parser, plan text, trace
// ingest): round-trip properties over mutated and generated plans, and
// pinned digests of every parse outcome over the fuzz corpora. A rewrite of
// any parser must leave each digest unchanged — same AST, same plan tree,
// same PlanToText, same FingerprintPlan and same StatusCode on every input.
// Error message text is deliberately not hashed.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "plan/plan_stats.h"
#include "plan/plan_text.h"
#include "plan/planner.h"
#include "serve/ingest_fuzz.h"
#include "serve/plan_fingerprint.h"
#include "sql/parser.h"
#include "test_corpus.h"
#include "util/random.h"
#include "workload/dataset.h"
#include "workload/trace.h"

namespace prestroid {
namespace {

using test::Digest;
using test::GrabCorpus;
using test::Hex;
using test::TpcdsCorpus;
using test::TraceCorpus;

/// Folds one plan-text parse outcome: status code, and for a parsed plan its
/// canonical text and fingerprint.
void AddPlanOutcome(std::string_view text, const plan::PlanLimits& limits,
                    Digest* digest) {
  auto parsed = plan::ParsePlanText(std::string(text), limits);
  digest->AddCode(parsed.status());
  if (!parsed.ok()) return;
  digest->Add(plan::PlanToText(**parsed));
  digest->Add(serve::FingerprintPlan(**parsed));
}

/// Folds both SQL entry points' outcomes on `input`.
void AddSqlOutcome(const std::string& input, Digest* digest) {
  auto select = sql::ParseSelect(input);
  digest->AddCode(select.status());
  if (select.ok()) digest->Add((*select)->ToString());
  auto expr = sql::ParseExpression(input);
  digest->AddCode(expr.status());
  if (expr.ok()) digest->Add((*expr)->ToString());
}

uint64_t PlanFuzzDigest(uint64_t seed_begin, uint64_t seed_end) {
  const plan::PlanLimits limits;
  Digest digest;
  for (uint64_t seed = seed_begin; seed < seed_end; ++seed) {
    const std::string base = serve::FuzzBasePlanText(seed);
    AddPlanOutcome(base, limits, &digest);
    AddPlanOutcome(serve::MutatePlanText(base, seed), limits, &digest);
  }
  return digest.value();
}

// --- Round trips ----------------------------------------------------------

/// True for a plan with a Filter whose predicate a mutation dropped.
bool HasPredicatelessFilter(const plan::PlanNode& root) {
  bool found = false;
  plan::VisitPlan(root, [&](const plan::PlanNode& node) {
    if (node.type == plan::PlanNodeType::kFilter && node.predicate == nullptr) {
      found = true;
    }
  });
  return found;
}

TEST(ParseRoundTripTest, MutatedPlansAreTextFixedPoints) {
  // PlanToText . ParsePlanText is the identity on the text of any plan,
  // including plans MutatePlanField rewrote field by field. The one plan
  // the text form cannot express, a Filter without a predicate, prints as
  // "Filter []" and is rejected as a parse error.
  const TraceCorpus& grab = GrabCorpus();
  std::set<std::string> tables;
  std::set<std::string> columns;
  for (const workload::QueryRecord& record : grab.records) {
    plan::VisitPlan(*record.plan, [&](const plan::PlanNode& node) {
      if (node.type == plan::PlanNodeType::kTableScan) tables.insert(node.table);
      if (node.predicate == nullptr) return;
      std::vector<std::pair<std::string, std::string>> refs;
      plan::CollectColumnRefs(*node.predicate, &refs);
      for (const auto& ref : refs) columns.insert(ref.second);
    });
  }
  serve::FieldMutationPool pool;
  pool.tables.assign(tables.begin(), tables.end());
  pool.columns.assign(columns.begin(), columns.end());

  std::vector<plan::PlanNodePtr> bases;
  for (uint64_t seed = 0; seed < 40; ++seed) {
    bases.push_back(
        plan::ParsePlanText(serve::FuzzBasePlanText(seed)).ValueOrDie());
  }
  for (size_t i = 0; i < 30; ++i) bases.push_back(grab.records[i].plan->Clone());

  size_t mutants = 0;
  size_t predicateless = 0;
  for (size_t b = 0; b < bases.size(); ++b) {
    for (serve::PlanField field : serve::kAllPlanFields) {
      for (uint64_t variant = 0; variant < 2; ++variant) {
        const plan::PlanNodePtr mutant =
            serve::MutatePlanField(*bases[b], field, b * 2 + variant, pool);
        if (mutant == nullptr) continue;
        ++mutants;
        const std::string where = std::string(serve::PlanFieldToString(field)) +
                                  " on base " + std::to_string(b);
        const std::string text = plan::PlanToText(*mutant);
        if (HasPredicatelessFilter(*mutant)) {
          ++predicateless;
          EXPECT_NE(text.find("Filter []"), std::string::npos) << where;
          EXPECT_EQ(plan::ParsePlanText(text).status().code(),
                    StatusCode::kParseError)
              << where << "\n" << text;
          continue;
        }
        auto parsed = plan::ParsePlanText(text);
        ASSERT_TRUE(parsed.ok()) << where << ": " << parsed.status().ToString()
                                 << "\n" << text;
        EXPECT_EQ(plan::PlanToText(**parsed), text) << where;
        auto again = plan::ParsePlanText(plan::PlanToText(**parsed));
        ASSERT_TRUE(again.ok()) << where;
        EXPECT_EQ(serve::FingerprintPlan(**again),
                  serve::FingerprintPlan(**parsed))
            << where;
      }
    }
  }
  EXPECT_GT(mutants, 1000u);
  EXPECT_GT(predicateless, 0u);
}

void ExpectSqlPlanTextPlanStable(const TraceCorpus& corpus) {
  plan::Planner planner(&corpus.schema.catalog);
  for (const workload::QueryRecord& record : corpus.records) {
    auto stmt = sql::ParseSelect(record.sql);
    ASSERT_TRUE(stmt.ok()) << stmt.status().ToString() << "\n" << record.sql;
    // The AST prints back to SQL that parses to the same AST.
    const std::string canonical = (*stmt)->ToString();
    auto reparsed = sql::ParseSelect(canonical);
    ASSERT_TRUE(reparsed.ok()) << canonical;
    EXPECT_EQ((*reparsed)->ToString(), canonical);

    auto planned = planner.Plan(**stmt);
    ASSERT_TRUE(planned.ok()) << planned.status().ToString();
    const std::string text = plan::PlanToText(**planned);
    EXPECT_EQ(text, plan::PlanToText(*record.plan)) << record.sql;
    auto parsed = plan::ParsePlanText(text);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString() << "\n" << text;
    EXPECT_EQ(plan::PlanToText(**parsed), text) << record.sql;
    EXPECT_EQ(serve::FingerprintPlan(**parsed),
              serve::FingerprintPlan(**planned))
        << record.sql;
  }
}

TEST(ParseRoundTripTest, GrabSqlToPlanToTextToPlanIsStable) {
  ExpectSqlPlanTextPlanStable(GrabCorpus());
}

TEST(ParseRoundTripTest, TpcdsSqlToPlanToTextToPlanIsStable) {
  ExpectSqlPlanTextPlanStable(TpcdsCorpus());
}

// --- Pinned parse-outcome digests ----------------------------------------
//
// Each digest folds (StatusCode, PlanToText or ToString, FingerprintPlan)
// of every input of one corpus. The values were recorded with the
// vector-of-tokens lexer and the line-splitting plan parser; the parsers
// must reproduce them exactly.

TEST(ParseDigestTest, PlanFuzzMutationSweep) {
  // The PlanFuzzTest.MutationSweepNeverCrashes corpus.
  const uint64_t digest = PlanFuzzDigest(0, 256);
  EXPECT_EQ(Hex(digest), "0x793adba80c7d70e5");
}

TEST(ParseDigestTest, FuzzIngestSeeds) {
  // The fuzz_ingest campaign's first thousand seeds.
  const uint64_t digest = PlanFuzzDigest(0, 1000);
  EXPECT_EQ(Hex(digest), "0xd3abc10bf2618f3f");
}

TEST(ParseDigestTest, SqlRandomBytes) {
  Rng rng(20260806);
  Digest digest;
  for (int round = 0; round < 2000; ++round) {
    const size_t length = static_cast<size_t>(rng.UniformInt(0, 120));
    std::string input;
    for (size_t i = 0; i < length; ++i) {
      input.push_back(static_cast<char>(rng.UniformInt(0, 255)));
    }
    AddSqlOutcome(input, &digest);
  }
  EXPECT_EQ(Hex(digest.value()), "0xce5f9d0b0ca6a7e8");
}

TEST(ParseDigestTest, SqlPrintableGarbage) {
  Rng rng(7);
  const std::string alphabet =
      "SELECTFROMWHEREJOINGROUPBYORDER()*,.<>=!'\"%+-/ 0123456789abcxyz_";
  Digest digest;
  for (int round = 0; round < 4000; ++round) {
    const size_t length = static_cast<size_t>(rng.UniformInt(1, 80));
    std::string input;
    for (size_t i = 0; i < length; ++i) {
      input.push_back(
          alphabet[static_cast<size_t>(rng.UniformInt(0, alphabet.size() - 1))]);
    }
    AddSqlOutcome(input, &digest);
  }
  EXPECT_EQ(Hex(digest.value()), "0x311293d3d4972980");
}

TEST(ParseDigestTest, SqlTruncations) {
  std::vector<std::string> queries = {
      "SELECT t1.a FROM t1 JOIN t2 ON t1.id = t2.id WHERE t2.v IN (1, 2)",
      "SELECT COUNT(*) AS n FROM t GROUP BY c HAVING COUNT(*) > 3 LIMIT 7",
      "SELECT s.c FROM (SELECT a AS c FROM u WHERE a BETWEEN 0 AND 5) AS s",
      "SELECT a FROM t WHERE NOT (x = 1 OR y LIKE '%z%') AND w IS NULL",
      "SELECT DISTINCT a.x, -b.y * 2.5e3 AS z FROM t AS a LEFT OUTER JOIN u b "
      "ON (a.k = b.k AND a.s <> 'it''s') CROSS JOIN v WHERE a.q != .5 ORDER "
      "BY z DESC, a.x ASC LIMIT 10"};
  for (size_t i = 0; i < 8; ++i) queries.push_back(GrabCorpus().records[i].sql);
  for (size_t i = 0; i < 8; ++i) queries.push_back(TpcdsCorpus().records[i].sql);
  Digest digest;
  for (const std::string& query : queries) {
    for (size_t cut = 0; cut <= query.size(); ++cut) {
      AddSqlOutcome(query.substr(0, cut), &digest);
      AddSqlOutcome(query.substr(cut), &digest);
    }
  }
  EXPECT_EQ(Hex(digest.value()), "0xba44a14ad181b8c1");
}

TEST(ParseDigestTest, SqlNesting) {
  Digest digest;
  for (int depth = 0; depth <= 260; depth += 7) {
    const std::string open(static_cast<size_t>(depth), '(');
    const std::string close(static_cast<size_t>(depth), ')');
    AddSqlOutcome("SELECT a FROM t WHERE " + open + "x = 1" + close, &digest);
    AddSqlOutcome(open + "x = 1" + close, &digest);
    AddSqlOutcome(open + "a + 1" + close + " = 2", &digest);
    AddSqlOutcome("SELECT " + open + "a" + close + " FROM t", &digest);
    AddSqlOutcome("SELECT a FROM t WHERE " + open + "x = 1", &digest);
    std::string nots;
    for (int i = 0; i < depth; ++i) nots += "NOT ";
    AddSqlOutcome(nots + "x = 1", &digest);
    std::string subquery = "SELECT a FROM t";
    for (int i = 0; i < depth / 7; ++i) {
      subquery = "SELECT a FROM (" + subquery + ") AS s" + std::to_string(i);
    }
    AddSqlOutcome(subquery, &digest);
  }
  EXPECT_EQ(Hex(digest.value()), "0x162b917cd72fdcba");
}

// --- Tolerant ingest on hostile traces -----------------------------------

TEST(ParseDigestTest, TolerantIngestOfHostileTraces) {
  // Quarantine reasons, counts, the quarantine log's lines and every
  // accepted record must be unchanged by a parser rewrite.
  const std::string log_path = ::testing::TempDir() + "/parse_safety_q.log";
  Digest digest;
  workload::IngestStats totals;
  for (const std::string& trace : test::HostileTraces()) {
    std::remove(log_path.c_str());
    workload::IngestOptions options;
    options.quarantine_path = log_path;
    auto ingested = workload::IngestTraceTolerant(trace, options);
    ASSERT_TRUE(ingested.ok()) << ingested.status().ToString();
    digest.Add(ingested->stats.Summary());
    for (const workload::QueryRecord& record : ingested->records) {
      digest.Add(static_cast<uint64_t>(record.id));
      digest.Add(record.sql);
      digest.Add(plan::PlanToText(*record.plan));
    }
    std::ifstream in(log_path);
    std::stringstream log;
    log << in.rdbuf();
    digest.Add(log.str());
    digest.AddCode(workload::DeserializeTrace(trace).status());
    totals.accepted += ingested->stats.accepted;
    totals.quarantined += ingested->stats.quarantined;
    for (size_t r = 0; r < totals.by_reason.size(); ++r) {
      totals.by_reason[r] += ingested->stats.by_reason[r];
    }
  }
  std::remove(log_path.c_str());
  EXPECT_EQ(totals.Summary(),
            "accepted=779 quarantined=147 (malformed-header=51 "
            "truncated-record=6 malformed-plan=56 over-limit-plan=12 "
            "nan-label=11 negative-label=11)");
  EXPECT_EQ(Hex(digest.value()), "0x32e0b0b7a1eaa509");
}

// --- Checking without building --------------------------------------------
//
// serve's ingest checks each plan (plan::CheckPlanText, sql::CheckExpression)
// instead of building it, so a check must reach the parse's verdict, with
// the same message, on every input.

/// Expects CheckPlanText to give ParsePlanText's Status on `text`, and on
/// success the parsed tree's node count; counts the outcome in `codes`.
void ExpectPlanCheckAgrees(const std::string& text,
                           const plan::PlanLimits& limits,
                           std::set<StatusCode>* codes) {
  auto parsed = plan::ParsePlanText(text, limits);
  auto checked = plan::CheckPlanText(text, limits);
  codes->insert(parsed.status().code());
  ASSERT_EQ(checked.status().ToString(), parsed.status().ToString()) << text;
  if (parsed.ok()) {
    EXPECT_EQ(*checked, plan::ComputePlanStats(**parsed).node_count) << text;
  }
}

TEST(CheckParityTest, PlanTextCheckGivesTheParseVerdictAndNodeCount) {
  // The fuzz_ingest seeds under the default limits and under limits tight
  // enough that the corpus crosses each of them.
  plan::PlanLimits tight;
  tight.max_nodes = 12;
  tight.max_depth = 5;
  tight.max_predicate_tokens = 20;
  tight.max_predicate_depth = 4;
  tight.max_line_bytes = 120;
  std::set<StatusCode> codes;
  for (uint64_t seed = 0; seed < 1000; ++seed) {
    const std::string base = serve::FuzzBasePlanText(seed);
    const std::string mutated = serve::MutatePlanText(base, seed);
    for (const plan::PlanLimits& limits : {plan::PlanLimits(), tight}) {
      ExpectPlanCheckAgrees(base, limits, &codes);
      ExpectPlanCheckAgrees(mutated, limits, &codes);
    }
  }
  for (const TraceCorpus* corpus : {&GrabCorpus(), &TpcdsCorpus()}) {
    for (const workload::QueryRecord& record : corpus->records) {
      ExpectPlanCheckAgrees(plan::PlanToText(*record.plan), tight, &codes);
    }
  }
  EXPECT_EQ(codes, (std::set<StatusCode>{StatusCode::kOk,
                                         StatusCode::kInvalidArgument,
                                         StatusCode::kParseError,
                                         StatusCode::kResourceExhausted}));
}

TEST(CheckParityTest, ExpressionCheckGivesTheParseVerdict) {
  std::set<StatusCode> codes;
  auto expect_agrees = [&](const std::string& input,
                           const sql::ParseLimits& limits) {
    const Status parsed = sql::ParseExpression(input, limits).status();
    codes.insert(parsed.code());
    EXPECT_EQ(sql::CheckExpression(input, limits).ToString(),
              parsed.ToString())
        << input;
  };
  const sql::ParseLimits tight{16, 5};
  Rng rng(11);
  const std::string alphabet =
      "ANDORNOTINLIKEBETWEENISNULL()*,.<>=!'%+-/ 0123456789abcxyz_";
  for (int round = 0; round < 4000; ++round) {
    const size_t length = static_cast<size_t>(rng.UniformInt(1, 60));
    std::string input;
    for (size_t i = 0; i < length; ++i) {
      input.push_back(
          alphabet[static_cast<size_t>(rng.UniformInt(0, alphabet.size() - 1))]);
    }
    expect_agrees(input, sql::ParseLimits());
    expect_agrees(input, tight);
  }
  // Every prefix and suffix of predicates and values that parse.
  for (const std::string& expr :
       {std::string("(a.k = b.k AND a.s <> 'it''s') OR NOT (x IN (1, 2))"),
        std::string("SUM(t.fare * (1 - t.discount)) / 100"),
        std::string("c BETWEEN -2.5e3 AND .5 AND d LIKE '%z%' AND e IS NULL")}) {
    for (size_t cut = 0; cut <= expr.size(); ++cut) {
      for (const sql::ParseLimits& limits : {sql::ParseLimits(), tight}) {
        expect_agrees(expr.substr(0, cut), limits);
        expect_agrees(expr.substr(cut), limits);
      }
    }
  }
  EXPECT_EQ(codes, (std::set<StatusCode>{StatusCode::kOk,
                                         StatusCode::kParseError,
                                         StatusCode::kResourceExhausted}));
}

}  // namespace
}  // namespace prestroid
