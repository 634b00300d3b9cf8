#include <gtest/gtest.h>

#include "plan/catalog.h"
#include "plan/plan_stats.h"
#include "plan/plan_text.h"
#include "plan/planner.h"
#include "sql/parser.h"

namespace prestroid::plan {
namespace {

Catalog TestCatalog() {
  Catalog catalog;
  TableDef trips;
  trips.name = "trips";
  trips.row_count = 1e6;
  trips.columns = {{"id", ColumnType::kInt, 1e6, 0, 1e6},
                   {"fare", ColumnType::kDouble, 1e4, 0, 500},
                   {"city", ColumnType::kString, 30, 0, 30}};
  TableDef drivers;
  drivers.name = "drivers";
  drivers.row_count = 5e4;
  drivers.columns = {{"id", ColumnType::kInt, 5e4, 0, 5e4},
                     {"rating", ColumnType::kDouble, 100, 0, 5}};
  EXPECT_TRUE(catalog.AddTable(trips).ok());
  EXPECT_TRUE(catalog.AddTable(drivers).ok());
  return catalog;
}

PlanNodePtr PlanQuery(const Catalog& catalog, const std::string& sql,
                      PlannerOptions options = {}) {
  auto stmt = sql::ParseSelect(sql);
  EXPECT_TRUE(stmt.ok()) << stmt.status().ToString();
  Planner planner(&catalog, options);
  auto plan = planner.Plan(**stmt);
  EXPECT_TRUE(plan.ok()) << plan.status().ToString();
  return std::move(plan).value();
}

TEST(CatalogTest, AddAndLookup) {
  Catalog catalog = TestCatalog();
  EXPECT_TRUE(catalog.HasTable("trips"));
  EXPECT_FALSE(catalog.HasTable("nope"));
  auto table = catalog.GetTable("trips");
  ASSERT_TRUE(table.ok());
  EXPECT_EQ((*table)->columns.size(), 3u);
  EXPECT_FALSE(catalog.GetTable("nope").ok());
}

TEST(CatalogTest, DuplicateRejected) {
  Catalog catalog = TestCatalog();
  TableDef dup;
  dup.name = "trips";
  EXPECT_EQ(catalog.AddTable(dup).code(), StatusCode::kAlreadyExists);
}

TEST(CatalogTest, ResolveColumn) {
  Catalog catalog = TestCatalog();
  auto owner = catalog.ResolveColumn("rating", {"trips", "drivers"});
  ASSERT_TRUE(owner.ok());
  EXPECT_EQ(*owner, "drivers");
  EXPECT_FALSE(catalog.ResolveColumn("missing", {"trips"}).ok());
}

TEST(PlannerTest, SimpleScanShape) {
  Catalog catalog = TestCatalog();
  PlannerOptions options;
  options.insert_exchanges = false;
  PlanNodePtr plan = PlanQuery(catalog, "SELECT * FROM trips", options);
  EXPECT_EQ(plan->type, PlanNodeType::kTableScan);
  EXPECT_EQ(plan->table, "trips");
}

TEST(PlannerTest, PredicatePushdownSingleTable) {
  Catalog catalog = TestCatalog();
  PlannerOptions options;
  options.insert_exchanges = false;
  PlanNodePtr plan = PlanQuery(
      catalog,
      "SELECT t.fare FROM trips t JOIN drivers d ON t.id = d.id "
      "WHERE t.fare > 10 AND d.rating > 4 AND t.fare + d.rating > 11",
      options);
  // Top: Project -> Filter (multi-table residual) -> Join.
  EXPECT_EQ(plan->type, PlanNodeType::kProject);
  const PlanNode* filter = plan->children[0].get();
  EXPECT_EQ(filter->type, PlanNodeType::kFilter);
  const PlanNode* join = filter->children[0].get();
  ASSERT_EQ(join->type, PlanNodeType::kJoin);
  // Each side has a pushed-down single-table filter over its scan.
  EXPECT_EQ(join->children[0]->type, PlanNodeType::kFilter);
  EXPECT_EQ(join->children[0]->children[0]->type, PlanNodeType::kTableScan);
  EXPECT_EQ(join->children[1]->type, PlanNodeType::kFilter);
}

TEST(PlannerTest, PushdownDisabledKeepsFiltersOnTop) {
  Catalog catalog = TestCatalog();
  PlannerOptions options;
  options.insert_exchanges = false;
  options.predicate_pushdown = false;
  PlanNodePtr plan = PlanQuery(
      catalog,
      "SELECT t.fare FROM trips t JOIN drivers d ON t.id = d.id "
      "WHERE t.fare > 10",
      options);
  const PlanNode* filter = plan->children[0].get();
  EXPECT_EQ(filter->type, PlanNodeType::kFilter);
  EXPECT_EQ(filter->children[0]->type, PlanNodeType::kJoin);
}

TEST(PlannerTest, ExchangesInserted) {
  Catalog catalog = TestCatalog();
  PlanNodePtr plan = PlanQuery(
      catalog, "SELECT t.fare FROM trips t JOIN drivers d ON t.id = d.id");
  EXPECT_EQ(plan->type, PlanNodeType::kExchange);
  EXPECT_EQ(plan->exchange_kind, ExchangeKind::kGather);
  PlanStats stats = ComputePlanStats(*plan);
  EXPECT_EQ(stats.count(PlanNodeType::kExchange), 3u);  // gather + 2 reps
}

TEST(PlannerTest, AggregationShape) {
  Catalog catalog = TestCatalog();
  PlannerOptions options;
  options.insert_exchanges = false;
  PlanNodePtr plan = PlanQuery(
      catalog,
      "SELECT city, COUNT(*) AS n FROM trips GROUP BY city HAVING COUNT(*) > 2",
      options);
  // Filter(HAVING) -> Aggregate -> Scan.
  EXPECT_EQ(plan->type, PlanNodeType::kFilter);
  const PlanNode* agg = plan->children[0].get();
  ASSERT_EQ(agg->type, PlanNodeType::kAggregate);
  EXPECT_EQ(agg->group_keys.size(), 1u);
  EXPECT_EQ(agg->expressions.size(), 1u);
}

TEST(PlannerTest, SortLimitDistinct) {
  Catalog catalog = TestCatalog();
  PlannerOptions options;
  options.insert_exchanges = false;
  PlanNodePtr plan = PlanQuery(
      catalog, "SELECT DISTINCT city FROM trips ORDER BY city DESC LIMIT 3",
      options);
  EXPECT_EQ(plan->type, PlanNodeType::kLimit);
  EXPECT_EQ(plan->limit, 3);
  const PlanNode* sort = plan->children[0].get();
  ASSERT_EQ(sort->type, PlanNodeType::kSort);
  ASSERT_EQ(sort->sort_descending.size(), 1u);
  EXPECT_TRUE(sort->sort_descending[0]);
  EXPECT_EQ(sort->children[0]->type, PlanNodeType::kDistinct);
}

TEST(PlannerTest, SubqueryPlansRecursively) {
  Catalog catalog = TestCatalog();
  PlannerOptions options;
  options.insert_exchanges = false;
  PlanNodePtr plan = PlanQuery(
      catalog,
      "SELECT s.f FROM (SELECT fare AS f FROM trips WHERE fare > 1) AS s "
      "WHERE s.f < 100",
      options);
  PlanStats stats = ComputePlanStats(*plan);
  EXPECT_EQ(stats.count(PlanNodeType::kTableScan), 1u);
  EXPECT_GE(stats.count(PlanNodeType::kFilter), 2u);
}

TEST(PlannerTest, UnknownTableFails) {
  Catalog catalog = TestCatalog();
  auto stmt = sql::ParseSelect("SELECT * FROM nonexistent");
  Planner planner(&catalog);
  EXPECT_EQ(planner.Plan(**stmt).status().code(), StatusCode::kNotFound);
}

TEST(PlannerTest, UnknownColumnFails) {
  Catalog catalog = TestCatalog();
  auto stmt = sql::ParseSelect("SELECT a FROM trips WHERE nope = 1");
  Planner planner(&catalog);
  EXPECT_FALSE(planner.Plan(**stmt).ok());
}

TEST(SplitConjunctsTest, FlattensNestedAnds) {
  auto expr = sql::ParseExpression("a = 1 AND (b = 2 AND c = 3) AND d = 4")
                  .ValueOrDie();
  auto parts = SplitConjuncts(*expr);
  EXPECT_EQ(parts.size(), 4u);
}

TEST(SplitConjunctsTest, OrIsAtomic) {
  auto expr = sql::ParseExpression("a = 1 OR b = 2").ValueOrDie();
  EXPECT_EQ(SplitConjuncts(*expr).size(), 1u);
}

TEST(PlanStatsTest, CountsAndDepth) {
  Catalog catalog = TestCatalog();
  PlannerOptions options;
  options.insert_exchanges = false;
  PlanNodePtr plan = PlanQuery(
      catalog,
      "SELECT t.fare FROM trips t JOIN drivers d ON t.id = d.id "
      "WHERE t.fare > 10",
      options);
  PlanStats stats = ComputePlanStats(*plan);
  EXPECT_EQ(stats.num_joins, 1u);
  EXPECT_GE(stats.node_count, 5u);
  EXPECT_GE(stats.max_depth, 3u);
  EXPECT_EQ(stats.num_predicates, 2u);  // pushed filter + join condition
}

TEST(PlanStatsTest, ReferenceCurves) {
  EXPECT_EQ(BalancedTreeNodeCount(0), 1u);
  EXPECT_EQ(BalancedTreeNodeCount(3), 15u);
  EXPECT_EQ(SkewedTreeNodeCount(0), 1u);
  EXPECT_EQ(SkewedTreeNodeCount(9), 10u);
}

TEST(PlanCloneTest, DeepCopy) {
  Catalog catalog = TestCatalog();
  PlanNodePtr plan =
      PlanQuery(catalog, "SELECT fare FROM trips WHERE fare > 10");
  PlanNodePtr copy = plan->Clone();
  EXPECT_EQ(PlanToText(*plan), PlanToText(*copy));
  plan->children[0]->limit = 999;  // mutate original
  EXPECT_NE(plan->children[0]->limit, copy->children[0]->limit);
}

class PlanTextRoundTrip : public ::testing::TestWithParam<const char*> {};

TEST_P(PlanTextRoundTrip, SerializeParseStable) {
  Catalog catalog = TestCatalog();
  PlanNodePtr plan = PlanQuery(catalog, GetParam());
  std::string text = PlanToText(*plan);
  auto parsed = ParsePlanText(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString() << "\n" << text;
  EXPECT_EQ(PlanToText(**parsed), text);
}

INSTANTIATE_TEST_SUITE_P(
    Queries, PlanTextRoundTrip,
    ::testing::Values(
        "SELECT * FROM trips",
        "SELECT fare FROM trips WHERE fare > 10 AND city = 'sg'",
        "SELECT t.fare FROM trips t JOIN drivers d ON t.id = d.id LIMIT 5",
        "SELECT city, COUNT(*) AS n FROM trips GROUP BY city ORDER BY n DESC",
        "SELECT DISTINCT city FROM trips WHERE city LIKE '%a%'",
        "SELECT s.f FROM (SELECT fare AS f FROM trips) AS s WHERE s.f > 2",
        "SELECT fare FROM trips WHERE city = 'it''s' OR city LIKE '''%'''"));

TEST(PlanTextTest, EmbeddedQuoteSurvivesSqlToPlanToTextToPlan) {
  Catalog catalog = TestCatalog();
  PlanNodePtr plan =
      PlanQuery(catalog, "SELECT fare FROM trips WHERE city = 'it''s'");
  const std::string text = PlanToText(*plan);
  EXPECT_NE(text.find("'it''s'"), std::string::npos) << text;
  auto parsed = ParsePlanText(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString() << "\n" << text;
  EXPECT_EQ(PlanToText(**parsed), text);
  const PlanNode* filter = nullptr;
  VisitPlan(**parsed, [&](const PlanNode& node) {
    if (node.predicate != nullptr) filter = &node;
  });
  ASSERT_NE(filter, nullptr) << text;
  EXPECT_EQ(filter->predicate->root().child(1).str(), "it's");
}

TEST(PlanTextTest, RejectsMalformed) {
  EXPECT_FALSE(ParsePlanText("").ok());
  EXPECT_FALSE(ParsePlanText("- Mystery [x]\n").ok());
  EXPECT_FALSE(ParsePlanText("  - TableScan [t]\n").ok());  // starts indented
  EXPECT_FALSE(ParsePlanText("- Limit [3]\n      - TableScan [t]\n").ok());
}

}  // namespace
}  // namespace prestroid::plan
