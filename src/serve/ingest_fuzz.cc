#include "serve/ingest_fuzz.h"

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

#include "otp/otp_tree.h"
#include "plan/plan_stats.h"
#include "plan/plan_text.h"
#include "serve/plan_fingerprint.h"
#include "sql/parser.h"
#include "util/random.h"

namespace prestroid::serve {

namespace {

using plan::MakeAggregate;
using plan::MakeDistinct;
using plan::MakeExchange;
using plan::MakeFilter;
using plan::MakeJoin;
using plan::MakeLimit;
using plan::MakeProject;
using plan::MakeSort;
using plan::MakeTableScan;
using plan::PlanNodePtr;

const char* const kTables[] = {"orders", "lineitem", "customer", "part",
                               "supplier", "nation"};
const char* const kColumns[] = {"price", "qty", "discount", "region_id",
                                "ship_date", "status"};

std::string PickTable(Rng& rng) {
  return kTables[rng.NextUint64(std::size(kTables))];
}

std::string PickColumn(Rng& rng) {
  return kColumns[rng.NextUint64(std::size(kColumns))];
}

/// Builds a small predicate text and parses it into an ExprPtr. Base-corpus
/// predicates are always valid — mutation is what makes inputs hostile.
sql::ExprPtr MakePredicate(Rng& rng) {
  std::string text;
  switch (rng.NextUint64(4)) {
    case 0:
      text = PickColumn(rng) + " > " + std::to_string(rng.UniformInt(0, 1000));
      break;
    case 1:
      text = "(" + PickColumn(rng) + " >= " +
             std::to_string(rng.UniformInt(0, 100)) + " AND " +
             PickColumn(rng) + " < " + std::to_string(rng.UniformInt(100, 999)) +
             ")";
      break;
    case 2: {
      text = PickColumn(rng) + " IN (";
      const int n = rng.UniformInt(1, 8);
      for (int i = 0; i < n; ++i) {
        if (i > 0) text += ", ";
        text += std::to_string(rng.UniformInt(0, 500));
      }
      text += ")";
      break;
    }
    default:
      text = PickColumn(rng) + " = '" + PickTable(rng) + "'";
      break;
  }
  auto parsed = sql::ParseExpression(text);
  return parsed.ok() ? std::move(parsed).value() : nullptr;
}

/// Wraps `child` in one randomly chosen unary operator.
PlanNodePtr WrapUnary(Rng& rng, PlanNodePtr child) {
  switch (rng.NextUint64(6)) {
    case 0:
      return MakeFilter(MakePredicate(rng), std::move(child));
    case 1:
      return MakeLimit(rng.UniformInt(1, 100000), std::move(child));
    case 2:
      return MakeDistinct(std::move(child));
    case 3:
      return MakeExchange(rng.Bernoulli(0.5) ? plan::ExchangeKind::kGather
                                             : plan::ExchangeKind::kRepartition,
                          std::move(child));
    case 4: {
      std::vector<sql::ExprPtr> keys;
      keys.push_back(MakePredicate(rng));
      return MakeSort(std::move(keys), {rng.Bernoulli(0.5)}, std::move(child));
    }
    default: {
      std::vector<std::string> group_keys = {PickColumn(rng)};
      std::vector<sql::ExprPtr> aggs;
      aggs.push_back(MakePredicate(rng));
      return MakeAggregate(std::move(group_keys), std::move(aggs),
                           std::move(child));
    }
  }
}

/// Random join tree over `leaves` scans (iterative bottom-up combine).
PlanNodePtr BuildJoinTree(Rng& rng, size_t leaves) {
  std::vector<PlanNodePtr> forest;
  forest.reserve(leaves);
  for (size_t i = 0; i < leaves; ++i) {
    PlanNodePtr scan = MakeTableScan(PickTable(rng));
    if (rng.Bernoulli(0.5)) scan = MakeFilter(MakePredicate(rng), std::move(scan));
    forest.push_back(std::move(scan));
  }
  while (forest.size() > 1) {
    const size_t a = rng.NextUint64(forest.size());
    PlanNodePtr left = std::move(forest[a]);
    forest.erase(forest.begin() + static_cast<ptrdiff_t>(a));
    const size_t b = rng.NextUint64(forest.size());
    PlanNodePtr right = std::move(forest[b]);
    forest[b] = MakeJoin(rng.Bernoulli(0.8) ? sql::JoinType::kInner
                                            : sql::JoinType::kLeft,
                         MakePredicate(rng), std::move(left), std::move(right));
  }
  return std::move(forest.front());
}

/// Every node of `root`, pre-order.
std::vector<plan::PlanNode*> CollectNodes(plan::PlanNode* root) {
  std::vector<plan::PlanNode*> nodes;
  std::vector<plan::PlanNode*> stack = {root};
  while (!stack.empty()) {
    plan::PlanNode* node = stack.back();
    stack.pop_back();
    nodes.push_back(node);
    for (size_t i = node->children.size(); i > 0; --i) {
      stack.push_back(node->children[i - 1].get());
    }
  }
  return nodes;
}

/// Every expression node of `root`, pre-order.
std::vector<sql::Expr*> CollectExprs(sql::Expr* root) {
  std::vector<sql::Expr*> exprs;
  std::vector<sql::Expr*> stack = {root};
  while (!stack.empty()) {
    sql::Expr* expr = stack.back();
    stack.pop_back();
    exprs.push_back(expr);
    for (size_t i = expr->children.size(); i > 0; --i) {
      stack.push_back(expr->children[i - 1].get());
    }
  }
  return exprs;
}

/// A pool entry other than `current`, or a fresh name when there is none.
std::string PickOther(const std::vector<std::string>& pool,
                      const std::string& current, Rng& rng) {
  std::vector<const std::string*> options;
  for (const std::string& name : pool) {
    if (name != current) options.push_back(&name);
  }
  if (options.empty()) return current + "_mutated";
  return *options[rng.NextUint64(options.size())];
}

/// An element of `values` other than `current`.
template <typename T, size_t N>
T PickOtherValue(const T (&values)[N], T current, Rng& rng) {
  T picked = current;
  while (picked == current) picked = values[rng.NextUint64(N)];
  return picked;
}

bool IsUnaryOperator(const plan::PlanNode& node) {
  return node.type != plan::PlanNodeType::kTableScan &&
         node.type != plan::PlanNodeType::kJoin;
}

bool NodeCarries(PlanField field, const plan::PlanNode& node) {
  using plan::PlanNodeType;
  switch (field) {
    case PlanField::kNodeType:
    case PlanField::kPredicate:
      return IsUnaryOperator(node);
    case PlanField::kTable:
      return node.type == PlanNodeType::kTableScan;
    case PlanField::kJoinType:
    case PlanField::kJoinSides:
    case PlanField::kJoinCondition:
      return node.type == PlanNodeType::kJoin;
    case PlanField::kExchangeKind:
      return node.type == PlanNodeType::kExchange;
    case PlanField::kExpressions:
      return node.type == PlanNodeType::kProject ||
             node.type == PlanNodeType::kAggregate ||
             node.type == PlanNodeType::kSort;
    case PlanField::kGroupKeys:
      return node.type == PlanNodeType::kAggregate;
    case PlanField::kSortDirection:
      return node.type == PlanNodeType::kSort && !node.sort_descending.empty();
    case PlanField::kLimit:
      return node.type == PlanNodeType::kLimit;
    case PlanField::kCardinality:
      return true;
    default:
      return false;  // expression fields
  }
}

bool ExprCarries(PlanField field, const sql::Expr& expr) {
  switch (field) {
    case PlanField::kPredicateColumn:
    case PlanField::kPredicateQualifier:
      return expr.kind == sql::ExprKind::kColumn;
    case PlanField::kPredicateNumber:
      return expr.kind == sql::ExprKind::kNumberLit;
    case PlanField::kPredicateString:
      return expr.kind == sql::ExprKind::kStringLit;
    case PlanField::kPredicateOperator:
      return expr.kind == sql::ExprKind::kCompare ||
             expr.kind == sql::ExprKind::kBinary;
    default:
      return false;  // node fields
  }
}

void MutateExprField(PlanField field, sql::Expr& expr,
                     const FieldMutationPool& pool, Rng& rng) {
  static const char* const kCompareOps[] = {"=", "<>", "<", "<=", ">", ">="};
  static const char* const kBinaryOps[] = {"+", "-", "*", "/"};
  switch (field) {
    case PlanField::kPredicateColumn:
      expr.name = PickOther(pool.columns, expr.name, rng);
      break;
    case PlanField::kPredicateQualifier:
      expr.table = PickOther(pool.tables, expr.table, rng);
      break;
    case PlanField::kPredicateNumber:
      expr.number += 1.0 + static_cast<double>(rng.NextUint64(1000));
      break;
    case PlanField::kPredicateString:
      expr.str = PickOther(pool.tables, expr.str, rng);
      break;
    case PlanField::kPredicateOperator: {
      const std::string current = expr.op;
      std::string picked = current;
      while (picked == current) {
        picked = expr.kind == sql::ExprKind::kCompare
                     ? kCompareOps[rng.NextUint64(std::size(kCompareOps))]
                     : kBinaryOps[rng.NextUint64(std::size(kBinaryOps))];
      }
      expr.op = picked;
      break;
    }
    default:
      break;
  }
}

void MutateNodeField(PlanField field, plan::PlanNode& node,
                     const FieldMutationPool& pool, Rng& rng) {
  using plan::PlanNodeType;
  static const PlanNodeType kUnaryTypes[] = {
      PlanNodeType::kFilter,   PlanNodeType::kProject, PlanNodeType::kAggregate,
      PlanNodeType::kSort,     PlanNodeType::kLimit,   PlanNodeType::kExchange,
      PlanNodeType::kDistinct};
  static const sql::JoinType kJoinTypes[] = {
      sql::JoinType::kInner, sql::JoinType::kLeft, sql::JoinType::kRight,
      sql::JoinType::kFull, sql::JoinType::kCross};
  static const plan::ExchangeKind kExchangeKinds[] = {
      plan::ExchangeKind::kGather, plan::ExchangeKind::kRepartition,
      plan::ExchangeKind::kBroadcast};
  auto fresh_compare = [&](const char* op) {
    return sql::MakeCompare(
        op, sql::MakeColumn(PickOther(pool.tables, "", rng),
                            PickOther(pool.columns, "", rng)),
        sql::MakeNumber(static_cast<double>(rng.NextUint64(1000))));
  };
  switch (field) {
    case PlanField::kNodeType:
      node.type = PickOtherValue(kUnaryTypes, node.type, rng);
      break;
    case PlanField::kTable:
      node.table = PickOther(pool.tables, node.table, rng);
      break;
    case PlanField::kJoinType:
      node.join_type = PickOtherValue(kJoinTypes, node.join_type, rng);
      break;
    case PlanField::kJoinSides:
      std::swap(node.children[0], node.children[1]);
      break;
    case PlanField::kExchangeKind:
      node.exchange_kind =
          PickOtherValue(kExchangeKinds, node.exchange_kind, rng);
      break;
    case PlanField::kPredicate:
      if (node.predicate != nullptr) {
        node.predicate.reset();
      } else {
        node.predicate = fresh_compare(">");
      }
      break;
    case PlanField::kJoinCondition:
      node.predicate = fresh_compare("=");
      break;
    case PlanField::kExpressions:
      node.expressions.push_back(
          sql::MakeColumn("", PickOther(pool.columns, "", rng)));
      // Sort keys and their directions stay parallel.
      if (node.type == PlanNodeType::kSort) {
        node.sort_descending.push_back(false);
      }
      break;
    case PlanField::kGroupKeys:
      node.group_keys.push_back(PickOther(pool.columns, "", rng));
      break;
    case PlanField::kSortDirection:
      node.sort_descending[0] = !node.sort_descending[0];
      break;
    case PlanField::kLimit:
      node.limit += 1 + static_cast<int64_t>(rng.NextUint64(1000));
      break;
    case PlanField::kCardinality:
      node.cardinality += 1.0 + static_cast<double>(rng.NextUint64(1000000));
      break;
    default:
      break;
  }
}

}  // namespace

const char* PlanFieldToString(PlanField field) {
  switch (field) {
    case PlanField::kNodeType:
      return "node_type";
    case PlanField::kTable:
      return "table";
    case PlanField::kJoinType:
      return "join_type";
    case PlanField::kJoinSides:
      return "join_sides";
    case PlanField::kExchangeKind:
      return "exchange_kind";
    case PlanField::kPredicate:
      return "predicate";
    case PlanField::kJoinCondition:
      return "join_condition";
    case PlanField::kExpressions:
      return "expressions";
    case PlanField::kGroupKeys:
      return "group_keys";
    case PlanField::kSortDirection:
      return "sort_direction";
    case PlanField::kLimit:
      return "limit";
    case PlanField::kCardinality:
      return "cardinality";
    case PlanField::kPredicateColumn:
      return "predicate_column";
    case PlanField::kPredicateQualifier:
      return "predicate_qualifier";
    case PlanField::kPredicateNumber:
      return "predicate_number";
    case PlanField::kPredicateString:
      return "predicate_string";
    case PlanField::kPredicateOperator:
      return "predicate_operator";
  }
  return "unknown";
}

plan::PlanNodePtr MutatePlanField(const plan::PlanNode& plan, PlanField field,
                                  uint64_t seed,
                                  const FieldMutationPool& pool) {
  Rng rng(seed ^ 0x94d049bb133111ebULL);
  plan::PlanNodePtr mutant = plan.Clone();
  const std::vector<plan::PlanNode*> nodes = CollectNodes(mutant.get());

  std::vector<sql::Expr*> exprs;
  for (plan::PlanNode* node : nodes) {
    if (node->predicate == nullptr) continue;
    for (sql::Expr* expr : CollectExprs(node->predicate.get())) {
      if (ExprCarries(field, *expr)) exprs.push_back(expr);
    }
  }
  if (!exprs.empty()) {
    MutateExprField(field, *exprs[rng.NextUint64(exprs.size())], pool, rng);
    return mutant;
  }

  std::vector<plan::PlanNode*> carriers;
  for (plan::PlanNode* node : nodes) {
    if (NodeCarries(field, *node)) carriers.push_back(node);
  }
  if (carriers.empty()) return nullptr;
  MutateNodeField(field, *carriers[rng.NextUint64(carriers.size())], pool,
                  rng);
  return mutant;
}

std::string FuzzBasePlanText(uint64_t seed) {
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + 1);
  PlanNodePtr root;
  switch (rng.NextUint64(3)) {
    case 0: {
      // Deep unary chain over a single scan.
      root = MakeTableScan(PickTable(rng));
      const int depth = rng.UniformInt(1, 48);
      for (int i = 0; i < depth; ++i) root = WrapUnary(rng, std::move(root));
      break;
    }
    case 1:
      // Bushy join tree.
      root = BuildJoinTree(rng, static_cast<size_t>(rng.UniformInt(2, 10)));
      break;
    default: {
      // Mixed: join tree under a short unary chain, predicate-heavy.
      root = BuildJoinTree(rng, static_cast<size_t>(rng.UniformInt(2, 5)));
      const int wraps = rng.UniformInt(1, 6);
      for (int i = 0; i < wraps; ++i) {
        root = MakeFilter(MakePredicate(rng), std::move(root));
      }
      break;
    }
  }
  return plan::PlanToText(*root);
}

std::string MutatePlanText(const std::string& base, uint64_t seed) {
  Rng rng(seed ^ 0xd1b54a32d192ed03ULL);
  std::string text = base;
  const int rounds = rng.UniformInt(1, 3);
  for (int round = 0; round < rounds; ++round) {
    if (text.empty()) break;
    switch (rng.NextUint64(6)) {
      case 0:
        // Truncation mid-record (often mid-line, splitting a token).
        text.resize(rng.NextUint64(text.size()));
        break;
      case 1: {
        // Depth spike: splice in a line with an enormous indent run, so the
        // parser sees an indentation jump that implies absurd tree depth.
        const size_t indent = 2 * (1 + rng.NextUint64(1u << 18));
        std::string spike(indent, ' ');
        spike += "- Distinct\n";
        const size_t at = rng.NextUint64(text.size());
        const size_t line_start = text.rfind('\n', at);
        text.insert(line_start == std::string::npos ? 0 : line_start + 1,
                    spike);
        break;
      }
      case 2: {
        // Raw byte noise: flip a handful of bytes anywhere, including into
        // NUL/control/high-bit values the grammar never emits.
        const int flips = rng.UniformInt(1, 16);
        for (int i = 0; i < flips; ++i) {
          text[rng.NextUint64(text.size())] =
              static_cast<char>(rng.NextUint64(256));
        }
        break;
      }
      case 3: {
        // Token bomb: append a Filter whose IN-list predicate has far more
        // tokens than any legitimate plan line.
        std::string bomb = "- Filter [qty IN (";
        const int n = rng.UniformInt(2000, 12000);
        for (int i = 0; i < n; ++i) {
          if (i > 0) bomb += ",";
          bomb += std::to_string(i);
        }
        bomb += ")]\n";
        text += bomb;
        break;
      }
      case 4: {
        // Line duplication/splice: repeat a random slice of the text so
        // sibling ordering and indent monotonicity break.
        const size_t from = rng.NextUint64(text.size());
        const size_t len =
            std::min<size_t>(text.size() - from, 1 + rng.NextUint64(512));
        const std::string slice = text.substr(from, len);
        text.insert(rng.NextUint64(text.size()), slice);
        break;
      }
      default: {
        // Oversized single line: one line grown past any sane byte budget.
        std::string fat = "- TableScan [";
        fat.append(1 + rng.NextUint64(1u << 18), 'x');
        fat += "]\n";
        text += fat;
        break;
      }
    }
  }
  return text;
}

void RunFuzzCase(const std::string& text, const plan::PlanLimits& limits,
                 FuzzCampaignStats* stats) {
  ++stats->cases;
  auto parsed = plan::ParsePlanText(text, limits);
  if (!parsed.ok()) {
    switch (parsed.status().code()) {
      case StatusCode::kResourceExhausted:
        ++stats->limit_rejects;
        break;
      case StatusCode::kParseError:
      case StatusCode::kInvalidArgument:
        ++stats->parse_errors;
        break;
      default:
        ++stats->other_errors;
        break;
    }
    return;
  }
  ++stats->parsed_ok;
  const plan::PlanNodePtr root = std::move(parsed).value();

  // The plan passed the parse-time governor; everything downstream must now
  // digest it without faulting. Statuses are tolerated, crashes are not.
  (void)plan::CheckPlanLimits(*root, limits);
  (void)plan::ComputePlanStats(*root);
  (void)FingerprintPlan(*root);

  auto recast = otp::RecastPlan(*root);
  if (recast.ok()) (void)otp::Flatten(recast.value());

  const plan::PlanNodePtr clone = root->Clone();
  const std::string round_trip = plan::PlanToText(*clone);
  (void)plan::ParsePlanText(round_trip, limits);
  // Teardown of root/clone/recast exercises the iterative destructors.
}

FuzzCampaignStats RunFuzzCampaign(uint64_t seed_begin, uint64_t seed_end,
                                  const plan::PlanLimits& limits) {
  FuzzCampaignStats stats;
  for (uint64_t seed = seed_begin; seed < seed_end; ++seed) {
    const std::string base = FuzzBasePlanText(seed);
    RunFuzzCase(base, limits, &stats);
    RunFuzzCase(MutatePlanText(base, seed), limits, &stats);
  }
  return stats;
}

}  // namespace prestroid::serve
