#ifndef PRESTROID_SERVE_INGEST_FUZZ_H_
#define PRESTROID_SERVE_INGEST_FUZZ_H_

#include <cstdint>
#include <string>
#include <vector>

#include "plan/plan_limits.h"
#include "plan/plan_node.h"

namespace prestroid::serve {

/// Deterministic structure-aware fuzzer for the plan-text ingestion path.
///
/// Each seed expands to (base plan, mutation recipe) with no hidden state —
/// the same seed produces byte-identical input on every run and platform, so
/// a CI failure is reproducible locally with just the seed number. The
/// mutations target the grammar, not random bytes alone: truncation inside a
/// record, indentation (depth) spikes, raw byte noise, predicate token
/// bombs, duplicated/spliced lines, and oversized single lines.
///
/// Run under ASan/UBSan in CI (fuzz-ingest step); see tests/plan_fuzz_test.cc
/// for the in-suite variant.

/// Deterministically builds a valid plan text for `seed` (varied shapes:
/// chains, join trees, predicate-heavy plans).
std::string FuzzBasePlanText(uint64_t seed);

/// Applies the seed's mutation recipe to `base`. The result is usually
/// malformed — that is the point.
std::string MutatePlanText(const std::string& base, uint64_t seed);

/// One field of a logical plan that MutatePlanField can change: every
/// PlanNode field, and the payload fields of predicate expressions.
enum class PlanField {
  kNodeType,           // a unary operator's type
  kTable,              // a TableScan's table
  kJoinType,
  kJoinSides,          // a join's children, swapped
  kExchangeKind,
  kPredicate,          // a unary operator's predicate, dropped or added
  kJoinCondition,      // a join's condition, replaced
  kExpressions,        // projection / aggregate / sort expression list
  kGroupKeys,
  kSortDirection,
  kLimit,
  kCardinality,
  kPredicateColumn,    // a column reference's name in any predicate
  kPredicateQualifier, // a column reference's table qualifier
  kPredicateNumber,    // a numeric literal
  kPredicateString,    // a string literal
  kPredicateOperator,  // a comparison or arithmetic operator
};
inline constexpr PlanField kAllPlanFields[] = {
    PlanField::kNodeType,          PlanField::kTable,
    PlanField::kJoinType,          PlanField::kJoinSides,
    PlanField::kExchangeKind,      PlanField::kPredicate,
    PlanField::kJoinCondition,     PlanField::kExpressions,
    PlanField::kGroupKeys,         PlanField::kSortDirection,
    PlanField::kLimit,             PlanField::kCardinality,
    PlanField::kPredicateColumn,   PlanField::kPredicateQualifier,
    PlanField::kPredicateNumber,   PlanField::kPredicateString,
    PlanField::kPredicateOperator,
};

const char* PlanFieldToString(PlanField field);

/// Names MutatePlanField substitutes for tables and columns. Drawing them
/// from a fitted pipeline's training plans keeps a mutant inside the
/// encoder's vocabulary, where a changed name is visible to featurization.
struct FieldMutationPool {
  std::vector<std::string> tables;
  std::vector<std::string> columns;
};

/// Returns a deep copy of `plan` with `field` changed on one node (or on one
/// expression node of one predicate), both chosen by `seed`; the new value
/// always differs from the old one. Returns nullptr when no node of `plan`
/// carries the field. Unlike MutatePlanText, the mutant is always a
/// well-formed plan: this is the field-level corpus of the
/// fingerprint <=> featurization property test.
plan::PlanNodePtr MutatePlanField(const plan::PlanNode& plan, PlanField field,
                                  uint64_t seed, const FieldMutationPool& pool);

/// Outcome counters for one fuzz campaign.
struct FuzzCampaignStats {
  size_t cases = 0;
  size_t parsed_ok = 0;       // mutant still parsed cleanly
  size_t parse_errors = 0;    // kParseError / kInvalidArgument
  size_t limit_rejects = 0;   // kResourceExhausted
  size_t other_errors = 0;    // anything else status-shaped
};

/// Drives one input end-to-end through the ingestion machinery: limited
/// parse, plan-stat walk, limits re-check, recast, fingerprint, clone,
/// serialize round-trip, and iterative teardown. Every failure must be
/// status-shaped; a crash/sanitizer finding is a bug in the library, never
/// in the input. Returns how the case resolved (updates `stats`).
void RunFuzzCase(const std::string& text, const plan::PlanLimits& limits,
                 FuzzCampaignStats* stats);

/// Full campaign over [seed_begin, seed_end): base + mutant per seed.
FuzzCampaignStats RunFuzzCampaign(uint64_t seed_begin, uint64_t seed_end,
                                  const plan::PlanLimits& limits);

}  // namespace prestroid::serve

#endif  // PRESTROID_SERVE_INGEST_FUZZ_H_
