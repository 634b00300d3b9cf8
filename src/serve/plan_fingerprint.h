#ifndef PRESTROID_SERVE_PLAN_FINGERPRINT_H_
#define PRESTROID_SERVE_PLAN_FINGERPRINT_H_

#include <cstdint>

#include "plan/plan_node.h"

namespace prestroid::serve {

/// 64-bit FNV-1a fingerprint of a logical plan, hashing exactly the fields
/// the O-T-P recast (otp/otp_tree.cc) consumes — and nothing else:
///
///   - the operator label: PlanNodeType, plus join flavour for kJoin and
///     exchange kind for kExchange;
///   - the table name for kTableScan leaves;
///   - the predicate for non-join unary operators (kExchange included),
///     hashed structurally
///     (cheaper than — and at least as fine-grained as — hashing the
///     ToString() text the recast tokenizes, since equal expression
///     structure implies equal text);
///   - tree shape (child boundaries are delimited so sibling/descendant
///     reorderings cannot collide).
///
/// Deliberately EXCLUDED, because recast drops them and featurization can
/// never observe them: join conditions, projection/aggregate/sort expression
/// lists, group keys, sort directions, limit values, and optimizer
/// cardinality annotations. Two plans differing only in those fields
/// featurize identically, so sharing a cache entry is exact, not
/// approximate.
uint64_t FingerprintPlan(const plan::PlanNode& plan);

/// Mixes a cache generation into a plan fingerprint. The serving runtime
/// bumps the generation when the fitted encoder state changes (catalog
/// churn, pipeline swap), which retires every previously cached answer
/// without rehashing plans.
uint64_t CombineFingerprint(uint64_t fingerprint, uint64_t generation);

}  // namespace prestroid::serve

#endif  // PRESTROID_SERVE_PLAN_FINGERPRINT_H_
