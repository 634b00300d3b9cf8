#include "serve/plan_fingerprint.h"

#include <cstring>
#include <string>
#include <vector>

#include "sql/ast.h"

namespace prestroid::serve {

namespace {

constexpr uint64_t kFnvOffsetBasis = 0xcbf29ce484222325ULL;
constexpr uint64_t kFnvPrime = 0x100000001b3ULL;

void HashByte(uint64_t& h, uint8_t byte) {
  h ^= byte;
  h *= kFnvPrime;
}

void HashString(uint64_t& h, const std::string& s) {
  // Length-prefix so "ab"+"c" and "a"+"bc" cannot collide across fields.
  for (size_t len = s.size(); len != 0; len >>= 8) {
    HashByte(h, static_cast<uint8_t>(len & 0xff));
  }
  HashByte(h, 0xfe);
  for (char c : s) HashByte(h, static_cast<uint8_t>(c));
}

/// One pending unit of hashing work. The fingerprint runs on whatever plan
/// the front end admits — potentially a 100k+-deep chain — so the traversal
/// keeps its own heap stack instead of recursing. Delimiter bytes are queued
/// as tasks so the emitted byte stream is identical to the old recursive
/// form (fingerprints are cache keys; they must not change).
struct HashTask {
  enum class Kind : uint8_t { kNode, kExpr, kByte };
  Kind kind;
  const void* ptr = nullptr;  // PlanNode* or Expr*, per kind
  uint8_t byte = 0;
};

/// Hashes `expr`'s own payload (kind byte + per-kind fields), excluding
/// children and delimiters.
void HashExprPayload(uint64_t& h, const sql::Expr& expr) {
  HashByte(h, static_cast<uint8_t>(expr.kind));
  switch (expr.kind) {
    case sql::ExprKind::kColumn:
      HashString(h, expr.table);
      HashString(h, expr.name);
      break;
    case sql::ExprKind::kNumberLit: {
      uint64_t bits = 0;
      static_assert(sizeof(bits) == sizeof(expr.number),
                    "double must be 64-bit");
      std::memcpy(&bits, &expr.number, sizeof(bits));
      for (int i = 0; i < 8; ++i) {
        HashByte(h, static_cast<uint8_t>(bits >> (8 * i)));
      }
      break;
    }
    case sql::ExprKind::kStringLit:
      HashString(h, expr.str);
      break;
    case sql::ExprKind::kBinary:
    case sql::ExprKind::kCompare:
      HashString(h, expr.op);
      break;
    case sql::ExprKind::kIsNull:
      // The negation marker lives in `name`/`op` depending on the factory;
      // hash both so negated and plain IS NULL never collide.
      HashString(h, expr.name);
      HashString(h, expr.op);
      break;
    case sql::ExprKind::kFuncCall:
      HashString(h, expr.name);
      break;
    default:
      // kNullLit/kStar/kAnd/kOr/kNot/kIn/kBetween/kLike carry no payload
      // beyond their kind and children.
      break;
  }
}

}  // namespace

uint64_t FingerprintPlan(const plan::PlanNode& plan) {
  // Structurally hashes the plan (and, per recast rule R1, the expression
  // trees of unary-operator predicates): equal structure implies equal
  // serialized text, so this keys at least as finely as the predicate text
  // the recast consumes; it never falsely shares.
  uint64_t h = kFnvOffsetBasis;
  std::vector<HashTask> stack;
  stack.push_back({HashTask::Kind::kNode, &plan, 0});
  // Tasks are pushed in reverse emission order (a pop emits next).
  while (!stack.empty()) {
    HashTask task = stack.back();
    stack.pop_back();
    switch (task.kind) {
      case HashTask::Kind::kByte:
        HashByte(h, task.byte);
        break;
      case HashTask::Kind::kExpr: {
        const auto& expr = *static_cast<const sql::Expr*>(task.ptr);
        HashExprPayload(h, expr);
        // Emit: 0xf4, (child, 0xf5)..., 0xf6.
        stack.push_back({HashTask::Kind::kByte, nullptr, 0xf6});
        for (size_t i = expr.children.size(); i > 0; --i) {
          stack.push_back({HashTask::Kind::kByte, nullptr, 0xf5});
          stack.push_back(
              {HashTask::Kind::kExpr, expr.children[i - 1].get(), 0});
        }
        stack.push_back({HashTask::Kind::kByte, nullptr, 0xf4});
        break;
      }
      case HashTask::Kind::kNode: {
        const auto& node = *static_cast<const plan::PlanNode*>(task.ptr);
        HashByte(h, static_cast<uint8_t>(node.type));
        bool hash_predicate = false;
        switch (node.type) {
          case plan::PlanNodeType::kTableScan:
            HashString(h, node.table);
            break;
          case plan::PlanNodeType::kJoin:
            // Recast rule R2 keeps only the flavour; the condition is
            // dropped.
            HashByte(h, static_cast<uint8_t>(node.join_type));
            break;
          case plan::PlanNodeType::kExchange:
            HashByte(h, static_cast<uint8_t>(node.exchange_kind));
            // Recast rule R1 also reads an exchange's predicate. No null
            // marker is needed: the next byte is 0xf1 without a predicate
            // and an expression-kind byte (< 0xf0) with one.
            hash_predicate = node.predicate != nullptr;
            break;
          default:
            // Recast rule R1: a non-join unary operator contributes its
            // predicate (or the null marker) and nothing else.
            if (node.predicate != nullptr) {
              hash_predicate = true;
            } else {
              HashByte(h, 0xf0);
            }
            break;
        }
        // Emit: [predicate expr], 0xf1, (child, 0xf2)..., 0xf3 — the child
        // delimiters make tree shape part of the fingerprint.
        stack.push_back({HashTask::Kind::kByte, nullptr, 0xf3});
        for (size_t i = node.children.size(); i > 0; --i) {
          stack.push_back({HashTask::Kind::kByte, nullptr, 0xf2});
          stack.push_back(
              {HashTask::Kind::kNode, node.children[i - 1].get(), 0});
        }
        stack.push_back({HashTask::Kind::kByte, nullptr, 0xf1});
        if (hash_predicate) {
          stack.push_back({HashTask::Kind::kExpr, node.predicate.get(), 0});
        }
        break;
      }
    }
  }
  return h;
}

uint64_t CombineFingerprint(uint64_t fingerprint, uint64_t generation) {
  uint64_t h = kFnvOffsetBasis;
  for (int i = 0; i < 8; ++i) {
    HashByte(h, static_cast<uint8_t>(fingerprint >> (8 * i)));
  }
  for (int i = 0; i < 8; ++i) {
    HashByte(h, static_cast<uint8_t>(generation >> (8 * i)));
  }
  return h;
}

}  // namespace prestroid::serve
