#include "plan/plan_text.h"

#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "sql/parser.h"
#include "util/string_util.h"

namespace prestroid::plan {

namespace {

/// One plan-text line, cut in place: views into the caller's text.
struct PlanLine {
  size_t depth = 0;
  std::string_view kind;     // e.g. "Filter"
  std::string_view payload;  // bracket contents, may be empty
};

/// The line-level grammar: byte and depth limits, even indentation
/// (`indent` leading spaces), the "- " bullet and a closing ']'. Its errors
/// outrank every node-level error (see ParsePlanText).
Status CutLine(std::string_view line, size_t indent, const PlanLimits& limits,
               PlanLine* out) {
  if (line.size() > limits.max_line_bytes) {
    return Status::ResourceExhausted(
        StrFormat("plan line exceeds byte limit (%zu bytes > %zu)",
                  line.size(), limits.max_line_bytes));
  }
  if (indent % 2 != 0) {
    return Status::ParseError("odd indentation in plan text: " +
                              std::string(line));
  }
  if (indent / 2 > limits.max_depth) {
    return Status::ResourceExhausted(
        StrFormat("plan exceeds depth limit (%zu)", limits.max_depth));
  }
  std::string_view rest = line.substr(indent);
  if (!StartsWith(rest, "- ")) {
    return Status::ParseError("expected '- ' bullet in plan text: " +
                              std::string(line));
  }
  rest = rest.substr(2);
  out->depth = indent / 2;
  const size_t bracket = rest.find(" [");
  if (bracket == std::string_view::npos) {
    out->kind = Trim(rest);
    out->payload = {};
    return Status::OK();
  }
  if (!EndsWith(rest, "]")) {
    return Status::ParseError("missing ']' in plan text: " + std::string(line));
  }
  out->kind = rest.substr(0, bracket);
  out->payload = rest.substr(bracket + 2, rest.size() - bracket - 3);
  return Status::OK();
}

/// Parses `text` into `*out`, or only checks it when `out` is null.
Status ParseExpressionInto(std::string_view text,
                           const sql::ParseLimits& limits, sql::ExprPtr* out) {
  if (out == nullptr) return sql::CheckExpression(text, limits);
  PRESTROID_ASSIGN_OR_RETURN(*out, sql::ParseExpression(text, limits));
  return Status::OK();
}

/// Parses each ';'-separated item of `list` (trimmed, empty ones skipped)
/// into node->expressions, or only checks them unless `build`. Sort keys
/// also carry an optional " DESC" suffix into node->sort_descending.
Status ParseExpressionList(std::string_view list,
                           const sql::ParseLimits& limits, bool sort_keys,
                           bool build, PlanNode* node) {
  for (size_t begin = 0;;) {
    const size_t end = list.find(';', begin);
    std::string_view item = Trim(list.substr(
        begin, end == std::string_view::npos ? end : end - begin));
    if (!item.empty()) {
      bool desc = false;
      if (sort_keys && EndsWith(item, " DESC")) {
        desc = true;
        item.remove_suffix(5);
      }
      if (!build) {
        PRESTROID_RETURN_NOT_OK(sql::CheckExpression(item, limits));
      } else {
        PRESTROID_ASSIGN_OR_RETURN(sql::ExprPtr expr,
                                   sql::ParseExpression(item, limits));
        node->expressions.push_back(std::move(expr));
        if (sort_keys) node->sort_descending.push_back(desc);
      }
    }
    if (end == std::string_view::npos) return Status::OK();
    begin = end + 1;
  }
}

/// Fills `node` from one line's kind and payload. Unless `build`, the line
/// is only checked: `node` gets no table, group keys or expressions, so
/// nothing is allocated.
Status FillNode(const PlanLine& line, const PlanLimits& limits, bool build,
                PlanNode* node) {
  const sql::ParseLimits expr_limits{limits.max_predicate_tokens,
                                     limits.max_predicate_depth};
  const std::string_view kind = line.kind;
  const std::string_view payload = line.payload;
  if (kind == "TableScan") {
    node->type = PlanNodeType::kTableScan;
    if (build) node->table = payload;
  } else if (kind == "Filter") {
    node->type = PlanNodeType::kFilter;
    return ParseExpressionInto(payload, expr_limits,
                               build ? &node->predicate : nullptr);
  } else if (kind == "Project") {
    node->type = PlanNodeType::kProject;
    return ParseExpressionList(payload, expr_limits, false, build, node);
  } else if (kind == "Join") {
    node->type = PlanNodeType::kJoin;
    if (build) node->children.reserve(2);
    std::string_view head = payload;
    std::string_view cond;
    const size_t colon = payload.find(": ");
    if (colon != std::string_view::npos) {
      head = payload.substr(0, colon);
      cond = payload.substr(colon + 2);
    }
    if (head == "INNER") {
      node->join_type = sql::JoinType::kInner;
    } else if (head == "LEFT") {
      node->join_type = sql::JoinType::kLeft;
    } else if (head == "RIGHT") {
      node->join_type = sql::JoinType::kRight;
    } else if (head == "FULL") {
      node->join_type = sql::JoinType::kFull;
    } else if (head == "CROSS") {
      node->join_type = sql::JoinType::kCross;
    } else {
      return Status::ParseError("unknown join type: " + std::string(head));
    }
    if (!cond.empty()) {
      return ParseExpressionInto(cond, expr_limits,
                                 build ? &node->predicate : nullptr);
    }
  } else if (kind == "Aggregate") {
    node->type = PlanNodeType::kAggregate;
    const size_t bar = payload.find(" | aggs: ");
    if (bar == std::string_view::npos || !StartsWith(payload, "keys: ")) {
      return Status::ParseError("malformed Aggregate payload: " +
                                std::string(payload));
    }
    const std::string_view keys = payload.substr(6, bar - 6);
    for (size_t begin = 0;;) {
      const size_t end = keys.find(';', begin);
      const std::string_view key = Trim(keys.substr(
          begin, end == std::string_view::npos ? end : end - begin));
      if (build && !key.empty()) node->group_keys.emplace_back(key);
      if (end == std::string_view::npos) break;
      begin = end + 1;
    }
    return ParseExpressionList(payload.substr(bar + 9), expr_limits, false,
                               build, node);
  } else if (kind == "Sort") {
    node->type = PlanNodeType::kSort;
    return ParseExpressionList(payload, expr_limits, true, build, node);
  } else if (kind == "Limit") {
    node->type = PlanNodeType::kLimit;
    // strtoll silently accepts trailing garbage and saturates on overflow;
    // require the payload to be exactly one in-range integer.
    if (!ParseInt64(payload, &node->limit)) {
      return Status::InvalidArgument("malformed Limit count: " +
                                     std::string(payload));
    }
  } else if (kind == "Exchange") {
    node->type = PlanNodeType::kExchange;
    if (payload == "GATHER") {
      node->exchange_kind = ExchangeKind::kGather;
    } else if (payload == "REPARTITION") {
      node->exchange_kind = ExchangeKind::kRepartition;
    } else if (payload == "BROADCAST") {
      node->exchange_kind = ExchangeKind::kBroadcast;
    } else {
      return Status::ParseError("unknown exchange kind: " +
                                std::string(payload));
    }
  } else if (kind == "Distinct") {
    node->type = PlanNodeType::kDistinct;
  } else {
    return Status::ParseError("unknown plan node kind: " + std::string(kind));
  }
  return Status::OK();
}

/// Builds line number `index` (0-based) into the tree: the root for line 0,
/// else a child of the node one level up the depth-indexed `stack` (the
/// current root-to-node path). With a null `root` the line is only checked
/// (see FillNode): the stack holds nulls, and the node is dropped.
Status AttachLine(const PlanLine& line, size_t index, const PlanLimits& limits,
                  PlanNodePtr* root, std::vector<PlanNode*>* stack) {
  if (index == 0 && line.depth != 0) {
    return Status::ParseError("plan text must start at depth 0");
  }
  if (index > 0 && (line.depth < 1 || line.depth > stack->size())) {
    return Status::ParseError(
        StrFormat("bad indentation at plan line %zu", index));
  }
  stack->resize(line.depth);
  if (root == nullptr) {
    stack->push_back(nullptr);
    PlanNode checked;
    return FillNode(line, limits, /*build=*/false, &checked);
  }
  PlanNodePtr& slot =
      index == 0 ? *root : stack->back()->children.emplace_back();
  slot = std::make_unique<PlanNode>();
  stack->push_back(slot.get());
  return FillNode(line, limits, /*build=*/true, slot.get());
}

}  // namespace

std::string PlanToText(const PlanNode& root) {
  std::ostringstream os;
  // Explicit pre-order stack: serialization must survive the same chain
  // depths parsing accepts.
  std::vector<std::pair<const PlanNode*, int>> stack;
  stack.emplace_back(&root, 0);
  while (!stack.empty()) {
    auto [node, depth] = stack.back();
    stack.pop_back();
    for (int i = 0; i < depth; ++i) os << "  ";
    os << "- " << node->Label() << "\n";
    for (size_t i = node->children.size(); i > 0; --i) {
      stack.emplace_back(node->children[i - 1].get(), depth + 1);
    }
  }
  return os.str();
}

namespace {

/// ParsePlanText's pass over the lines: builds the tree into `*root`, or
/// only checks the text when `root` is null. Returns the node count.
Result<size_t> ReadPlanText(std::string_view text, const PlanLimits& limits,
                            PlanNodePtr* root) {
  if (text.size() > limits.max_plan_bytes) {
    return Status::ResourceExhausted(
        StrFormat("plan text exceeds byte limit (%zu bytes > %zu)",
                  text.size(), limits.max_plan_bytes));
  }
  // One pass over the lines, building each node as its line is cut. A
  // line-level error (CutLine, the node limit) returns at once; the first
  // node-level error (payload, indentation step) is held in `deferred` while
  // the remaining lines are still cut, because any line-level error outranks
  // it. The StatusCode is thus the same as if every line were cut before the
  // first node was built.
  std::vector<PlanNode*> stack;
  stack.reserve(64);  // deeper plans grow it
  Status deferred;
  size_t lines = 0;
  for (size_t begin = 0;;) {
    const size_t end = text.find('\n', begin);
    const std::string_view raw = text.substr(
        begin, end == std::string_view::npos ? end : end - begin);
    size_t indent = 0;
    while (indent < raw.size() && raw[indent] == ' ') ++indent;
    // Lines of only whitespace are skipped; a bullet cannot be one.
    const bool blank = indent == raw.size() ||
                       (raw[indent] != '-' && Trim(raw).empty());
    if (!blank) {
      if (lines >= limits.max_nodes) {
        return Status::ResourceExhausted(
            StrFormat("plan exceeds node limit (%zu)", limits.max_nodes));
      }
      PlanLine line;
      PRESTROID_RETURN_NOT_OK(CutLine(raw, indent, limits, &line));
      if (deferred.ok()) {
        deferred = AttachLine(line, lines, limits, root, &stack);
      }
      ++lines;
    }
    if (end == std::string_view::npos) break;
    begin = end + 1;
  }
  if (lines == 0) return Status::ParseError("empty plan text");
  if (!deferred.ok()) return deferred;
  return lines;
}

}  // namespace

Result<PlanNodePtr> ParsePlanText(std::string_view text,
                                  const PlanLimits& limits) {
  PlanNodePtr root;
  PRESTROID_RETURN_NOT_OK(ReadPlanText(text, limits, &root).status());
  return root;
}

Result<size_t> CheckPlanText(std::string_view text, const PlanLimits& limits) {
  return ReadPlanText(text, limits, nullptr);
}

}  // namespace prestroid::plan
