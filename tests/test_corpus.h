// Shared by the tests that pin digests: an order-sensitive FNV-1a digest,
// the fixed-seed GRAB and TPC-DS trace corpora they fold, and the
// hostile-record corpus of damaged GRAB traces the ingest tests share.

#ifndef PRESTROID_TESTS_TEST_CORPUS_H_
#define PRESTROID_TESTS_TEST_CORPUS_H_

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <string>
#include <string_view>
#include <vector>

#include "serve/ingest_fuzz.h"
#include "util/status.h"
#include "workload/schema_generator.h"
#include "workload/tpcds_templates.h"
#include "workload/trace.h"

namespace prestroid::test {

/// FNV-1a over a stream of fields; every field is length- or
/// width-delimited so adjacent fields cannot alias.
class Digest {
 public:
  void Add(std::string_view bytes) {
    Add(static_cast<uint64_t>(bytes.size()));
    for (char c : bytes) Byte(static_cast<unsigned char>(c));
  }
  void Add(uint64_t value) {
    for (int i = 0; i < 8; ++i) Byte(static_cast<unsigned char>(value >> (8 * i)));
  }
  /// Folds the exact bits, so -0.0 and 0.0 differ.
  void AddBits(float value) {
    uint32_t bits = 0;
    std::memcpy(&bits, &value, sizeof(bits));
    Add(static_cast<uint64_t>(bits));
  }
  void AddBits(double value) {
    uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof(bits));
    Add(bits);
  }
  void AddCode(const Status& status) {
    Add(static_cast<uint64_t>(status.code()));
  }
  uint64_t value() const { return hash_; }

 private:
  void Byte(unsigned char b) {
    hash_ ^= b;
    hash_ *= 1099511628211ull;
  }
  uint64_t hash_ = 1469598103934665603ull;
};

inline std::string Hex(uint64_t value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "0x%016llx",
                static_cast<unsigned long long>(value));
  return buf;
}

struct TraceCorpus {
  workload::GeneratedSchema schema;
  std::vector<workload::QueryRecord> records;
};

/// 80 GRAB-like queries over a 30-table schema.
inline const TraceCorpus& GrabCorpus() {
  static const TraceCorpus* corpus = [] {
    auto* out = new TraceCorpus;
    workload::SchemaGenConfig schema_config;
    schema_config.num_tables = 30;
    schema_config.num_days = 30;
    schema_config.seed = 99;
    out->schema = workload::GenerateSchema(schema_config);
    workload::TraceConfig config;
    config.num_queries = 80;
    config.num_days = 30;
    config.seed = 5;
    out->records = workload::GenerateGrabTrace(out->schema, config).ValueOrDie();
    return out;
  }();
  return *corpus;
}

/// 60 queries from 20 TPC-DS-like templates.
inline const TraceCorpus& TpcdsCorpus() {
  static const TraceCorpus* corpus = [] {
    auto* out = new TraceCorpus;
    out->schema = workload::GenerateTpcdsSchema();
    workload::TpcdsWorkloadConfig config;
    config.num_templates = 20;
    config.num_queries = 60;
    config.seed = 3;
    out->records =
        workload::GenerateTpcdsTrace(out->schema, config).ValueOrDie();
    return out;
  }();
  return *corpus;
}

// --- The hostile-record corpus ---------------------------------------------

/// Record damages: each rewrites one record's serialized text by `seed`.
inline std::string ReplacePlan(const std::string& record, uint64_t seed) {
  const size_t plan = record.find("#PLAN\n");
  const size_t end = record.find("#END\n");
  return record.substr(0, plan + 6) +
         serve::MutatePlanText(serve::FuzzBasePlanText(seed), seed) + "\n" +
         record.substr(end);
}

inline std::string CutRecord(const std::string& record, uint64_t seed) {
  return record.substr(0, seed % record.size());
}

inline std::string BadHeader(const std::string& record, uint64_t seed) {
  const char* const kHeaders[] = {"#QUERY 1 2\n", "#QUERY x y z 1 2 3\n",
                                  "#QUERY\n", "#QUERY 1 2 3 nan 1 1\n",
                                  "#QUERY 1 2 3 -4 1 1\n",
                                  "#QUERY 1 2 3 inf 1 1\n",
                                  "#QUERY 1 2 3 4 5 -6\n"};
  const size_t nl = record.find('\n');
  return kHeaders[seed % std::size(kHeaders)] + record.substr(nl + 1);
}

inline std::string StrayLine(const std::string& record, uint64_t seed) {
  const char* const kLines[] = {"#SQL stray\n", "#PLAN\n", "#END\n",
                                "garbage line\n", "#QUERY 1 2 3 4 5 6\n",
                                "\n\n  \n", "\r\n"};
  const std::string line = kLines[seed % std::size(kLines)];
  const size_t at = (seed / 7) % record.size();
  const size_t nl = record.rfind('\n', at);
  const size_t cut = nl == std::string::npos ? 0 : nl + 1;
  return record.substr(0, cut) + line + record.substr(cut);
}

/// A serialized trace of the first `n` GRAB records with record `i` damaged
/// by `damage` (applied to that record's serialized text).
inline std::string DamagedTrace(
    size_t n, size_t i, std::string (*damage)(const std::string&, uint64_t),
    uint64_t seed) {
  const TraceCorpus& grab = GrabCorpus();
  std::string out;
  for (size_t r = 0; r < n; ++r) {
    std::vector<workload::QueryRecord> one;
    workload::QueryRecord copy;
    copy.id = grab.records[r].id;
    copy.day = grab.records[r].day;
    copy.template_id = grab.records[r].template_id;
    copy.sql = grab.records[r].sql;
    copy.plan = grab.records[r].plan->Clone();
    copy.metrics = grab.records[r].metrics;
    one.push_back(std::move(copy));
    const std::string text = workload::SerializeTrace(one);
    out += r == i ? damage(text, seed) : text;
  }
  return out;
}

/// 160 six-record GRAB traces, each with one record damaged: every damage
/// kind over seeds 0..39, damage-major.
inline std::vector<std::string> HostileTraces() {
  using Damage = std::string (*)(const std::string&, uint64_t);
  const Damage kDamages[] = {ReplacePlan, CutRecord, BadHeader, StrayLine};
  std::vector<std::string> traces;
  for (Damage damage : kDamages) {
    for (uint64_t seed = 0; seed < 40; ++seed) {
      traces.push_back(
          DamagedTrace(6, static_cast<size_t>(seed % 6), damage, seed));
    }
  }
  return traces;
}

}  // namespace prestroid::test

#endif  // PRESTROID_TESTS_TEST_CORPUS_H_
