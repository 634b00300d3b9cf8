// Shared by the tests that pin digests: an order-sensitive FNV-1a digest and
// the fixed-seed GRAB and TPC-DS trace corpora they fold.

#ifndef PRESTROID_TESTS_TEST_CORPUS_H_
#define PRESTROID_TESTS_TEST_CORPUS_H_

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

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

}  // namespace prestroid::test

#endif  // PRESTROID_TESTS_TEST_CORPUS_H_
