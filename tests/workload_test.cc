#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "cost/serving_estimator.h"
#include "plan/plan_stats.h"
#include "plan/plan_text.h"
#include "plan/planner.h"
#include "sql/parser.h"
#include "test_corpus.h"
#include "util/artifact_io.h"
#include "util/string_util.h"
#include "workload/dataset.h"
#include "workload/query_generator.h"
#include "workload/schema_generator.h"
#include "workload/tpcds_templates.h"
#include "workload/trace.h"

namespace prestroid::workload {
namespace {

SchemaGenConfig SmallSchemaConfig() {
  SchemaGenConfig config;
  config.num_tables = 30;
  config.num_days = 30;
  config.seed = 99;
  return config;
}

TEST(SchemaGenTest, DeterministicPerSeed) {
  GeneratedSchema a = GenerateSchema(SmallSchemaConfig());
  GeneratedSchema b = GenerateSchema(SmallSchemaConfig());
  EXPECT_EQ(a.table_names, b.table_names);
  EXPECT_EQ(a.creation_day, b.creation_day);
}

TEST(SchemaGenTest, TablesHaveColumnsAndStats) {
  GeneratedSchema schema = GenerateSchema(SmallSchemaConfig());
  EXPECT_EQ(schema.catalog.size(), 30u);
  for (const std::string& name : schema.table_names) {
    const plan::TableDef* table = *schema.catalog.GetTable(name);
    EXPECT_GE(table->columns.size(), 4u);
    EXPECT_GT(table->row_count, 0.0);
    // No duplicate column names within a table.
    std::set<std::string> names;
    for (const plan::ColumnDef& col : table->columns) {
      EXPECT_TRUE(names.insert(col.name).second) << col.name;
    }
  }
}

TEST(SchemaGenTest, ChurnGrowsTableSet) {
  GeneratedSchema schema = GenerateSchema(SmallSchemaConfig());
  size_t day0 = schema.TablesAvailableAt(0).size();
  size_t day29 = schema.TablesAvailableAt(29).size();
  EXPECT_GT(day0, 0u);
  EXPECT_GE(day29, day0);
  EXPECT_EQ(day29, schema.table_names.size());
}

TEST(SchemaGenTest, TpcdsSchemaHasStandardTables) {
  GeneratedSchema schema = GenerateTpcdsSchema(10.0);
  EXPECT_EQ(schema.catalog.size(), 24u);
  EXPECT_TRUE(schema.catalog.HasTable("store_sales"));
  EXPECT_TRUE(schema.catalog.HasTable("date_dim"));
  EXPECT_TRUE(schema.catalog.HasTable("item"));
  // Fact tables scale with SF; dimension tables stay put.
  GeneratedSchema sf1 = GenerateTpcdsSchema(1.0);
  EXPECT_GT((*schema.catalog.GetTable("store_sales"))->row_count,
            (*sf1.catalog.GetTable("store_sales"))->row_count);
  EXPECT_EQ((*schema.catalog.GetTable("date_dim"))->row_count,
            (*sf1.catalog.GetTable("date_dim"))->row_count);
}

TEST(SchemaGenTest, TpchSchemaHasStandardTables) {
  GeneratedSchema schema = GenerateTpchSchema(10.0);
  EXPECT_EQ(schema.catalog.size(), 8u);
  EXPECT_TRUE(schema.catalog.HasTable("lineitem"));
  EXPECT_TRUE(schema.catalog.HasTable("orders"));
  EXPECT_TRUE(schema.catalog.HasTable("nation"));
  // Fact tables scale with SF; nation/region do not.
  GeneratedSchema sf1 = GenerateTpchSchema(1.0);
  EXPECT_GT((*schema.catalog.GetTable("lineitem"))->row_count,
            (*sf1.catalog.GetTable("lineitem"))->row_count);
  EXPECT_EQ((*schema.catalog.GetTable("nation"))->row_count,
            (*sf1.catalog.GetTable("nation"))->row_count);
}

TEST(TraceTest, MinDayConfinesWindow) {
  GeneratedSchema schema = GenerateSchema(SmallSchemaConfig());
  TraceConfig config;
  config.num_queries = 15;
  config.num_days = 30;
  config.min_day = 25;
  config.seed = 91;
  auto records = GenerateGrabTrace(schema, config).ValueOrDie();
  for (const QueryRecord& record : records) {
    EXPECT_GE(record.day, 25);
    EXPECT_LT(record.day, 30);
  }
}

class QueryGenFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    schema_ = GenerateSchema(SmallSchemaConfig());
    generator_ = std::make_unique<QueryGenerator>(&schema_);
    planner_ = std::make_unique<plan::Planner>(&schema_.catalog);
  }

  GeneratedSchema schema_;
  std::unique_ptr<QueryGenerator> generator_;
  std::unique_ptr<plan::Planner> planner_;
};

TEST_F(QueryGenFixture, GeneratedQueriesParseAndPlan) {
  for (uint64_t seed = 0; seed < 50; ++seed) {
    std::string sql = generator_->Generate(10, seed, seed + 1000);
    auto stmt = sql::ParseSelect(sql);
    ASSERT_TRUE(stmt.ok()) << stmt.status().ToString() << "\nSQL: " << sql;
    auto plan = planner_->Plan(**stmt);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString() << "\nSQL: " << sql;
  }
}

TEST_F(QueryGenFixture, StructureSeedFixesSkeleton) {
  // Same structure seed + different literal seeds -> identical skeleton
  // (literal values differ, everything else matches).
  std::string a = generator_->Generate(5, 42, 1);
  std::string b = generator_->Generate(5, 42, 2);
  std::string c = generator_->Generate(5, 43, 1);
  EXPECT_NE(a, c);  // different structures
  auto stmt_a = sql::ParseSelect(a).ValueOrDie();
  auto stmt_b = sql::ParseSelect(b).ValueOrDie();
  EXPECT_EQ(stmt_a->items.size(), stmt_b->items.size());
  EXPECT_EQ(stmt_a->joins.size(), stmt_b->joins.size());
  EXPECT_EQ(stmt_a->from.table, stmt_b->from.table);
  EXPECT_EQ(stmt_a->group_by.size(), stmt_b->group_by.size());
}

TEST_F(QueryGenFixture, FullyDeterministic) {
  EXPECT_EQ(generator_->Generate(3, 7, 8), generator_->Generate(3, 7, 8));
}

TEST_F(QueryGenFixture, RespectsTableChurn) {
  // Queries on day 0 only reference day-0 tables.
  std::set<std::string> day0_tables;
  for (const std::string& name : schema_.TablesAvailableAt(0)) {
    day0_tables.insert(name);
  }
  for (uint64_t seed = 0; seed < 30; ++seed) {
    std::string sql = generator_->Generate(0, seed, seed);
    auto stmt = sql::ParseSelect(sql).ValueOrDie();
    auto plan = planner_->Plan(*stmt).ValueOrDie();
    plan::VisitPlan(*plan, [&](const plan::PlanNode& node) {
      if (node.type == plan::PlanNodeType::kTableScan) {
        EXPECT_TRUE(day0_tables.count(node.table) > 0) << node.table;
      }
    });
  }
}

TEST_F(QueryGenFixture, ProducesDiversePlanSizes) {
  QueryGenConfig config;
  config.join_tail_prob = 0.3;  // exaggerate the tail for the test
  config.p_deep_chain = 0.2;
  QueryGenerator generator(&schema_, config);
  size_t min_nodes = SIZE_MAX, max_nodes = 0;
  for (uint64_t seed = 0; seed < 60; ++seed) {
    std::string sql = generator.Generate(10, seed * 31 + 1, seed);
    auto stmt = sql::ParseSelect(sql).ValueOrDie();
    auto plan = planner_->Plan(*stmt).ValueOrDie();
    plan::PlanStats stats = plan::ComputePlanStats(*plan);
    min_nodes = std::min(min_nodes, stats.node_count);
    max_nodes = std::max(max_nodes, stats.node_count);
  }
  EXPECT_LT(min_nodes, 10u);
  EXPECT_GT(max_nodes, 60u);  // tail queries are much larger
}

TEST_F(QueryGenFixture, RandomPlansRoundTripThroughPlanText) {
  // Fuzz-style property: every generated plan serializes to EXPLAIN text and
  // parses back to the identical text (fixed point after one round).
  for (uint64_t seed = 0; seed < 40; ++seed) {
    std::string sql = generator_->Generate(15, seed * 101 + 7, seed);
    auto stmt = sql::ParseSelect(sql).ValueOrDie();
    auto plan = planner_->Plan(*stmt).ValueOrDie();
    std::string text = plan::PlanToText(*plan);
    auto parsed = plan::ParsePlanText(text);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString() << "\n" << text;
    EXPECT_EQ(plan::PlanToText(**parsed), text) << sql;
  }
}

TEST(TraceTest, GenerateFilterAndDeterminism) {
  GeneratedSchema schema = GenerateSchema(SmallSchemaConfig());
  TraceConfig config;
  config.num_queries = 40;
  config.num_days = 30;
  config.seed = 5;
  auto records = GenerateGrabTrace(schema, config).ValueOrDie();
  ASSERT_EQ(records.size(), 40u);
  for (const QueryRecord& record : records) {
    EXPECT_GE(record.metrics.total_cpu_minutes, 1.0);
    EXPECT_LE(record.metrics.total_cpu_minutes, 60.0);
    EXPECT_NE(record.plan, nullptr);
    EXPECT_FALSE(record.sql.empty());
  }
  auto again = GenerateGrabTrace(schema, config).ValueOrDie();
  EXPECT_EQ(records[7].sql, again[7].sql);
  EXPECT_DOUBLE_EQ(records[7].metrics.total_cpu_minutes,
                   again[7].metrics.total_cpu_minutes);
}

TEST(TraceTest, SerializationRoundTrip) {
  GeneratedSchema schema = GenerateSchema(SmallSchemaConfig());
  TraceConfig config;
  config.num_queries = 10;
  config.num_days = 30;
  auto records = GenerateGrabTrace(schema, config).ValueOrDie();
  std::string text = SerializeTrace(records);
  auto parsed = DeserializeTrace(text).ValueOrDie();
  ASSERT_EQ(parsed.size(), records.size());
  for (size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(parsed[i].id, records[i].id);
    EXPECT_EQ(parsed[i].day, records[i].day);
    EXPECT_EQ(parsed[i].sql, records[i].sql);
    EXPECT_NEAR(parsed[i].metrics.total_cpu_minutes,
                records[i].metrics.total_cpu_minutes, 1e-6);
    EXPECT_EQ(plan::PlanToText(*parsed[i].plan),
              plan::PlanToText(*records[i].plan));
  }
}

TEST(TraceTest, DeserializeRejectsGarbage) {
  EXPECT_FALSE(DeserializeTrace("#SQL orphan\n").ok());
  EXPECT_FALSE(DeserializeTrace("#QUERY not numbers\n").ok());
  EXPECT_FALSE(
      DeserializeTrace("#QUERY 1 0 -1 2 0.5 1\n#SQL SELECT\n#PLAN\n").ok());
}

TEST(TpcdsTest, TemplatesShareStructure) {
  GeneratedSchema schema = GenerateTpcdsSchema(10.0);
  TpcdsWorkloadConfig config;
  config.num_templates = 6;
  config.num_queries = 30;
  auto records = GenerateTpcdsTrace(schema, config).ValueOrDie();
  ASSERT_EQ(records.size(), 30u);
  // Group by template: instances of a template have identical join counts.
  std::map<int, std::set<size_t>> join_counts;
  std::set<int> templates;
  for (const QueryRecord& record : records) {
    ASSERT_GE(record.template_id, 0);
    templates.insert(record.template_id);
    plan::PlanStats stats = plan::ComputePlanStats(*record.plan);
    join_counts[record.template_id].insert(stats.num_joins);
  }
  // The CPU-time filter drops templates whose cost lands outside the band
  // (the paper keeps 81 of 103 templates for the same reason).
  EXPECT_GE(templates.size(), 2u);
  for (const auto& [id, counts] : join_counts) {
    EXPECT_EQ(counts.size(), 1u) << "template " << id;
  }
}

TEST(SplitTest, RandomSplitProportionsAndDisjoint) {
  Rng rng(1);
  DatasetSplits splits = SplitRandom(1000, 0.8, 0.1, &rng);
  EXPECT_EQ(splits.train.size(), 800u);
  EXPECT_EQ(splits.val.size(), 100u);
  EXPECT_EQ(splits.test.size(), 100u);
  std::set<size_t> all;
  for (size_t i : splits.train) all.insert(i);
  for (size_t i : splits.val) all.insert(i);
  for (size_t i : splits.test) all.insert(i);
  EXPECT_EQ(all.size(), 1000u);
}

TEST(SplitTest, TemplateSplitKeepsTemplatesTogether) {
  GeneratedSchema schema = GenerateTpcdsSchema(10.0);
  TpcdsWorkloadConfig config;
  config.num_templates = 10;
  config.num_queries = 60;
  auto records = GenerateTpcdsTrace(schema, config).ValueOrDie();
  Rng rng(2);
  DatasetSplits splits = SplitByTemplate(records, 0.8, 0.1, &rng);
  auto bucket_of = [&](size_t idx) {
    for (size_t i : splits.train) {
      if (i == idx) return 0;
    }
    for (size_t i : splits.val) {
      if (i == idx) return 1;
    }
    return 2;
  };
  std::map<int, std::set<int>> template_buckets;
  for (size_t i = 0; i < records.size(); ++i) {
    template_buckets[records[i].template_id].insert(bucket_of(i));
  }
  for (const auto& [id, buckets] : template_buckets) {
    EXPECT_EQ(buckets.size(), 1u) << "template " << id << " split across sets";
  }
}

TEST(SplitTest, CpuMinutesExtraction) {
  GeneratedSchema schema = GenerateSchema(SmallSchemaConfig());
  TraceConfig config;
  config.num_queries = 5;
  config.num_days = 30;
  auto records = GenerateGrabTrace(schema, config).ValueOrDie();
  std::vector<double> labels = CpuMinutesOf(records);
  ASSERT_EQ(labels.size(), 5u);
  EXPECT_DOUBLE_EQ(labels[0], records[0].metrics.total_cpu_minutes);
}

// --------------------------------------------------------------------------
// Quarantine-file size cap + rotation
// --------------------------------------------------------------------------

std::string QuarantineTempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

size_t FileSizeOrZero(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in.is_open()) return 0;
  const auto at = in.tellg();
  return at < 0 ? 0 : static_cast<size_t>(at);
}

size_t CountLines(const std::string& path) {
  std::ifstream in(path);
  size_t lines = 0;
  std::string line;
  while (std::getline(in, line)) ++lines;
  return lines;
}

/// A trace of `n` records that all fail header parsing, each quarantined as
/// one log line.
std::string MalformedTrace(size_t n) {
  std::string text;
  for (size_t i = 0; i < n; ++i) {
    text += "#QUERY bogus record number " + std::to_string(i) + "\n";
  }
  return text;
}

TEST(QuarantineRotationTest, CapBoundsGrowthAndCountsDroppedRecords) {
  const std::string path = QuarantineTempPath("quarantine_rotation.log");
  std::remove(path.c_str());
  std::remove((path + ".1").c_str());

  IngestOptions options;
  options.quarantine_path = path;
  options.max_quarantine_bytes = 512;
  constexpr size_t kRecords = 200;
  auto result = IngestTraceTolerant(MalformedTrace(kRecords), options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  EXPECT_EQ(result->stats.quarantined, kRecords);
  EXPECT_GT(result->stats.quarantine_rotations, 0u);
  EXPECT_GT(result->stats.quarantine_dropped, 0u);
  // A hostile stream can fill at most ~2x the cap: the active file plus one
  // rotated generation, each within budget.
  EXPECT_LE(FileSizeOrZero(path), options.max_quarantine_bytes);
  EXPECT_LE(FileSizeOrZero(path + ".1"), options.max_quarantine_bytes);
  EXPECT_GT(FileSizeOrZero(path + ".1"), 0u);
  // Every quarantined record is accounted for: still on disk or counted as
  // dropped by a rotation — never silently lost.
  EXPECT_EQ(CountLines(path) + CountLines(path + ".1") +
                result->stats.quarantine_dropped,
            kRecords);
  // The rotation counter also reaches the caller-facing summary.
  EXPECT_NE(result->stats.Summary().find("rotations="), std::string::npos);
  EXPECT_NE(result->stats.Summary().find("dropped-records="),
            std::string::npos);
}

TEST(QuarantineRotationTest, ZeroCapMeansUnlimited) {
  const std::string path = QuarantineTempPath("quarantine_unlimited.log");
  std::remove(path.c_str());
  std::remove((path + ".1").c_str());

  IngestOptions options;
  options.quarantine_path = path;
  options.max_quarantine_bytes = 0;
  constexpr size_t kRecords = 64;
  auto result = IngestTraceTolerant(MalformedTrace(kRecords), options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->stats.quarantine_rotations, 0u);
  EXPECT_EQ(result->stats.quarantine_dropped, 0u);
  EXPECT_EQ(CountLines(path), kRecords);
  EXPECT_EQ(FileSizeOrZero(path + ".1"), 0u);
}

TEST(QuarantineRotationTest, RecordLargerThanTheCapIsDroppedNotWritten) {
  const std::string path = QuarantineTempPath("quarantine_tiny_cap.log");
  std::remove(path.c_str());
  std::remove((path + ".1").c_str());

  IngestOptions options;
  options.quarantine_path = path;
  options.max_quarantine_bytes = 16;  // smaller than any single log line
  auto result = IngestTraceTolerant(MalformedTrace(1), options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->stats.quarantined, 1u);
  EXPECT_EQ(result->stats.quarantine_dropped, 1u);
  EXPECT_EQ(result->stats.quarantine_rotations, 0u);
  EXPECT_EQ(FileSizeOrZero(path), 0u);
}

std::string FileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

TEST(SinkIngestTest, SinkAndVectorFormsAgreeOnHostileTraces) {
  // The sink form is the one ingest loop; the vector form is a wrapper whose
  // sink appends. Over every hostile trace both must accept the same
  // records, count the same quarantines and log the same bytes.
  const std::string sink_log = QuarantineTempPath("sink_parity_sink.log");
  const std::string vector_log = QuarantineTempPath("sink_parity_vector.log");
  size_t quarantined = 0;
  for (const std::string& trace : test::HostileTraces()) {
    std::remove(sink_log.c_str());
    std::remove(vector_log.c_str());
    IngestOptions options;
    options.quarantine_path = sink_log;
    std::vector<QueryRecord> streamed;
    auto stats = IngestTraceTolerant(trace, options, [&](QueryRecord&& record) {
      streamed.push_back(std::move(record));
    });
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    options.quarantine_path = vector_log;
    auto collected = IngestTraceTolerant(trace, options);
    ASSERT_TRUE(collected.ok()) << collected.status().ToString();

    EXPECT_EQ(SerializeTrace(streamed), SerializeTrace(collected->records));
    EXPECT_EQ(stats->accepted, collected->stats.accepted);
    EXPECT_EQ(stats->quarantined, collected->stats.quarantined);
    EXPECT_EQ(stats->by_reason, collected->stats.by_reason);
    EXPECT_EQ(stats->quarantine_rotations,
              collected->stats.quarantine_rotations);
    EXPECT_EQ(stats->quarantine_dropped, collected->stats.quarantine_dropped);
    EXPECT_EQ(stats->accepted, streamed.size());
    EXPECT_EQ(FileBytes(sink_log), FileBytes(vector_log));
    quarantined += stats->quarantined;
  }
  std::remove(sink_log.c_str());
  std::remove(vector_log.c_str());
  EXPECT_GT(quarantined, 0u);  // the corpus does exercise the quarantine
}

/// The record cut of the whole-text ingest the cutter replaced: a chunk
/// starts at each "#QUERY " line, and a non-blank prefix is its own chunk.
std::vector<std::string> ReferenceChunks(std::string_view text) {
  constexpr size_t npos = std::string_view::npos;
  std::vector<std::string> chunks;
  size_t start = npos;
  for (size_t line = 0; line < text.size();) {
    if (StartsWith(text.substr(line), "#QUERY ")) {
      if (start != npos) {
        chunks.emplace_back(text.substr(start, line - start));
      } else if (!Trim(text.substr(0, line)).empty()) {
        chunks.emplace_back(text.substr(0, line));
      }
      start = line;
    }
    const size_t newline = text.find('\n', line);
    if (newline == npos) break;
    line = newline + 1;
  }
  if (start != npos) {
    chunks.emplace_back(text.substr(start));
  } else if (!Trim(text).empty()) {
    chunks.emplace_back(text);
  }
  return chunks;
}

/// The chunks one TraceRecordCutter cuts from `pieces` fed in order.
std::vector<std::string> CutPieces(const std::vector<std::string_view>& pieces) {
  std::vector<std::string> chunks;
  TraceRecordCutter cutter([&](std::string_view chunk) {
    chunks.emplace_back(chunk);
    return Status::OK();
  });
  for (std::string_view piece : pieces) EXPECT_TRUE(cutter.Feed(piece).ok());
  EXPECT_TRUE(cutter.Finish().ok());
  return chunks;
}

/// `text` cut into pieces of `size` bytes (the last may be shorter).
std::vector<std::string_view> Pieces(std::string_view text, size_t size) {
  std::vector<std::string_view> pieces;
  for (size_t at = 0; at < text.size(); at += size) {
    pieces.push_back(text.substr(at, size));
  }
  return pieces;
}

TEST(TraceRecordCutterTest, SplitAtEveryOffsetCutsTheSameChunks) {
  std::vector<QueryRecord> clean;
  for (size_t i = 0; i < 3; ++i) {
    const QueryRecord& source = test::GrabCorpus().records[i];
    QueryRecord copy;
    copy.id = source.id;
    copy.sql = source.sql;
    copy.plan = source.plan->Clone();
    copy.metrics = source.metrics;
    clean.push_back(std::move(copy));
  }
  const std::string trace = SerializeTrace(clean);
  // A junk prefix, a blank one, a last line that starts like a header, and
  // a text with no record at all.
  const std::string texts[] = {"junk before\n#QUER\n" + trace,
                               "\n  \n" + trace + "#QUER", trace,
                               "no record here\n#QUERY\n#QUERY"};
  for (const std::string& text : texts) {
    const std::vector<std::string> expected = ReferenceChunks(text);
    ASSERT_FALSE(expected.empty());
    EXPECT_EQ(CutPieces({text}), expected);
    for (size_t split = 0; split <= text.size(); ++split) {
      const std::string_view view = text;
      ASSERT_EQ(CutPieces({view.substr(0, split), view.substr(split)}),
                expected)
          << "split at " << split;
    }
  }
}

TEST(TraceRecordCutterTest, HostileTracesCutTheSameInAnyPieceSize) {
  for (const std::string& trace : test::HostileTraces()) {
    const std::vector<std::string> expected = ReferenceChunks(trace);
    for (size_t size : {1, 2, 7, 64, 4096}) {
      ASSERT_EQ(CutPieces(Pieces(trace, size)), expected) << "pieces of " << size;
    }
  }
}

TEST(TraceRecordCutterTest, FailingChunkStopsTheCut) {
  size_t calls = 0;
  TraceRecordCutter cutter([&](std::string_view) {
    ++calls;
    return Status::IoError("sink full");
  });
  EXPECT_TRUE(cutter.Feed("#QUERY 1\n").ok());
  EXPECT_EQ(cutter.Feed("#QUERY 2\n").code(), StatusCode::kIoError);
  EXPECT_EQ(calls, 1u);
}

TEST(StreamedIngestTest, FileAndMemoryIngestMatchPerRecordIngest) {
  // Every hostile trace, then all of them back to back: megabytes, so the
  // file is read in many pieces and records straddle piece boundaries.
  std::vector<std::string> traces = test::HostileTraces();
  std::string all;
  for (const std::string& trace : traces) all += trace;
  ASSERT_GT(all.size(), 8 * FileReader::kPieceBytes);
  traces.push_back(all);
  const std::string trace_path = QuarantineTempPath("streamed_trace.txt");
  const std::string memory_log = QuarantineTempPath("streamed_memory.log");
  const std::string file_log = QuarantineTempPath("streamed_file.log");
  for (const std::string& trace : traces) {
    // Reference: each chunk of the whole-text cut ingested on its own.
    std::vector<QueryRecord> expected;
    IngestStats expected_stats;
    for (const std::string& chunk : ReferenceChunks(trace)) {
      auto one = IngestTraceTolerant(chunk, IngestOptions{});
      ASSERT_TRUE(one.ok()) << one.status().ToString();
      for (QueryRecord& record : one->records) {
        expected.push_back(std::move(record));
      }
      expected_stats.accepted += one->stats.accepted;
      expected_stats.quarantined += one->stats.quarantined;
      for (size_t r = 0; r < expected_stats.by_reason.size(); ++r) {
        expected_stats.by_reason[r] += one->stats.by_reason[r];
      }
    }

    std::remove(memory_log.c_str());
    std::remove(file_log.c_str());
    IngestOptions options;
    options.quarantine_path = memory_log;
    auto in_memory = IngestTraceTolerant(trace, options);
    ASSERT_TRUE(in_memory.ok()) << in_memory.status().ToString();
    {
      std::ofstream out(trace_path, std::ios::binary | std::ios::trunc);
      out << trace;
    }
    options.quarantine_path = file_log;
    std::vector<QueryRecord> streamed;
    auto from_file = ReadTraceFileTolerant(
        trace_path, options,
        [&](QueryRecord&& record) { streamed.push_back(std::move(record)); });
    ASSERT_TRUE(from_file.ok()) << from_file.status().ToString();

    const std::string expected_text = SerializeTrace(expected);
    EXPECT_EQ(SerializeTrace(in_memory->records), expected_text);
    EXPECT_EQ(SerializeTrace(streamed), expected_text);
    EXPECT_EQ(in_memory->stats.Summary(), expected_stats.Summary());
    EXPECT_EQ(from_file->Summary(), expected_stats.Summary());
    EXPECT_EQ(from_file->by_reason, expected_stats.by_reason);
    EXPECT_EQ(FileBytes(file_log), FileBytes(memory_log));
  }
  std::remove(trace_path.c_str());
  std::remove(memory_log.c_str());
  std::remove(file_log.c_str());
}

// --------------------------------------------------------------------------
// Lane parity: the lanes parse, the calling thread judges in trace order
// --------------------------------------------------------------------------

/// Everything one ingest configuration shows its caller, once building
/// the plans and keeping each record, and once only checking the plans (as
/// serve does) and taking each record's FallbackSamples sample.
struct LaneOutcome {
  std::string summary;
  std::string quarantine;
  std::vector<std::string> sequence;  // id, SQL and PlanToText per record
  std::vector<uint64_t> sample_bits;  // node counts, then CPU minutes
  std::string checked_summary;
  std::string checked_quarantine;
  std::vector<uint64_t> checked_sample_bits;
};

std::vector<uint64_t> BitsOf(const cost::FallbackSamples& samples) {
  std::vector<uint64_t> bits;
  for (const std::vector<double>* values :
       {&samples.node_counts, &samples.cpu_minutes}) {
    for (double value : *values) {
      uint64_t word = 0;
      std::memcpy(&word, &value, sizeof(word));
      bits.push_back(word);
    }
  }
  return bits;
}

LaneOutcome IngestOnLanes(const std::string& trace, size_t lanes) {
  const std::string log = QuarantineTempPath("lane_parity.log");
  IngestOptions options;
  options.quarantine_path = log;
  options.lanes = lanes;
  LaneOutcome out;

  std::remove(log.c_str());
  cost::FallbackSamples samples;
  auto built = IngestTraceTolerant(trace, options, [&](QueryRecord&& record) {
    out.sequence.push_back(std::to_string(record.id) + "\n" + record.sql +
                           "\n" + plan::PlanToText(*record.plan));
    samples.Add(record);
  });
  EXPECT_TRUE(built.ok()) << built.status().ToString();
  if (built.ok()) out.summary = built->Summary();
  out.quarantine = FileBytes(log);
  out.sample_bits = BitsOf(samples);

  std::remove(log.c_str());
  options.build_plans = false;
  cost::FallbackSamples checked_samples;
  auto checked = IngestTraceTolerant(trace, options, [&](QueryRecord&& record) {
    EXPECT_EQ(record.plan, nullptr);
    checked_samples.Add(record);
  });
  EXPECT_TRUE(checked.ok()) << checked.status().ToString();
  if (checked.ok()) out.checked_summary = checked->Summary();
  out.checked_quarantine = FileBytes(log);
  out.checked_sample_bits = BitsOf(checked_samples);
  std::remove(log.c_str());
  return out;
}

void ExpectSameOutcome(const LaneOutcome& want, const LaneOutcome& got,
                       const std::string& what) {
  EXPECT_EQ(got.summary, want.summary) << what;
  EXPECT_EQ(got.quarantine, want.quarantine) << what;
  EXPECT_EQ(got.sequence, want.sequence) << what;
  EXPECT_EQ(got.sample_bits, want.sample_bits) << what;
  EXPECT_EQ(got.checked_summary, want.checked_summary) << what;
  EXPECT_EQ(got.checked_quarantine, want.checked_quarantine) << what;
  EXPECT_EQ(got.checked_sample_bits, want.checked_sample_bits) << what;
}

/// Ingests `trace` at one lane, then at 2, 3 and 4 lanes, and expects every
/// run to show the caller the same; checking the plans instead of building
/// them must show the same stats, quarantine lines and samples.
void ExpectLaneParity(const std::string& trace, const std::string& name) {
  const LaneOutcome serial = IngestOnLanes(trace, 1);
  EXPECT_EQ(serial.sequence.size() * 2, serial.sample_bits.size()) << name;
  EXPECT_EQ(serial.checked_summary, serial.summary) << name;
  EXPECT_EQ(serial.checked_quarantine, serial.quarantine) << name;
  EXPECT_EQ(serial.checked_sample_bits, serial.sample_bits) << name;
  for (size_t lanes : {2, 3, 4}) {
    ExpectSameOutcome(serial, IngestOnLanes(trace, lanes),
                      name + " at " + std::to_string(lanes) + " lanes");
  }
}

TEST(LaneParityTest, HostileTracesIngestTheSameAtAnyLaneCount) {
  std::vector<std::string> traces = test::HostileTraces();
  std::string all;
  for (const std::string& trace : traces) all += trace;
  // Back to back they fill several windows.
  ASSERT_GT(all.size(), 4 * kIngestWindowBytes);
  traces.push_back(all);
  for (size_t i = 0; i < traces.size(); ++i) {
    ExpectLaneParity(traces[i], "hostile trace " + std::to_string(i));
  }
}

TEST(LaneParityTest, GeneratedTraceIngestsTheSameAtAnyLaneCount) {
  SchemaGenConfig schema_config;
  schema_config.num_tables = 40;
  schema_config.num_days = 7;
  schema_config.seed = 1;
  const GeneratedSchema schema = GenerateSchema(schema_config);
  TraceConfig config;
  config.num_queries = 1200;
  config.num_days = 7;
  config.seed = 2;
  auto records = GenerateGrabTrace(schema, config);
  ASSERT_TRUE(records.ok()) << records.status().ToString();
  ASSERT_EQ(records->size(), 1200u);
  const std::string trace = SerializeTrace(*records);
  ASSERT_GT(trace.size(), 4 * kIngestWindowBytes);
  ExpectLaneParity(trace, "generated trace");
}

TEST(LaneParityTest, QuarantineWriteFailureMidWindowReturnsWithLanesJoined) {
  // Good records with a malformed one after every second; the quarantine
  // file's third line rotates it, and the rotation fails because "<path>.1"
  // is a directory that is not empty. The whole trace is one window, so the
  // lanes have parsed records past the failing one.
  const test::TraceCorpus& grab = test::GrabCorpus();
  std::string trace;
  size_t good = 0;
  for (size_t r = 0; r < 40; ++r) {
    std::vector<QueryRecord> one;
    QueryRecord copy;
    copy.id = grab.records[r].id;
    copy.sql = grab.records[r].sql;
    copy.plan = grab.records[r].plan->Clone();
    copy.metrics = grab.records[r].metrics;
    one.push_back(std::move(copy));
    trace += SerializeTrace(one);
    ++good;
    if (r % 2 == 1) trace += "#QUERY bogus record\n";
  }
  ASSERT_LT(trace.size(), kIngestWindowBytes);
  const std::string log = QuarantineTempPath("lane_failure.log");
  std::filesystem::remove_all(log);
  std::filesystem::remove_all(log + ".1");
  std::filesystem::create_directories(log + ".1");
  { std::ofstream(log + ".1/keep") << "x"; }

  for (size_t lanes : {1, 2, 3, 4}) {
    std::filesystem::remove(log);
    IngestOptions options;
    options.quarantine_path = log;
    options.max_quarantine_bytes = 100;
    options.lanes = lanes;
    size_t emitted = 0;
    auto stats = IngestTraceTolerant(
        trace, options, [&](QueryRecord&&) { ++emitted; });
    ASSERT_FALSE(stats.ok()) << lanes << " lanes";
    EXPECT_EQ(stats.status().code(), StatusCode::kIoError);
    // The two good records before each malformed one were judged before it:
    // the third malformed record fails, after six good ones. The window's
    // buffers die with the return, so a lane still parsing would be a
    // use-after-free (TSan and ASan run this test).
    EXPECT_EQ(emitted, 6u) << lanes << " lanes";
  }
  std::filesystem::remove_all(log);
  std::filesystem::remove_all(log + ".1");
}

}  // namespace
}  // namespace prestroid::workload
