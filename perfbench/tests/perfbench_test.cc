// Unit tests of the benchmark's own measurement helpers.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "load_gen.h"
#include "spans.h"
#include "stats.h"
#include "wire.h"

namespace perfbench {
namespace {

TEST(PercentileTest, InterpolatesBetweenExactSamples) {
  const std::vector<double> samples = {4.0, 1.0, 3.0, 2.0};  // unsorted
  EXPECT_DOUBLE_EQ(Percentile(samples, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(Percentile(samples, 100.0), 4.0);
  EXPECT_DOUBLE_EQ(Percentile(samples, 50.0), 2.5);
  // rank = 0.9 * 3 = 2.7 -> 3 + 0.7 * (4 - 3)
  EXPECT_DOUBLE_EQ(Percentile(samples, 90.0), 3.7);
  EXPECT_DOUBLE_EQ(Median({7.0}), 7.0);
  EXPECT_DOUBLE_EQ(Percentile({}, 50.0), 0.0);
}

TEST(PercentileTest, ResolvesValuesABucketedHistogramWouldMerge) {
  // 1.540 and 2.054 ms fall into adjacent 8-per-decade buckets; exact
  // samples keep them apart.
  std::vector<double> a(100, 1.0);
  std::vector<double> b(100, 1.0);
  a.back() = 1.540;
  b.back() = 2.054;
  EXPECT_NE(Percentile(a, 100.0), Percentile(b, 100.0));
  EXPECT_DOUBLE_EQ(Percentile(b, 100.0), 2.054);
}

TEST(PercentileTest, ReportsSampleCountAndSamplesBeyond) {
  std::vector<double> sorted;
  for (int i = 1; i <= 1000; ++i) sorted.push_back(i);
  const PercentileReport p99 = ReportPercentile(sorted, 99.0);
  EXPECT_EQ(p99.count, 1000u);
  EXPECT_DOUBLE_EQ(p99.value, 990.01);
  EXPECT_EQ(p99.beyond, 10u);
  EXPECT_EQ(FormatPercentile("p99", p99, "ms"),
            "p99=990.0100ms (n=1000, 10 beyond)");
}

TEST(QErrorTest, IsSymmetricAndAtLeastOne) {
  EXPECT_DOUBLE_EQ(QError(2.0, 4.0), 2.0);
  EXPECT_DOUBLE_EQ(QError(4.0, 2.0), 2.0);
  EXPECT_DOUBLE_EQ(QError(3.0, 3.0), 1.0);
  EXPECT_GT(QError(0.0, 1.0), 1e5);
}

Span MakeSpan(const char* name, int64_t start, int64_t end, int64_t parent) {
  Span span;
  span.name = name;
  span.start_ns = start;
  span.end_ns = end;
  span.parent = parent;
  return span;
}

TEST(SpanTest, SelfTimeSubtractsChildren) {
  SpanRecorder spans;
  spans.Add(MakeSpan("request", 0, 100, -1));      // 0
  spans.Add(MakeSpan("parse", 10, 30, 0));         // 1
  spans.Add(MakeSpan("submit", 40, 90, 0));        // 2
  spans.Add(MakeSpan("featurize", 50, 70, 2));     // 3
  const std::vector<int64_t> self = spans.SelfTimesNs();
  EXPECT_EQ(self[0], 100 - 20 - 50);
  EXPECT_EQ(self[1], 20);
  EXPECT_EQ(self[2], 50 - 20);
  EXPECT_EQ(self[3], 20);
}

TEST(SpanTest, OverlappingChildrenCountOnceAndAreClippedToTheParent) {
  SpanRecorder spans;
  spans.Add(MakeSpan("root", 100, 200, -1));
  spans.Add(MakeSpan("a", 110, 150, 0));
  spans.Add(MakeSpan("b", 140, 170, 0));  // overlaps a by 10
  spans.Add(MakeSpan("c", 190, 260, 0));  // runs past the parent's end
  spans.Add(MakeSpan("d", 50, 105, 0));   // starts before the parent
  const std::vector<int64_t> self = spans.SelfTimesNs();
  // covered: [100,105) + [110,170) + [190,200) = 5 + 60 + 10
  EXPECT_EQ(self[0], 100 - 75);
}

TEST(WireTest, ReadsPipelinedResponsesSplitAcrossReads) {
  const std::string body = "{\"cpu_minutes\": 12.5, \"tier\": \"model\"}";
  const std::string first =
      "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: " +
      std::to_string(body.size()) + "\r\n\r\n" + body;
  const std::string second = "HTTP/1.1 429 Too Many\r\ncontent-length: 2\r\n\r\nno";
  const std::string bytes = first + second;
  ResponseReader reader;
  WireResponse response;
  reader.Append(bytes.data(), 20);
  EXPECT_EQ(reader.Next(&response), ResponseReader::State::kNeedMore);
  reader.Append(bytes.data() + 20, bytes.size() - 20);
  ASSERT_EQ(reader.Next(&response), ResponseReader::State::kResponse);
  EXPECT_EQ(response.status, 200);
  double minutes = 0.0;
  bool model = false;
  ASSERT_TRUE(ParseEstimateBody(response.body, &minutes, &model));
  EXPECT_DOUBLE_EQ(minutes, 12.5);
  EXPECT_TRUE(model);
  ASSERT_EQ(reader.Next(&response), ResponseReader::State::kResponse);
  EXPECT_EQ(response.status, 429);
  EXPECT_EQ(response.body, "no");
  EXPECT_TRUE(reader.empty());
}

TEST(WireTest, RejectsChunkedAndUnframedResponses) {
  ResponseReader chunked;
  const std::string a = "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n";
  chunked.Append(a.data(), a.size());
  WireResponse response;
  EXPECT_EQ(chunked.Next(&response), ResponseReader::State::kError);
  ResponseReader unframed;
  const std::string b = "HTTP/1.1 200 OK\r\n\r\n";
  unframed.Append(b.data(), b.size());
  EXPECT_EQ(unframed.Next(&response), ResponseReader::State::kError);
}

TEST(WireTest, BuildsAFramedPost) {
  EXPECT_EQ(BuildPost("/estimate", "application/sql", "SELECT 1"),
            "POST /estimate HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Type: "
            "application/sql\r\nContent-Length: 8\r\n\r\nSELECT 1");
}

}  // namespace
}  // namespace perfbench
