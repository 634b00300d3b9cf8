#include <gtest/gtest.h>

#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "util/histogram.h"
#include "util/memory_tracker.h"
#include "util/random.h"
#include "util/status.h"
#include "util/string_util.h"
#include "util/table_printer.h"
#include "util/text_cursor.h"

namespace prestroid {
namespace {

TEST(StatusTest, OkByDefault) {
  Status status;
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kOk);
  EXPECT_EQ(status.ToString(), "OK");
  EXPECT_TRUE(status.message().empty());
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status status = Status::InvalidArgument("bad value");
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(status.message(), "bad value");
  EXPECT_EQ(status.ToString(), "InvalidArgument: bad value");
}

TEST(StatusTest, CopyPreservesState) {
  Status status = Status::NotFound("missing");
  Status copy = status;
  EXPECT_EQ(copy.code(), StatusCode::kNotFound);
  EXPECT_EQ(copy.message(), "missing");
  // Original unchanged.
  EXPECT_EQ(status.message(), "missing");
  Status assigned;
  assigned = copy;
  EXPECT_EQ(assigned.code(), StatusCode::kNotFound);
}

TEST(StatusTest, AllCodesHaveNames) {
  for (StatusCode code :
       {StatusCode::kOk, StatusCode::kInvalidArgument, StatusCode::kOutOfRange,
        StatusCode::kNotFound, StatusCode::kAlreadyExists,
        StatusCode::kParseError, StatusCode::kUnimplemented,
        StatusCode::kInternal, StatusCode::kIoError,
        StatusCode::kDataCorruption, StatusCode::kResourceExhausted,
        StatusCode::kFailedPrecondition, StatusCode::kUnavailable}) {
    EXPECT_STRNE(StatusCodeToString(code), "Unknown");
  }
}

TEST(StatusTest, UnavailableFactory) {
  Status status = Status::Unavailable("draining");
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kUnavailable);
  EXPECT_EQ(status.ToString(), "Unavailable: draining");
}

TEST(StatusTest, FromErrnoMapsNetworkErrnos) {
  // Peer-gone errnos are retryable, not hard I/O failures.
  EXPECT_EQ(Status::FromErrno("send", ECONNRESET).code(),
            StatusCode::kUnavailable);
  EXPECT_EQ(Status::FromErrno("send", EPIPE).code(), StatusCode::kUnavailable);
  EXPECT_EQ(Status::FromErrno("connect", ECONNREFUSED).code(),
            StatusCode::kUnavailable);
  // Would-block on a non-blocking socket is backpressure, not failure.
  EXPECT_EQ(Status::FromErrno("recv", EAGAIN).code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(Status::FromErrno("recv", EWOULDBLOCK).code(),
            StatusCode::kResourceExhausted);
  // A taken listen address is a distinct, actionable condition.
  EXPECT_EQ(Status::FromErrno("bind 0.0.0.0:80", EADDRINUSE).code(),
            StatusCode::kAlreadyExists);
  // Non-network errnos keep the historical kIoError category.
  EXPECT_EQ(Status::FromErrno("open", ENOENT).code(), StatusCode::kIoError);
  EXPECT_EQ(Status::FromErrno("read", EIO).code(), StatusCode::kIoError);
  // The context/strerror/errno formatting is shared across categories.
  Status reset = Status::FromErrno("send to peer", ECONNRESET);
  EXPECT_NE(reset.message().find("send to peer"), std::string::npos);
  EXPECT_NE(reset.message().find("[errno"), std::string::npos);
}

TEST(StatusTest, DataCorruptionFactory) {
  Status status = Status::DataCorruption("crc mismatch");
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kDataCorruption);
  EXPECT_EQ(status.ToString(), "DataCorruption: crc mismatch");
}

TEST(StatusTest, FromErrnoCarriesContextAndCode) {
  Status status = Status::FromErrno("open /tmp/x", ENOENT);
  EXPECT_EQ(status.code(), StatusCode::kIoError);
  EXPECT_NE(status.message().find("open /tmp/x"), std::string::npos);
  // strerror(ENOENT) text plus the numeric code.
  EXPECT_NE(status.message().find("[errno 2]"), std::string::npos);
  EXPECT_NE(status.message().find("No such file"), std::string::npos);
}

TEST(ResultTest, HoldsValue) {
  Result<int> result = 42;
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(*result, 42);
  EXPECT_EQ(result.value(), 42);
  EXPECT_TRUE(result.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> result = Status::OutOfRange("too big");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kOutOfRange);
}

TEST(ResultTest, MoveOnlyValue) {
  Result<std::unique_ptr<int>> result = std::make_unique<int>(7);
  ASSERT_TRUE(result.ok());
  std::unique_ptr<int> owned = std::move(result).value();
  EXPECT_EQ(*owned, 7);
}

Result<int> Half(int x) {
  if (x % 2 != 0) return Status::InvalidArgument("odd");
  return x / 2;
}

Result<int> Quarter(int x) {
  PRESTROID_ASSIGN_OR_RETURN(int half, Half(x));
  return Half(half);
}

TEST(ResultTest, AssignOrReturnPropagates) {
  EXPECT_EQ(Quarter(8).value(), 2);
  EXPECT_FALSE(Quarter(6).ok());  // 6/2 = 3 is odd
  EXPECT_EQ(Quarter(6).status().code(), StatusCode::kInvalidArgument);
}

TEST(RngTest, DeterministicPerSeed) {
  Rng a(123), b(123), c(124);
  EXPECT_EQ(a.Next(), b.Next());
  EXPECT_EQ(a.Next(), b.Next());
  Rng a2(123);
  EXPECT_NE(a2.Next(), c.Next());
}

TEST(RngTest, UniformDoubleInRange) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    double v = rng.UniformDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RngTest, UniformIntInclusiveBounds) {
  Rng rng(6);
  std::set<int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.UniformInt(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // all values hit
}

TEST(RngTest, GaussianMoments) {
  Rng rng(7);
  double sum = 0.0, sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    double v = rng.Gaussian();
    sum += v;
    sq += v * v;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(RngTest, ParetoHeavyTail) {
  Rng rng(8);
  const int n = 20000;
  int above = 0;
  for (int i = 0; i < n; ++i) {
    double v = rng.Pareto(1.0, 1.5);
    EXPECT_GE(v, 1.0);
    if (v > 10.0) ++above;
  }
  // P(X > 10) = 10^-1.5 ~ 3.16%.
  EXPECT_NEAR(static_cast<double>(above) / n, 0.0316, 0.01);
}

TEST(RngTest, ZipfSkewedTowardsLowRanks) {
  Rng rng(9);
  const size_t n = 100;
  std::vector<int> counts(n, 0);
  for (int i = 0; i < 20000; ++i) {
    size_t rank = rng.Zipf(n, 1.1);
    ASSERT_LT(rank, n);
    ++counts[rank];
  }
  EXPECT_GT(counts[0], counts[10]);
  EXPECT_GT(counts[0], 20000 / 20);  // rank 0 dominates
}

TEST(RngTest, ZipfSingleElement) {
  Rng rng(10);
  EXPECT_EQ(rng.Zipf(1, 1.0), 0u);
}

TEST(RngTest, WeightedIndexFollowsWeights) {
  Rng rng(11);
  std::vector<double> weights = {1.0, 0.0, 3.0};
  int c0 = 0, c2 = 0;
  for (int i = 0; i < 8000; ++i) {
    size_t idx = rng.WeightedIndex(weights);
    ASSERT_NE(idx, 1u);  // zero weight never chosen
    if (idx == 0) ++c0;
    if (idx == 2) ++c2;
  }
  EXPECT_NEAR(static_cast<double>(c2) / c0, 3.0, 0.5);
}

TEST(RngTest, ShufflePermutes) {
  Rng rng(12);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> orig = v;
  rng.Shuffle(&v);
  std::multiset<int> a(v.begin(), v.end()), b(orig.begin(), orig.end());
  EXPECT_EQ(a, b);
}

TEST(RngTest, ForkIsIndependent) {
  Rng parent(13);
  Rng child = parent.Fork();
  EXPECT_NE(parent.Next(), child.Next());
}

TEST(RngTest, StateRoundTripResumesStream) {
  Rng rng(99);
  rng.Next();
  rng.Gaussian();  // leaves a cached Box-Muller value behind
  std::stringstream state;
  rng.SerializeState(state);

  // Consume more values, then rewind via the saved state.
  std::vector<uint64_t> expected;
  {
    Rng copy(1);  // arbitrary seed, fully overwritten by DeserializeState
    std::stringstream replay(state.str());
    ASSERT_TRUE(copy.DeserializeState(replay).ok());
    double g = copy.Gaussian();
    for (int i = 0; i < 4; ++i) expected.push_back(copy.Next());
    EXPECT_NEAR(g, rng.Gaussian(), 0.0);  // cached Gaussian restored exactly
  }
  for (uint64_t v : expected) EXPECT_EQ(rng.Next(), v);
}

TEST(RngTest, DeserializeRejectsGarbage) {
  Rng rng(1);
  std::stringstream bad("not an rng record");
  EXPECT_FALSE(rng.DeserializeState(bad).ok());
}

TEST(StringUtilTest, SplitKeepsEmptyFields) {
  auto parts = Split("a,,b", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[1], "");
}

TEST(StringUtilTest, SplitWhitespaceDropsEmpty) {
  auto parts = SplitWhitespace("  hello   world \t x ");
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "hello");
  EXPECT_EQ(parts[2], "x");
}

TEST(StringUtilTest, JoinRoundTrip) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ","), "");
}

TEST(StringUtilTest, TrimBothEnds) {
  EXPECT_EQ(Trim("  x y  "), "x y");
  EXPECT_EQ(Trim("\t\n"), "");
  EXPECT_EQ(Trim(""), "");
}

TEST(StringUtilTest, CaseConversions) {
  EXPECT_EQ(ToUpper("Select"), "SELECT");
  EXPECT_EQ(ToLower("SeLeCt"), "select");
  EXPECT_TRUE(EqualsIgnoreCase("JOIN", "join"));
  EXPECT_FALSE(EqualsIgnoreCase("JOIN", "joins"));
}

TEST(StringUtilTest, PrefixSuffix) {
  EXPECT_TRUE(StartsWith("prestroid", "pre"));
  EXPECT_FALSE(StartsWith("pre", "prestroid"));
  EXPECT_TRUE(EndsWith("model.cc", ".cc"));
  EXPECT_FALSE(EndsWith("model.cc", ".h"));
}

TEST(StringUtilTest, StrFormat) {
  EXPECT_EQ(StrFormat("%d-%s-%.2f", 3, "x", 1.5), "3-x-1.50");
  EXPECT_EQ(StrFormat("%s", ""), "");
}

TEST(TablePrinterTest, AlignsColumns) {
  TablePrinter printer({"Model", "MSE"});
  printer.AddRow({"LogBins", "96.91"});
  printer.AddRow({"Prestroid (32-11-200)", "46.09"});
  std::ostringstream os;
  printer.Print(os);
  std::string out = os.str();
  EXPECT_NE(out.find("Prestroid (32-11-200)"), std::string::npos);
  EXPECT_NE(out.find("| Model"), std::string::npos);
}

TEST(LatencyHistogramTest, EmptyHistogramReportsZeros) {
  LatencyHistogram hist;
  EXPECT_EQ(hist.count(), 0u);
  EXPECT_DOUBLE_EQ(hist.mean(), 0.0);
  EXPECT_DOUBLE_EQ(hist.Percentile(50.0), 0.0);
  EXPECT_DOUBLE_EQ(hist.min(), 0.0);
  EXPECT_DOUBLE_EQ(hist.max(), 0.0);
}

TEST(LatencyHistogramTest, RecordsCountSumAndExtremes) {
  LatencyHistogram hist;
  hist.Record(1.0);
  hist.Record(2.0);
  hist.Record(4.0);
  EXPECT_EQ(hist.count(), 3u);
  EXPECT_DOUBLE_EQ(hist.sum(), 7.0);
  EXPECT_DOUBLE_EQ(hist.mean(), 7.0 / 3.0);
  EXPECT_DOUBLE_EQ(hist.min(), 1.0);
  EXPECT_DOUBLE_EQ(hist.max(), 4.0);
}

TEST(LatencyHistogramTest, PercentilesLandInTheRightBucket) {
  LatencyHistogram hist;
  // 90 fast samples around 1ms, 10 slow around 100ms: p50 must stay near
  // the fast mode and p99 near the slow one (log-bucket resolution is
  // ~1.33x, so a 2x envelope is a safe assertion).
  for (int i = 0; i < 90; ++i) hist.Record(1.0);
  for (int i = 0; i < 10; ++i) hist.Record(100.0);
  const double p50 = hist.Percentile(50.0);
  const double p99 = hist.Percentile(99.0);
  EXPECT_GE(p50, 0.5);
  EXPECT_LE(p50, 2.0);
  EXPECT_GE(p99, 50.0);
  EXPECT_LE(p99, 200.0);
  EXPECT_LE(hist.Percentile(0.0), p50);
  EXPECT_DOUBLE_EQ(hist.Percentile(100.0), hist.Percentile(99.9));
}

TEST(LatencyHistogramTest, OutOfRangeValuesAreClampedNotDropped) {
  LatencyHistogram hist;
  hist.Record(1e-9);  // under the 1us bucket floor
  hist.Record(1e9);   // over the 100s bucket ceiling
  EXPECT_EQ(hist.count(), 2u);
  EXPECT_DOUBLE_EQ(hist.min(), 1e-9);
  EXPECT_DOUBLE_EQ(hist.max(), 1e9);
  // Percentiles clamp to the observed extremes, never NaN/inf midpoints.
  EXPECT_TRUE(std::isfinite(hist.Percentile(50.0)));
  EXPECT_TRUE(std::isfinite(hist.Percentile(99.0)));
}

TEST(LatencyHistogramTest, MergeMatchesSingleThreadedRecording) {
  LatencyHistogram a, b, merged_ref;
  Rng rng(99);
  for (int i = 0; i < 200; ++i) {
    const double v = 0.01 * static_cast<double>(1 + rng.NextUint64(10000));
    (i % 2 == 0 ? a : b).Record(v);
    merged_ref.Record(v);
  }
  LatencyHistogram merged = a;
  merged.Merge(b);
  EXPECT_EQ(merged.count(), merged_ref.count());
  EXPECT_DOUBLE_EQ(merged.sum(), merged_ref.sum());
  EXPECT_DOUBLE_EQ(merged.min(), merged_ref.min());
  EXPECT_DOUBLE_EQ(merged.max(), merged_ref.max());
  for (double p : {10.0, 50.0, 95.0, 99.0}) {
    EXPECT_DOUBLE_EQ(merged.Percentile(p), merged_ref.Percentile(p));
  }
}

TEST(LatencyHistogramTest, MergeWithEmptyIsIdentityBothWays) {
  LatencyHistogram filled, empty;
  filled.Record(1.0);
  filled.Record(10.0);
  filled.Record(100.0);

  LatencyHistogram a = filled;
  a.Merge(empty);  // empty into non-empty: nothing changes
  EXPECT_EQ(a.count(), filled.count());
  EXPECT_DOUBLE_EQ(a.sum(), filled.sum());
  EXPECT_DOUBLE_EQ(a.min(), filled.min());
  EXPECT_DOUBLE_EQ(a.max(), filled.max());
  for (double p : {50.0, 95.0}) {
    EXPECT_DOUBLE_EQ(a.Percentile(p), filled.Percentile(p));
  }

  LatencyHistogram b;  // non-empty into empty: adopts everything, including
  b.Merge(filled);     // the min/max sentinels an empty histogram must not
  EXPECT_EQ(b.count(), filled.count());  // contribute
  EXPECT_DOUBLE_EQ(b.sum(), filled.sum());
  EXPECT_DOUBLE_EQ(b.min(), filled.min());
  EXPECT_DOUBLE_EQ(b.max(), filled.max());
  for (double p : {50.0, 95.0}) {
    EXPECT_DOUBLE_EQ(b.Percentile(p), filled.Percentile(p));
  }
}

TEST(LatencyHistogramTest, MergeOfDisjointRangesSpansBoth) {
  // One worker saw only sub-millisecond requests, another only multi-second
  // ones (shards under a skewed tenant mix look exactly like this).
  LatencyHistogram fast, slow;
  for (int i = 0; i < 50; ++i) fast.Record(0.05);
  for (int i = 0; i < 50; ++i) slow.Record(5000.0);
  LatencyHistogram merged = fast;
  merged.Merge(slow);
  EXPECT_EQ(merged.count(), 100u);
  EXPECT_DOUBLE_EQ(merged.min(), 0.05);
  EXPECT_DOUBLE_EQ(merged.max(), 5000.0);
  // Exactly half the mass in each mode: p25 sits in the fast range, p75 in
  // the slow one (2x envelopes absorb log-bucket resolution).
  EXPECT_LE(merged.Percentile(25.0), 0.1);
  EXPECT_GE(merged.Percentile(75.0), 2500.0);
}

TEST(LatencyHistogramTest, QuantilesStableUnderMergeOrderAndGrouping) {
  // Merging is element-wise bucket addition, so quantiles must not depend on
  // how per-worker histograms are grouped or ordered when the owner folds
  // them together.
  Rng rng(7);
  std::vector<double> samples;
  for (int i = 0; i < 300; ++i) {
    samples.push_back(0.1 * static_cast<double>(1 + rng.NextUint64(5000)));
  }
  LatencyHistogram h1, h2, h3;
  for (size_t i = 0; i < samples.size(); ++i) {
    (i % 3 == 0 ? h1 : i % 3 == 1 ? h2 : h3).Record(samples[i]);
  }
  LatencyHistogram left_fold = h1;   // (h1+h2)+h3
  left_fold.Merge(h2);
  left_fold.Merge(h3);
  LatencyHistogram right_fold = h3;  // (h3+h2)+h1
  right_fold.Merge(h2);
  right_fold.Merge(h1);
  EXPECT_EQ(left_fold.count(), samples.size());
  EXPECT_EQ(right_fold.count(), samples.size());
  for (double p : {1.0, 25.0, 50.0, 90.0, 99.0}) {
    EXPECT_DOUBLE_EQ(left_fold.Percentile(p), right_fold.Percentile(p));
  }
}

TEST(LatencyHistogramTest, CumulativeSnapshotIsExactAndMonotone) {
  LatencyHistogram hist;
  const std::vector<double> samples = {0.5, 0.5, 3.0, 42.0, 1e-4, 2e9};
  for (double s : samples) hist.Record(s);
  const HistogramSnapshot snapshot = hist.CumulativeSnapshot();
  ASSERT_EQ(snapshot.upper_bounds.size(), LatencyHistogram::kNumBuckets);
  ASSERT_EQ(snapshot.cumulative_counts.size(), LatencyHistogram::kNumBuckets);
  EXPECT_EQ(snapshot.count, samples.size());
  double expected_sum = 0.0;
  for (double s : samples) expected_sum += s;
  EXPECT_DOUBLE_EQ(snapshot.sum, expected_sum);
  // Bounds strictly increase and terminate at +inf; cumulative counts are
  // monotone and the +inf bucket accounts for every sample (the Prometheus
  // exposition invariants).
  for (size_t i = 1; i < snapshot.upper_bounds.size(); ++i) {
    EXPECT_LT(snapshot.upper_bounds[i - 1], snapshot.upper_bounds[i]);
    EXPECT_LE(snapshot.cumulative_counts[i - 1], snapshot.cumulative_counts[i]);
  }
  EXPECT_TRUE(std::isinf(snapshot.upper_bounds.back()));
  EXPECT_EQ(snapshot.cumulative_counts.back(), snapshot.count);
  // Exact per-bound counts: samples <= bound, straight from the buckets.
  // 0.5 and 0.5 share a bucket; the underflow (1e-4) and overflow (2e9)
  // samples land in the edge buckets.
  EXPECT_EQ(snapshot.cumulative_counts.front(), 1u);  // the underflow sample
  auto cumulative_at = [&](double value) {
    for (size_t i = 0; i < snapshot.upper_bounds.size(); ++i) {
      if (value <= snapshot.upper_bounds[i]) {
        return snapshot.cumulative_counts[i];
      }
    }
    return snapshot.cumulative_counts.back();
  };
  EXPECT_EQ(cumulative_at(1.0), 3u);    // underflow + the two 0.5s
  EXPECT_EQ(cumulative_at(100.0), 5u);  // + 3.0 and 42.0
}

TEST(LatencyHistogramTest, CumulativeSnapshotSurvivesMerge) {
  LatencyHistogram a, b;
  for (int i = 1; i <= 50; ++i) a.Record(0.1 * i);
  for (int i = 1; i <= 30; ++i) b.Record(10.0 * i);
  LatencyHistogram merged = a;
  merged.Merge(b);
  const HistogramSnapshot sa = a.CumulativeSnapshot();
  const HistogramSnapshot sb = b.CumulativeSnapshot();
  const HistogramSnapshot sm = merged.CumulativeSnapshot();
  EXPECT_EQ(sm.count, sa.count + sb.count);
  EXPECT_DOUBLE_EQ(sm.sum, sa.sum + sb.sum);
  // Merging is element-wise, so every cumulative bucket is the sum of the
  // per-histogram cumulative buckets.
  for (size_t i = 0; i < sm.cumulative_counts.size(); ++i) {
    EXPECT_EQ(sm.cumulative_counts[i],
              sa.cumulative_counts[i] + sb.cumulative_counts[i]);
  }
  EXPECT_EQ(sm.cumulative_counts.back(), sm.count);
}

TEST(LatencyHistogramTest, EmptySnapshotIsAllZeros) {
  const HistogramSnapshot snapshot = LatencyHistogram().CumulativeSnapshot();
  EXPECT_EQ(snapshot.count, 0u);
  EXPECT_DOUBLE_EQ(snapshot.sum, 0.0);
  for (uint64_t c : snapshot.cumulative_counts) EXPECT_EQ(c, 0u);
}

TEST(StatusTest, ResourceExhaustedCode) {
  Status status = Status::ResourceExhausted("queue full");
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(status.ToString(), "ResourceExhausted: queue full");
}

TEST(StatusTest, FailedPreconditionCode) {
  Status status = Status::FailedPrecondition("worker not started");
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(status.ToString(), "FailedPrecondition: worker not started");
}

TEST(MemoryTrackerTest, ChargesReleasesAndTracksPeak) {
  MemoryTracker tracker;  // budget 0: account, never refuse
  EXPECT_TRUE(tracker.TryCharge(100));
  EXPECT_TRUE(tracker.TryCharge(50));
  EXPECT_EQ(tracker.in_use(), 150u);
  EXPECT_EQ(tracker.peak(), 150u);
  tracker.Release(100);
  EXPECT_EQ(tracker.in_use(), 50u);
  EXPECT_EQ(tracker.peak(), 150u);  // peak is sticky
  EXPECT_EQ(tracker.denied(), 0u);
}

TEST(MemoryTrackerTest, BudgetRefusesAndCountsDenials) {
  MemoryTracker tracker(100);
  EXPECT_TRUE(tracker.TryCharge(80));
  EXPECT_FALSE(tracker.TryCharge(21));  // 80 + 21 > 100
  EXPECT_EQ(tracker.denied(), 1u);
  EXPECT_EQ(tracker.in_use(), 80u);  // the refused charge left no residue
  EXPECT_TRUE(tracker.TryCharge(20));
  EXPECT_EQ(tracker.in_use(), 100u);
  tracker.Release(100);
  // Over-release clamps instead of wrapping.
  tracker.Release(1000);
  EXPECT_EQ(tracker.in_use(), 0u);
  const MemoryTrackerStats stats = tracker.Snapshot();
  EXPECT_EQ(stats.budget_bytes, 100u);
  EXPECT_EQ(stats.peak_bytes, 100u);
  EXPECT_EQ(stats.denied, 1u);
}

TEST(TablePrinterTest, DoubleRowFormatting) {
  TablePrinter printer({"w", "a", "b"});
  printer.AddRow("r", {1.23456, 2.0}, 3);
  std::ostringstream os;
  printer.PrintCsv(os);
  EXPECT_EQ(os.str(), "w,a,b\nr,1.235,2.000\n");
}

// What stream extraction (operator>>) made of `token` in the middle of a
// numeric record: the value when it read the token whole, nothing when it
// failed or stopped inside the token (the record's next read then failed on
// the rest, as "0x1p3" leaves "x1p3").
template <typename T>
std::optional<T> StreamReads(const std::string& token) {
  std::istringstream is(token + " ");
  T value{};
  is >> value;
  if (is.fail() || is.peek() != ' ') return std::nullopt;
  return value;
}

template <typename T>
std::optional<T> CursorReads(const std::string& token) {
  const std::string text = token + " ";
  TextCursor in(text);
  T value{};
  if (!in.Number(&value)) return std::nullopt;
  return value;
}

// The cursor accepts a token exactly when stream extraction did, with the
// same bits (so -0 and 0 differ).
template <typename T>
void ExpectReadsAsStream(const std::string& token) {
  const std::optional<T> stream = StreamReads<T>(token);
  const std::optional<T> cursor = CursorReads<T>(token);
  ASSERT_EQ(cursor.has_value(), stream.has_value()) << "'" << token << "'";
  if (stream) {
    EXPECT_EQ(std::memcmp(&*cursor, &*stream, sizeof(T)), 0)
        << "'" << token << "'";
  }
}

TEST(TextCursorTest, FloatTokensReadAsStreamExtractionReadsThem) {
  struct Case {
    const char* token;
    bool float_accepted;
  };
  const Case cases[] = {
      {"0.125", true},
      {"-3.5e-2", true},
      {"+1.5", true},
      {"1.", true},
      {".5", true},
      {"-0", true},
      {"1E5", true},
      {"1e-45", true},   // the least subnormal float
      {"1e-50", true},   // underflows: a zero of its sign
      {"-1e-50", true},
      {"1e-400", true},
      {"0.00000000000000000000000000000000000000000000000000001", true},
      {"1e-99999999999999999999", true},
      {"nan", false},
      {"-nan", false},
      {"NaN", false},
      {"nan(1)", false},
      {"inf", false},
      {"-inf", false},
      {"infinity", false},
      {"1e39", false},   // overflows float, not double
      {"-1e39", false},
      {"1e400", false},
      {"123456789012345678901234567890123456789012", false},
      {"1e99999999999999999999", false},
      {"0x1p3", false},  // hex: from_chars reads "0", the stream "0" too
      {"1.5abc", false},
      {"1e", false},
      {"1e+", false},
      {".", false},
      {"-", false},
      {"+-1", false},
      {"--1", false},
      {"", false},
  };
  for (const Case& c : cases) {
    ExpectReadsAsStream<float>(c.token);
    ExpectReadsAsStream<double>(c.token);
    EXPECT_EQ(CursorReads<float>(c.token).has_value(), c.float_accepted)
        << "'" << c.token << "'";
  }
}

TEST(TextCursorTest, SubnormalFloatsRoundTripBitExactly) {
  const float least = std::numeric_limits<float>::denorm_min();
  const float largest = std::nextafter(std::numeric_limits<float>::min(), 0.f);
  for (float v : {least, -least, 3.0e-41f, largest, -largest}) {
    ASSERT_TRUE(std::fpclassify(v) == FP_SUBNORMAL) << v;
    std::ostringstream os;
    os.precision(9);  // as SaveFile writes
    os << v << "\n";
    const std::string text = os.str();
    TextCursor in(text);
    float back = 0;
    ASSERT_TRUE(in.Number(&back)) << text;
    EXPECT_EQ(std::memcmp(&back, &v, sizeof(float)), 0) << text;
    ExpectReadsAsStream<float>(text.substr(0, text.size() - 1));
  }
}

TEST(TextCursorTest, IntegerTokensReadAsStreamExtractionReadsThem) {
  for (const char* token :
       {"0", "42", "+7", "-0", "-1", "-18446744073709551615",
        "18446744073709551615", "18446744073709551616", "2147483647",
        "2147483648", "-2147483648", "-2147483649", "9223372036854775808",
        "-9223372036854775808", "12x", "0x10", "1.5", "1e3", "", "+", "-",
        "+-1", "--1"}) {
    ExpectReadsAsStream<size_t>(token);
    ExpectReadsAsStream<int>(token);
    ExpectReadsAsStream<int64_t>(token);
  }
}

TEST(TextCursorTest, WordsSplitOnEveryAsciiSpace) {
  TextCursor in(" a\tbc\vd\fe\rf\n\ng ");
  std::vector<std::string> words;
  for (std::string_view word; in.Word(&word);) words.emplace_back(word);
  EXPECT_EQ(words, (std::vector<std::string>{"a", "bc", "d", "e", "f", "g"}));
  TextCursor tags("weights 2\n");
  EXPECT_FALSE(tags.Expect("state"));
  size_t count = 0;
  EXPECT_TRUE(tags.Number(&count));
  EXPECT_EQ(count, 2u);
}

TEST(TextCursorTest, ATokenCutByTheEndOfTheTextFailsToRead) {
  // Every record the artifact writer emits ends in '\n', so a token that
  // runs to the end of its section was cut, and "0.51234" cut to "0.5" is
  // still a number. Stream extraction read it; the cursor does not.
  size_t count = 0;
  float a = 0, b = 0;
  TextCursor whole("weights 2\n0.5 0.25\n");
  EXPECT_TRUE(whole.Expect("weights") && whole.Number(&count) &&
              whole.Number(&a) && whole.Number(&b));
  EXPECT_EQ(b, 0.25f);
  TextCursor cut("weights 2\n0.5 0.2");
  EXPECT_TRUE(cut.Expect("weights") && cut.Number(&count) && cut.Number(&a));
  EXPECT_FALSE(cut.Number(&b));
  for (const char* empty : {"", " \n\t"}) {
    TextCursor in(empty);
    std::string_view word;
    EXPECT_FALSE(in.Word(&word));
  }
}

}  // namespace
}  // namespace prestroid
