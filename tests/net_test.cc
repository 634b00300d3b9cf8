/// Tests for the HTTP/TCP serving front end (src/net/):
///   - bounded HTTP/1.1 parser edge cases: pipelining, truncated and
///     oversized bodies (413), oversized headers (431, before the terminator
///     arrives), bad header names (400), missing Content-Length (411),
///     Transfer-Encoding (501), bad versions (505);
///   - the single StatusCode -> HTTP status table (429 shed / 400 bad input /
///     503 unavailable);
///   - the wire: /healthz, /estimate over plan text and raw SQL, 404/405,
///     X-Deadline-Ms propagation into the runtime's queue-deadline check,
///     X-Tenant routing into quota admission, degraded-tier responses
///     (200 + "degraded": true) when the model tier is absent or the
///     deadline already expired;
///   - /metrics Prometheus exposition: HELP/TYPE for every family, monotone
///     cumulative histogram buckets, le="+Inf" == _count;
///   - connection faults: mid-request hangup, slowloris header timeout
///     (408), over-cap shedding (503), oversized wire bodies;
///   - concurrent clients (run under TSan in CI);
///   - completion wakeups: a miss is written when its batch resolves, an
///     answer-cache hit in the pass that dispatched it, neither waiting for
///     the idle tick;
///   - graceful drain: all parsed in-flight requests answered before exit,
///     zero forced closes, SIGTERM via the real signal path.
#include <gtest/gtest.h>

#include <chrono>
#include <csignal>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "cost/serving_estimator.h"
#include "net/estimate_service.h"
#include "net/http.h"
#include "net/http_client.h"
#include "net/http_server.h"
#include "net/listener.h"
#include "net/metrics.h"
#include "net/signal_handler.h"
#include "plan/plan_node.h"
#include "plan/plan_text.h"
#include "serve/plan_fingerprint.h"
#include "serve/sharded_runtime.h"
#include "sql/ast.h"
#include "sql/parser.h"
#include "workload/trace.h"

namespace prestroid::net {
namespace {

// --------------------------------------------------------------------------
// Parser unit tests (no sockets)
// --------------------------------------------------------------------------

HttpParser DefaultParser() { return HttpParser(16 << 10, 1 << 20); }

TEST(HttpParserTest, ParsesSimpleGet) {
  HttpParser parser = DefaultParser();
  std::string buffer =
      "GET /healthz?input=sql HTTP/1.1\r\nHost: x\r\nX-Foo:  bar \r\n\r\n";
  HttpRequest request;
  ASSERT_EQ(parser.TryParse(&buffer, &request),
            HttpParser::ParseState::kRequest);
  EXPECT_EQ(request.method, "GET");
  EXPECT_EQ(request.path, "/healthz");
  EXPECT_EQ(request.query, "input=sql");
  EXPECT_EQ(request.version, "HTTP/1.1");
  // Header names lowercase, values OWS-trimmed.
  ASSERT_NE(request.FindHeader("x-foo"), nullptr);
  EXPECT_EQ(*request.FindHeader("x-foo"), "bar");
  EXPECT_TRUE(request.KeepAlive());
  EXPECT_TRUE(buffer.empty());
}

TEST(HttpParserTest, PipelinedRequestsParseSequentially) {
  HttpParser parser = DefaultParser();
  std::string buffer =
      "GET /a HTTP/1.1\r\n\r\nPOST /b HTTP/1.1\r\nContent-Length: 3\r\n\r\n"
      "xyzGET /c HTTP/1.1\r\n\r\n";
  HttpRequest request;
  ASSERT_EQ(parser.TryParse(&buffer, &request),
            HttpParser::ParseState::kRequest);
  EXPECT_EQ(request.path, "/a");
  ASSERT_EQ(parser.TryParse(&buffer, &request),
            HttpParser::ParseState::kRequest);
  EXPECT_EQ(request.path, "/b");
  EXPECT_EQ(request.body, "xyz");
  ASSERT_EQ(parser.TryParse(&buffer, &request),
            HttpParser::ParseState::kRequest);
  EXPECT_EQ(request.path, "/c");
  EXPECT_EQ(parser.TryParse(&buffer, &request),
            HttpParser::ParseState::kNeedMore);
}

TEST(HttpParserTest, TruncatedHeaderAndBodyNeedMore) {
  HttpParser parser = DefaultParser();
  std::string buffer = "POST /estimate HTTP/1.1\r\nContent-Le";
  HttpRequest request;
  EXPECT_EQ(parser.TryParse(&buffer, &request),
            HttpParser::ParseState::kNeedMore);
  buffer = "POST /e HTTP/1.1\r\nContent-Length: 10\r\n\r\nhalf";
  EXPECT_EQ(parser.TryParse(&buffer, &request),
            HttpParser::ParseState::kNeedMore);
  // The partial request stays in the buffer untouched.
  EXPECT_NE(buffer.find("half"), std::string::npos);
}

TEST(HttpParserTest, OversizedBodyRejected413BeforeBodyArrives) {
  HttpParser parser(16 << 10, /*max_body_bytes=*/100);
  std::string buffer = "POST /e HTTP/1.1\r\nContent-Length: 101\r\n\r\n";
  HttpRequest request;
  ASSERT_EQ(parser.TryParse(&buffer, &request),
            HttpParser::ParseState::kError);
  EXPECT_EQ(parser.error_code(), 413);
}

TEST(HttpParserTest, OversizedHeadersRejected431WithoutTerminator) {
  HttpParser parser(/*max_header_bytes=*/64, 1 << 20);
  // No terminator in sight: the slowloris guard must fire on size alone.
  std::string buffer = "GET / HTTP/1.1\r\nX-Pad: " + std::string(100, 'a');
  HttpRequest request;
  ASSERT_EQ(parser.TryParse(&buffer, &request),
            HttpParser::ParseState::kError);
  EXPECT_EQ(parser.error_code(), 431);
}

TEST(HttpParserTest, BadHeaderNameRejected400) {
  HttpParser parser = DefaultParser();
  std::string buffer = "GET / HTTP/1.1\r\nBad Header: x\r\n\r\n";
  HttpRequest request;
  ASSERT_EQ(parser.TryParse(&buffer, &request),
            HttpParser::ParseState::kError);
  EXPECT_EQ(parser.error_code(), 400);
}

TEST(HttpParserTest, PostWithoutContentLengthRejected411) {
  HttpParser parser = DefaultParser();
  std::string buffer = "POST /estimate HTTP/1.1\r\nHost: x\r\n\r\n";
  HttpRequest request;
  ASSERT_EQ(parser.TryParse(&buffer, &request),
            HttpParser::ParseState::kError);
  EXPECT_EQ(parser.error_code(), 411);
}

TEST(HttpParserTest, NonChunkedTransferEncodingRejected501) {
  HttpParser parser = DefaultParser();
  std::string buffer = "POST /e HTTP/1.1\r\nTransfer-Encoding: gzip\r\n\r\n";
  HttpRequest request;
  ASSERT_EQ(parser.TryParse(&buffer, &request),
            HttpParser::ParseState::kError);
  EXPECT_EQ(parser.error_code(), 501);
}

TEST(HttpParserTest, ChunkedBodyDecoded) {
  HttpParser parser = DefaultParser();
  std::string buffer =
      "POST /e HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
      "5\r\nhello\r\n6\r\n world\r\n0\r\n\r\nGET / HTTP/1.1\r\n\r\n";
  HttpRequest request;
  ASSERT_EQ(parser.TryParse(&buffer, &request),
            HttpParser::ParseState::kRequest);
  EXPECT_EQ(request.body, "hello world");
  // The pipelined follow-up request survives intact.
  ASSERT_EQ(parser.TryParse(&buffer, &request),
            HttpParser::ParseState::kRequest);
  EXPECT_EQ(request.method, "GET");
}

TEST(HttpParserTest, UnsupportedVersionRejected505) {
  HttpParser parser = DefaultParser();
  std::string buffer = "GET / HTTP/2.0\r\n\r\n";
  HttpRequest request;
  ASSERT_EQ(parser.TryParse(&buffer, &request),
            HttpParser::ParseState::kError);
  EXPECT_EQ(parser.error_code(), 505);
}

TEST(HttpParserTest, MalformedRequestLineRejected400) {
  HttpParser parser = DefaultParser();
  std::string buffer = "GARBAGE\r\n\r\n";
  HttpRequest request;
  ASSERT_EQ(parser.TryParse(&buffer, &request),
            HttpParser::ParseState::kError);
  EXPECT_EQ(parser.error_code(), 400);
}

TEST(HttpParserTest, BareLfTerminatorAccepted) {
  HttpParser parser = DefaultParser();
  std::string buffer = "GET /lf HTTP/1.1\nHost: x\n\n";
  HttpRequest request;
  ASSERT_EQ(parser.TryParse(&buffer, &request),
            HttpParser::ParseState::kRequest);
  EXPECT_EQ(request.path, "/lf");
}

TEST(HttpParserTest, Http10DefaultsToClose) {
  HttpParser parser = DefaultParser();
  std::string buffer = "GET / HTTP/1.0\r\n\r\n";
  HttpRequest request;
  ASSERT_EQ(parser.TryParse(&buffer, &request),
            HttpParser::ParseState::kRequest);
  EXPECT_FALSE(request.KeepAlive());
  buffer = "GET / HTTP/1.1\r\nConnection: close\r\n\r\n";
  ASSERT_EQ(parser.TryParse(&buffer, &request),
            HttpParser::ParseState::kRequest);
  EXPECT_FALSE(request.KeepAlive());
}

// --------------------------------------------------------------------------
// Status -> HTTP table and host:port parsing
// --------------------------------------------------------------------------

TEST(HttpStatusTableTest, MapsServingStatusesToWireCodes) {
  EXPECT_EQ(HttpStatusForCode(StatusCode::kOk), 200);
  EXPECT_EQ(HttpStatusForCode(StatusCode::kInvalidArgument), 400);
  EXPECT_EQ(HttpStatusForCode(StatusCode::kParseError), 400);
  EXPECT_EQ(HttpStatusForCode(StatusCode::kNotFound), 404);
  EXPECT_EQ(HttpStatusForCode(StatusCode::kResourceExhausted), 429);
  EXPECT_EQ(HttpStatusForCode(StatusCode::kUnavailable), 503);
  EXPECT_EQ(HttpStatusForCode(StatusCode::kFailedPrecondition), 503);
  EXPECT_EQ(HttpStatusForCode(StatusCode::kUnimplemented), 501);
  EXPECT_EQ(HttpStatusForCode(StatusCode::kInternal), 500);
  EXPECT_EQ(HttpStatusForCode(StatusCode::kIoError), 500);
}

TEST(ParseHostPortTest, SplitsAndValidates) {
  std::string host;
  uint16_t port = 0;
  ASSERT_TRUE(ParseHostPort("127.0.0.1:8080", &host, &port).ok());
  EXPECT_EQ(host, "127.0.0.1");
  EXPECT_EQ(port, 8080);
  ASSERT_TRUE(ParseHostPort(":9090", &host, &port).ok());
  EXPECT_EQ(host, "0.0.0.0");
  EXPECT_EQ(port, 9090);
  EXPECT_FALSE(ParseHostPort("nocolon", &host, &port).ok());
  EXPECT_FALSE(ParseHostPort("h:70000", &host, &port).ok());
  EXPECT_FALSE(ParseHostPort("h:abc", &host, &port).ok());
}

// --------------------------------------------------------------------------
// Wire-level fixture: sharded runtime (fallbacks only) behind the server
// --------------------------------------------------------------------------

class NetTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    workload::SchemaGenConfig schema_config;
    schema_config.num_tables = 10;
    schema_config.num_days = 10;
    schema_config.seed = 31;
    workload::GeneratedSchema schema = workload::GenerateSchema(schema_config);
    workload::TraceConfig trace_config;
    trace_config.num_queries = 30;
    trace_config.num_days = 10;
    trace_config.seed = 32;
    records_ = new std::vector<workload::QueryRecord>(
        workload::GenerateGrabTrace(schema, trace_config).ValueOrDie());
    plan_text_ = new std::string(plan::PlanToText(*(*records_)[0].plan));

    // A deliberately tiny pipeline: the deadline-propagation test needs a
    // model tier present (the admission check consults the deadline only
    // after confirming a pipeline is attached).
    core::PipelineConfig config;
    config.word2vec.dim = 8;
    config.word2vec.min_count = 2;
    config.word2vec.epochs = 1;
    config.sampler.node_limit = 16;
    config.sampler.conv_layers = 3;
    config.num_subtrees = 2;
    config.use_subtrees = true;
    config.conv_channels = {4, 4, 4};
    config.dense_units = {4};
    std::vector<size_t> train_indices(records_->size());
    for (size_t i = 0; i < train_indices.size(); ++i) train_indices[i] = i;
    auto pipeline =
        core::PrestroidPipeline::Fit(*records_, train_indices, config)
            .ValueOrDie();
    artifact_path_ = new std::string(::testing::TempDir() + "/net_model.bin");
    ASSERT_TRUE(pipeline->SaveFile(*artifact_path_).ok());
  }
  static void TearDownTestSuite() {
    delete records_;
    delete plan_text_;
    delete artifact_path_;
  }

  static std::vector<workload::QueryRecord>* records_;
  static std::string* plan_text_;
  static std::string* artifact_path_;
};

std::vector<workload::QueryRecord>* NetTest::records_ = nullptr;
std::string* NetTest::plan_text_ = nullptr;
std::string* NetTest::artifact_path_ = nullptr;

struct TestServerOptions {
  size_t shards = 1;
  size_t max_connections = 64;
  size_t max_body_bytes = 1 << 20;
  size_t header_timeout_ms = 10000;
  size_t drain_timeout_ms = 5000;
  size_t max_batch = 32;
  int drain_fd = -1;
  /// Artifact to load into each estimator's model tier (empty = no model,
  /// i.e. every estimate runs the degradation chain).
  std::string model_artifact;
};

/// A full in-process stack: estimators (fallback tiers only — the model tier
/// is deliberately absent so every estimate exercises the degradation
/// chain), sharded runtime, estimate service, and the event loop on its own
/// thread. The destructor drains gracefully and tears down in the documented
/// order (loop exit -> runtime Shutdown -> service Shutdown).
class TestServer {
 public:
  TestServer(const std::vector<workload::QueryRecord>& records,
             TestServerOptions options = {}) {
    cost::ServingLimits limits;
    limits.default_deadline_ms = 50.0;
    std::vector<cost::ServingEstimator*> raw;
    for (size_t s = 0; s < options.shards; ++s) {
      auto estimator = std::make_unique<cost::ServingEstimator>(limits);
      EXPECT_TRUE(estimator->FitFallbacks(records).ok());
      if (!options.model_artifact.empty()) {
        estimator->AttachPipeline(
            core::PrestroidPipeline::LoadFile(options.model_artifact)
                .ValueOrDie());
      }
      raw.push_back(estimator.get());
      estimators_.push_back(std::move(estimator));
    }
    serve::ShardedRuntimeConfig runtime_config;
    runtime_config.shards = options.shards;
    runtime_config.shard.max_batch = options.max_batch;
    runtime_ = std::make_unique<serve::ShardedServingRuntime>(raw,
                                                              runtime_config);
    EXPECT_TRUE(runtime_->Start().ok());

    HttpServerConfig server_config;
    server_config.host = "127.0.0.1";
    server_config.port = 0;  // ephemeral: parallel ctest runs cannot collide
    server_config.max_connections = options.max_connections;
    server_config.max_body_bytes = options.max_body_bytes;
    server_config.header_timeout_ms = options.header_timeout_ms;
    server_config.drain_timeout_ms = options.drain_timeout_ms;
    server_ = std::make_unique<HttpServer>(server_config);
    EXPECT_TRUE(server_->Start().ok());
    service_ = std::make_unique<EstimateService>(runtime_.get());
    service_->RegisterRoutes(server_.get());
    const int drain_fd = options.drain_fd;
    loop_ = std::thread([this, drain_fd]() {
      run_status_ = server_->Run(drain_fd);
    });
  }

  ~TestServer() { Stop(); }

  void Stop() {
    if (loop_.joinable()) {
      server_->RequestDrain();
      loop_.join();
      runtime_->Shutdown();
      service_->Shutdown();
    }
  }

  /// Joins the loop after an externally triggered drain (e.g. SIGTERM).
  void AwaitExit() {
    if (loop_.joinable()) {
      loop_.join();
      runtime_->Shutdown();
      service_->Shutdown();
    }
  }

  uint16_t port() const { return server_->port(); }
  HttpServer& server() { return *server_; }
  serve::ShardedServingRuntime& runtime() { return *runtime_; }
  EstimateService& service() { return *service_; }
  const Status& run_status() const { return run_status_; }
  HttpClient Client() { return HttpClient("127.0.0.1", port()); }

  /// Polls a server-side condition with a deadline, so tests never sleep
  /// blind.
  template <typename Predicate>
  bool WaitFor(Predicate predicate, int timeout_ms = 5000) {
    for (int waited = 0; waited < timeout_ms; ++waited) {
      if (predicate()) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return predicate();
  }

 private:
  std::vector<std::unique_ptr<cost::ServingEstimator>> estimators_;
  std::unique_ptr<serve::ShardedServingRuntime> runtime_;
  std::unique_ptr<HttpServer> server_;
  std::unique_ptr<EstimateService> service_;
  std::thread loop_;
  Status run_status_;
};

TEST_F(NetTest, HealthzAnswersOk) {
  TestServer ts(*records_);
  HttpClient client = ts.Client();
  auto response = client.Get("/healthz");
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->code, 200);
  EXPECT_NE(response->body.find("\"status\": \"ok\""), std::string::npos);
  EXPECT_NE(response->body.find("\"shards\": 1"), std::string::npos);
}

TEST_F(NetTest, EstimatePlanTextServesDegradedWithoutModel) {
  TestServer ts(*records_);
  HttpClient client = ts.Client();
  auto response = client.Post("/estimate", *plan_text_);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  // The model tier is absent, so the degradation chain answers — still 200:
  // availability through fallback tiers is the contract, not an error.
  EXPECT_EQ(response->code, 200);
  EXPECT_NE(response->body.find("\"cpu_minutes\""), std::string::npos);
  EXPECT_NE(response->body.find("\"degraded\": true"), std::string::npos);
  EXPECT_NE(response->body.find("\"tier\": \"log-binning\""),
            std::string::npos);
  // The per-tier counter is visible at /metrics.
  auto metrics = client.Get("/metrics");
  ASSERT_TRUE(metrics.ok());
  EXPECT_NE(metrics->body.find("prestroid_serving_estimates_by_tier_total{"
                               "tier=\"log-binning\"} 1"),
            std::string::npos);
}

TEST_F(NetTest, EstimateAcceptsRawSql) {
  TestServer ts(*records_);
  HttpClient client = ts.Client();
  const std::string sql =
      "SELECT a.x, b.y FROM t1 AS a INNER JOIN t2 AS b ON (a.id = b.id) "
      "WHERE a.x > 10";
  auto response = client.Post("/estimate", sql,
                              {{"Content-Type", "application/sql"}});
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->code, 200) << response->body;
  EXPECT_NE(response->body.find("\"cpu_minutes\""), std::string::npos);
  // The query-parameter spelling works too.
  auto via_query = client.Post("/estimate?input=sql", sql);
  ASSERT_TRUE(via_query.ok());
  EXPECT_EQ(via_query->code, 200) << via_query->body;
}

TEST_F(NetTest, BadInputsMapThroughStatusTable) {
  TestServer ts(*records_);
  HttpClient client = ts.Client();
  auto garbage = client.Post("/estimate", "not a plan at all");
  ASSERT_TRUE(garbage.ok());
  EXPECT_EQ(garbage->code, 400);
  EXPECT_NE(garbage->body.find("\"error\""), std::string::npos);
  auto empty = client.Post("/estimate", "");
  ASSERT_TRUE(empty.ok());
  EXPECT_EQ(empty->code, 400);
  auto bad_sql = client.Post("/estimate?input=sql", "SELEKT nope");
  ASSERT_TRUE(bad_sql.ok());
  EXPECT_EQ(bad_sql->code, 400);
  auto bad_deadline = client.Post("/estimate", *plan_text_,
                                  {{"X-Deadline-Ms", "soon"}});
  ASSERT_TRUE(bad_deadline.ok());
  EXPECT_EQ(bad_deadline->code, 400);
}

TEST_F(NetTest, UnknownRoutesGet404And405) {
  TestServer ts(*records_);
  HttpClient client = ts.Client();
  auto missing = client.Get("/nope");
  ASSERT_TRUE(missing.ok());
  EXPECT_EQ(missing->code, 404);
  auto wrong_method = client.Get("/estimate");
  ASSERT_TRUE(wrong_method.ok());
  EXPECT_EQ(wrong_method->code, 405);
}

TEST_F(NetTest, DeadlineHeaderPropagatesToQueueDeadline) {
  TestServerOptions options;
  options.model_artifact = *artifact_path_;
  TestServer ts(*records_, options);
  HttpClient client = ts.Client();
  // With the model tier attached, a generous deadline is served by it.
  auto fast = client.Post("/estimate", *plan_text_,
                          {{"X-Deadline-Ms", "60000"}});
  ASSERT_TRUE(fast.ok());
  EXPECT_EQ(fast->code, 200);
  EXPECT_NE(fast->body.find("\"tier\": \"model\""), std::string::npos);
  EXPECT_NE(fast->body.find("\"degraded\": false"), std::string::npos);
  // A deadline this tight always expires while queued; the runtime must see
  // it (deadline_skips) and the response must be served degraded anyway.
  auto response = client.Post("/estimate", *plan_text_,
                              {{"X-Deadline-Ms", "0.000001"}});
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->code, 200);
  EXPECT_NE(response->body.find("\"degraded\": true"), std::string::npos);
  EXPECT_GE(ts.runtime().StatsSnapshot().deadline_skips, 1u);
}

TEST_F(NetTest, TenantHeaderRoutesIntoQuotaAdmission) {
  TestServer ts(*records_);
  serve::TenantQuota quota;
  quota.max_in_flight = 1;
  ts.runtime().SetTenantQuota(7, quota);
  HttpClient client = ts.Client();
  auto response = client.Post("/estimate", *plan_text_,
                              {{"X-Tenant", "7"}});
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->code, 200);
  const auto tenants = ts.runtime().TenantSnapshot();
  bool saw_tenant_7 = false;
  for (const auto& t : tenants) saw_tenant_7 |= (t.tenant == 7);
  EXPECT_TRUE(saw_tenant_7);
  auto bad = client.Post("/estimate", *plan_text_, {{"X-Tenant", "-3"}});
  ASSERT_TRUE(bad.ok());
  EXPECT_EQ(bad->code, 400);
}

TEST_F(NetTest, PipelinedRequestsAnsweredInOrder) {
  TestServer ts(*records_);
  HttpClient client = ts.Client();
  ASSERT_TRUE(client
                  .SendRaw("GET /healthz HTTP/1.1\r\n\r\n"
                           "GET /nope HTTP/1.1\r\n\r\n"
                           "GET /healthz HTTP/1.1\r\n\r\n")
                  .ok());
  auto first = client.ReadResponse();
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->code, 200);
  auto second = client.ReadResponse();
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->code, 404);
  auto third = client.ReadResponse();
  ASSERT_TRUE(third.ok());
  EXPECT_EQ(third->code, 200);
}

TEST_F(NetTest, OversizedWireBodyGets413AndCloses) {
  TestServerOptions options;
  options.max_body_bytes = 256;
  TestServer ts(*records_, options);
  HttpClient client = ts.Client();
  auto response = client.Post("/estimate", std::string(1000, 'x'));
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->code, 413);
  // Protocol errors always close (the stream may be unsynchronized).
  ASSERT_NE(response->FindHeader("connection"), nullptr);
  EXPECT_EQ(*response->FindHeader("connection"), "close");
}

TEST_F(NetTest, WireProtocolErrorsMapToCodes) {
  TestServer ts(*records_);
  {
    HttpClient client = ts.Client();
    ASSERT_TRUE(
        client.SendRaw("POST /estimate HTTP/1.1\r\nHost: x\r\n\r\n").ok());
    auto response = client.ReadResponse();
    ASSERT_TRUE(response.ok());
    EXPECT_EQ(response->code, 411);
  }
  {
    HttpClient client = ts.Client();
    ASSERT_TRUE(client
                    .SendRaw("POST /e HTTP/1.1\r\n"
                             "Transfer-Encoding: gzip\r\n\r\n")
                    .ok());
    auto response = client.ReadResponse();
    ASSERT_TRUE(response.ok());
    EXPECT_EQ(response->code, 501);
  }
  {
    HttpClient client = ts.Client();
    ASSERT_TRUE(client.SendRaw("GET / HTTP/3.0\r\n\r\n").ok());
    auto response = client.ReadResponse();
    ASSERT_TRUE(response.ok());
    EXPECT_EQ(response->code, 505);
  }
}

TEST_F(NetTest, MidRequestHangupCountsAborted) {
  TestServer ts(*records_);
  {
    HttpClient client = ts.Client();
    ASSERT_TRUE(client
                    .SendRaw("POST /estimate HTTP/1.1\r\n"
                             "Content-Length: 1000\r\n\r\npartial")
                    .ok());
    // Give the loop a chance to read the partial request first.
    ASSERT_TRUE(ts.WaitFor(
        [&]() { return ts.server().StatsSnapshot().connections_accepted >= 1; }));
    client.Close();
  }
  EXPECT_TRUE(ts.WaitFor(
      [&]() { return ts.server().StatsSnapshot().connections_aborted >= 1; }));
}

TEST_F(NetTest, SlowlorisHitsHeaderTimeout408) {
  TestServerOptions options;
  options.header_timeout_ms = 50;
  TestServer ts(*records_, options);
  HttpClient client = ts.Client();
  ASSERT_TRUE(client.SendRaw("GET /healthz HTTP/1.1\r\nX-Slow: tri").ok());
  auto response = client.ReadResponse();  // blocks until the guard fires
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->code, 408);
  EXPECT_GE(ts.server().StatsSnapshot().header_timeouts, 1u);
}

TEST_F(NetTest, ConnectionCapShedsWith503) {
  TestServerOptions options;
  options.max_connections = 1;
  TestServer ts(*records_, options);
  HttpClient first = ts.Client();
  auto keep = first.Get("/healthz");  // occupies the single slot
  ASSERT_TRUE(keep.ok());
  ASSERT_EQ(keep->code, 200);
  HttpClient second = ts.Client();
  auto shed = second.Get("/healthz");
  ASSERT_TRUE(shed.ok()) << shed.status().ToString();
  EXPECT_EQ(shed->code, 503);
  EXPECT_EQ(ts.server().StatsSnapshot().connections_rejected, 1u);
}

// ----------------------------------------------------------------------
// /metrics exposition format
// ----------------------------------------------------------------------

/// Validates the Prometheus text format invariants the scraper relies on:
/// every sample belongs to a family announced by HELP+TYPE, histogram
/// cumulative buckets are monotone with strictly increasing bounds, and the
/// le="+Inf" bucket equals _count.
void ValidateMetricsText(const std::string& text) {
  std::set<std::string> typed;
  std::map<std::string, std::vector<std::pair<double, uint64_t>>> buckets;
  std::map<std::string, uint64_t> counts;
  size_t pos = 0;
  while (pos < text.size()) {
    size_t end = text.find('\n', pos);
    if (end == std::string::npos) end = text.size();
    const std::string line = text.substr(pos, end - pos);
    pos = end + 1;
    if (line.empty()) continue;
    if (line.rfind("# TYPE ", 0) == 0) {
      const size_t space = line.find(' ', 7);
      ASSERT_NE(space, std::string::npos) << line;
      typed.insert(line.substr(7, space - 7));
      continue;
    }
    if (line.rfind("#", 0) == 0) continue;  // HELP
    const size_t name_end = line.find_first_of("{ ");
    ASSERT_NE(name_end, std::string::npos) << line;
    std::string name = line.substr(0, name_end);
    std::string family = name;
    for (const char* suffix : {"_bucket", "_sum", "_count"}) {
      const std::string s(suffix);
      if (family.size() > s.size() &&
          family.compare(family.size() - s.size(), s.size(), s) == 0 &&
          typed.count(family.substr(0, family.size() - s.size())) > 0) {
        family = family.substr(0, family.size() - s.size());
      }
    }
    EXPECT_EQ(typed.count(family), 1u)
        << "sample before/without TYPE: " << line;
    const size_t le = line.find("le=\"");
    if (le != std::string::npos) {
      const size_t le_end = line.find('"', le + 4);
      const std::string bound_text = line.substr(le + 4, le_end - le - 4);
      const double bound = bound_text == "+Inf"
                               ? std::numeric_limits<double>::infinity()
                               : std::strtod(bound_text.c_str(), nullptr);
      const uint64_t value = std::strtoull(
          line.substr(line.rfind(' ') + 1).c_str(), nullptr, 10);
      buckets[family].emplace_back(bound, value);
    } else if (name.size() > 6 &&
               name.compare(name.size() - 6, 6, "_count") == 0) {
      counts[name.substr(0, name.size() - 6)] = std::strtoull(
          line.substr(line.rfind(' ') + 1).c_str(), nullptr, 10);
    }
  }
  ASSERT_FALSE(buckets.empty());
  for (const auto& [family, series] : buckets) {
    ASSERT_GE(series.size(), 2u) << family;
    for (size_t i = 1; i < series.size(); ++i) {
      EXPECT_LT(series[i - 1].first, series[i].first) << family;
      EXPECT_LE(series[i - 1].second, series[i].second)
          << family << " bucket " << i << " not monotone";
    }
    EXPECT_TRUE(std::isinf(series.back().first)) << family;
    ASSERT_EQ(counts.count(family), 1u) << family;
    EXPECT_EQ(series.back().second, counts[family])
        << family << ": +Inf bucket != _count";
  }
}

TEST_F(NetTest, MetricsExpositionIsWellFormed) {
  TestServer ts(*records_);
  HttpClient client = ts.Client();
  for (int i = 0; i < 3; ++i) {
    auto response = client.Post("/estimate", *plan_text_);
    ASSERT_TRUE(response.ok());
    ASSERT_EQ(response->code, 200);
  }
  auto metrics = client.Get("/metrics");
  ASSERT_TRUE(metrics.ok());
  ASSERT_EQ(metrics->code, 200);
  ASSERT_NE(metrics->FindHeader("content-type"), nullptr);
  EXPECT_NE(metrics->FindHeader("content-type")->find("text/plain"),
            std::string::npos);
  ValidateMetricsText(metrics->body);
  // Spot-check counters reflect the traffic above.
  EXPECT_NE(metrics->body.find("prestroid_serving_requests_total 3"),
            std::string::npos);
  EXPECT_NE(metrics->body.find("prestroid_request_latency_ms_count 3"),
            std::string::npos);
}

// ----------------------------------------------------------------------
// Concurrency and drain
// ----------------------------------------------------------------------

TEST_F(NetTest, ConcurrentClientsAllServed) {
  TestServerOptions options;
  options.shards = 2;
  TestServer ts(*records_, options);
  constexpr int kThreads = 8;
  constexpr int kRequestsEach = 8;
  std::vector<std::thread> clients;
  std::atomic<int> ok_count{0};
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t]() {
      HttpClient client("127.0.0.1", ts.port());
      for (int i = 0; i < kRequestsEach; ++i) {
        auto response = (t + i) % 2 == 0
                            ? client.Post("/estimate", *plan_text_)
                            : client.Get("/healthz");
        if (response.ok() && response->code == 200) ++ok_count;
      }
    });
  }
  for (std::thread& thread : clients) thread.join();
  EXPECT_EQ(ok_count.load(), kThreads * kRequestsEach);
  const HttpServerStats stats = ts.server().StatsSnapshot();
  EXPECT_EQ(stats.requests, static_cast<uint64_t>(kThreads * kRequestsEach));
}

TEST_F(NetTest, DrainServesEveryParsedInFlightRequest) {
  TestServerOptions options;
  options.max_batch = 64;
  TestServer ts(*records_, options);
  // With the shard's serving lock held no batch can run, so every estimate
  // stays genuinely in flight until the drain has begun.
  std::unique_lock<std::mutex> serving = ts.runtime().shard(0).LockServing();
  constexpr int kClients = 6;
  std::vector<std::thread> clients;
  std::atomic<int> ok_count{0};
  for (int i = 0; i < kClients; ++i) {
    clients.emplace_back([&]() {
      HttpClient client("127.0.0.1", ts.port());
      auto response = client.Post("/estimate", *plan_text_);
      if (response.ok() && response->code == 200) ++ok_count;
    });
  }
  // Wait until every request is parsed and in flight, then drain.
  ASSERT_TRUE(ts.WaitFor([&]() {
    return ts.server().StatsSnapshot().requests >= kClients;
  }));
  ts.server().RequestDrain();
  // The drain closes the listener first, so a refused connect means it has
  // begun.
  EXPECT_TRUE(ts.WaitFor([&]() {
    HttpClient probe("127.0.0.1", ts.port());
    return !probe.Connect().ok();
  }));
  serving.unlock();
  for (std::thread& thread : clients) thread.join();
  ts.AwaitExit();
  // Zero dropped in-flight requests, zero forced closes.
  EXPECT_EQ(ok_count.load(), kClients);
  EXPECT_EQ(ts.server().StatsSnapshot().forced_drain_closes, 0u);
  EXPECT_TRUE(ts.run_status().ok());
  EXPECT_GT(ts.server().drain_latency_ms(), 0.0);
  EXPECT_EQ(ts.service().InflightCount(), 0u);
}

TEST_F(NetTest, SigtermDrainsViaSignalHandler) {
  SignalHandler signals;
  ASSERT_TRUE(signals.Install().ok());
  // A second install must refuse (process-global handler state).
  {
    SignalHandler another;
    EXPECT_EQ(another.Install().code(), StatusCode::kFailedPrecondition);
  }
  TestServerOptions options;
  options.drain_fd = signals.drain_fd();
  TestServer ts(*records_, options);
  HttpClient client = ts.Client();
  auto response = client.Post("/estimate", *plan_text_);
  ASSERT_TRUE(response.ok());
  ASSERT_EQ(response->code, 200);
  // The real signal path: SIGTERM -> self-pipe -> drain -> clean exit.
  ::raise(SIGTERM);
  ts.AwaitExit();
  EXPECT_TRUE(signals.drain_requested());
  EXPECT_TRUE(ts.run_status().ok());
  EXPECT_EQ(ts.server().StatsSnapshot().forced_drain_closes, 0u);
}

TEST_F(NetTest, RequestsDuringDrainGet503) {
  // Exercised at the parser/dispatch layer: BeginDrain then a request.
  // (Over the wire the drain usually wins the race and just closes.)
  TestServer ts(*records_);
  HttpClient client = ts.Client();
  auto before = client.Get("/healthz");
  ASSERT_TRUE(before.ok());
  ASSERT_EQ(before->code, 200);
  // Send a request and immediately drain; the response must be either a
  // served 200 (parsed before the drain) or a 503 (parsed after) — never a
  // silently dropped connection.
  ASSERT_TRUE(client.SendRaw("GET /healthz HTTP/1.1\r\n\r\n").ok());
  ts.server().RequestDrain();
  auto raced = client.ReadResponse();
  ASSERT_TRUE(raced.ok()) << raced.status().ToString();
  EXPECT_TRUE(raced->code == 200 || raced->code == 503) << raced->code;
  ts.AwaitExit();
  EXPECT_TRUE(ts.run_status().ok());
}

// ----------------------------------------------------------------------
// Completion wakeups
// ----------------------------------------------------------------------

TEST_F(NetTest, CompletionWakeupAnswersSequentialRequestsWithoutTheIdleTick) {
  // Every request misses the answer cache and resolves on the batch worker;
  // the worker's completion wakeup, not the loop's 50 ms idle tick, gets
  // each response written (20 ticks would take about a second).
  TestServerOptions options;
  options.model_artifact = *artifact_path_;
  TestServer ts(*records_, options);
  // Small plans keep the model's share of the time low, so the test
  // measures the wakeup and not featurization speed.
  std::vector<std::string> bodies;
  std::set<uint64_t> fingerprints;
  for (int i = 0; i < 20; ++i) {
    const plan::PlanNodePtr plan = plan::MakeFilter(
        sql::MakeCompare(">", sql::MakeColumn("t", "v"), sql::MakeNumber(i)),
        plan::MakeTableScan("t"));
    fingerprints.insert(serve::FingerprintPlan(*plan));
    bodies.push_back(plan::PlanToText(*plan));
  }
  ASSERT_EQ(fingerprints.size(), 20u);
  HttpClient client = ts.Client();
  ASSERT_TRUE(client.Get("/healthz").ok());  // connect outside the clock
  const auto start = std::chrono::steady_clock::now();
  for (const std::string& body : bodies) {
    auto response = client.Post("/estimate", body);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    ASSERT_EQ(response->code, 200);
    EXPECT_NE(response->body.find("\"tier\": \"model\""), std::string::npos);
  }
  const double elapsed_ms = std::chrono::duration<double, std::milli>(
                                std::chrono::steady_clock::now() - start)
                                .count();
  EXPECT_LT(elapsed_ms, 250.0);
  const cost::ServingStats stats = ts.runtime().StatsSnapshot();
  EXPECT_EQ(stats.cache_misses, 20u);
  EXPECT_EQ(stats.cache_hits, 0u);
}

TEST_F(NetTest, RepeatedPlanIsAnsweredInTheDispatchPass) {
  TestServerOptions options;
  options.model_artifact = *artifact_path_;
  TestServer ts(*records_, options);
  HttpClient client = ts.Client();
  auto first = client.Post("/estimate", *plan_text_);
  ASSERT_TRUE(first.ok());
  ASSERT_NE(first->body.find("\"tier\": \"model\""), std::string::npos);

  // With the shard's serving lock held no batch can run and no completion
  // wakeup can fire, so a prompt answer can only come from the cache hit
  // being polled in the pass that dispatched it; otherwise it would wait
  // for the 50 ms idle tick.
  std::unique_lock<std::mutex> serving = ts.runtime().shard(0).LockServing();
  const auto start = std::chrono::steady_clock::now();
  auto repeated = client.Post("/estimate", *plan_text_);
  const double elapsed_ms = std::chrono::duration<double, std::milli>(
                                std::chrono::steady_clock::now() - start)
                                .count();
  serving.unlock();
  ASSERT_TRUE(repeated.ok());
  EXPECT_EQ(repeated->code, 200);
  EXPECT_NE(repeated->body.find("\"tier\": \"model\""), std::string::npos);
  EXPECT_LT(elapsed_ms, 25.0);
  EXPECT_EQ(ts.runtime().StatsSnapshot().cache_hits, 1u);
}

TEST(HttpServerTest, CompletionNotifierOutlivesTheServer) {
  std::function<void()> notify;
  {
    HttpServer server;
    notify = server.CompletionNotifier();
    notify();
  }
  notify();  // the pipe is still owned by the notifier: no closed-fd write
}

// ----------------------------------------------------------------------
// Catalog synthesis for raw SQL
// ----------------------------------------------------------------------

TEST(SynthesizeCatalogTest, BuildsTablesAndColumnsFromStatement) {
  auto stmt = sql::ParseSelect(
                  "SELECT a.x, b.y, z FROM t1 AS a "
                  "INNER JOIN t2 AS b ON (a.id = b.id) WHERE a.x > 10")
                  .ValueOrDie();
  auto catalog = SynthesizeCatalog(*stmt).ValueOrDie();
  EXPECT_TRUE(catalog.HasTable("t1"));
  EXPECT_TRUE(catalog.HasTable("t2"));
  const plan::TableDef* t1 = catalog.GetTable("t1").ValueOrDie();
  EXPECT_NE(t1->FindColumn("x"), nullptr);
  EXPECT_NE(t1->FindColumn("id"), nullptr);
  // Unqualified columns land in every table so resolution always succeeds.
  EXPECT_NE(t1->FindColumn("z"), nullptr);
  const plan::TableDef* t2 = catalog.GetTable("t2").ValueOrDie();
  EXPECT_NE(t2->FindColumn("y"), nullptr);
}

}  // namespace
}  // namespace prestroid::net
