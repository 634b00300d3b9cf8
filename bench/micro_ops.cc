// google-benchmark microbenchmarks for the performance-critical kernels:
// matmul, tree convolution, sub-tree sampling, Word2Vec training steps, and
// plan parsing/featurization throughput.
//
// Invoked with --sweep, runs a serial-vs-parallel scaling sweep instead:
// the destination-passing matmul and tree-convolution kernels at
// threads in {1, 2, 4, hardware}, reporting per-shape speedup over the
// single-thread baseline (every thread count computes the same bits).
//
// Invoked with --json <path>, times the blocked kernels on model-shaped
// GEMMs and end-to-end tree-convolution forward+backward, plus the
// repack-per-call panel GEMM against the resident pre-packed
// panels at serving shapes and the frozen CLI-shape trunk forward over
// ragged vs padded served batches and over real featurized GRAB plans
// (median-of-N with warmup), plus the parsing front end (plan text, SQL,
// tolerant trace ingest, and the PlanNode::Clone allocation floor) on the
// perfbench-shaped trace, and the cold load of a CLI-shape model artifact
// (PrestroidPipeline::LoadFile), and writes the machine-readable records
// plus the resident and ragged geomean speedups to <path>
// (BENCH_kernels.json).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench_json.h"
#include "core/featurizer.h"
#include "cost/serving_estimator.h"
#include "core/pipeline.h"
#include "embed/word2vec.h"
#include "nn/tree_conv.h"
#include "otp/otp_tree.h"
#include "plan/plan_text.h"
#include "plan/planner.h"
#include "sql/parser.h"
#include "subtree/subtree_sampler.h"
#include "tensor/execution_context.h"
#include "tensor/kernels/resident_weights.h"
#include "util/logging.h"
#include "util/string_util.h"
#include "util/table_printer.h"
#include "util/thread_pool.h"
#include "workload/query_generator.h"
#include "workload/dataset.h"
#include "workload/schema_generator.h"
#include "workload/trace.h"

/// Every heap block this process allocates, counted so front_end_parse can
/// report blocks per parse. The aligned forms are not replaced.
static std::atomic<uint64_t> g_heap_blocks{0};

void* operator new(size_t size) {
  g_heap_blocks.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
// Out of line, so the compiler pairs each delete with the new above instead
// of seeing free() meet operator new's pointer.
__attribute__((noinline)) void operator delete(void* p) noexcept {
  std::free(p);
}
__attribute__((noinline)) void operator delete(void* p, size_t) noexcept {
  std::free(p);
}

namespace prestroid {
namespace {

/// `batch` heap-shaped trees of `nodes` rows each in the ragged row layout
/// (node i's children are 2i+1 / 2i+2 of its own tree), or childless rows
/// with `with_children` false.
TreeStructure CompleteTrees(size_t batch, size_t nodes,
                            bool with_children = true) {
  TreeStructure structure;
  structure.left.assign(batch * nodes, -1);
  structure.right.assign(batch * nodes, -1);
  structure.mask.assign(batch * nodes, 1.0f);
  for (size_t b = 0; b <= batch; ++b) structure.offsets.push_back(b * nodes);
  if (!with_children) return structure;
  for (size_t b = 0; b < batch; ++b) {
    const int base = static_cast<int>(b * nodes);
    for (size_t i = 0; 2 * i + 2 < nodes; ++i) {
      structure.left[b * nodes + i] = base + static_cast<int>(2 * i + 1);
      structure.right[b * nodes + i] = base + static_cast<int>(2 * i + 2);
    }
  }
  return structure;
}

/// out = a @ b + bias as an unfrozen Dense forward runs it: b packed into
/// `panel` on every call, then the panel GEMM.
void RepackedGemm(ResidentWeights* panel, Tensor* out, const Tensor& a,
                  const Tensor& b, const Tensor& bias, ExecutionContext* ctx) {
  panel->Pack(b);
  panel->Gemm(out, a, bias, ctx);
}

void BM_MatMul(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Rng rng(1);
  Tensor a = Tensor::Random({n, n}, &rng);
  Tensor b = Tensor::Random({n, n}, &rng);
  const Tensor bias({n});
  ExecutionContext ctx(1);
  ResidentWeights panel;
  Tensor c;
  for (auto _ : state) {
    RepackedGemm(&panel, &c, a, b, bias, &ctx);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * n * n * n);
}
BENCHMARK(BM_MatMul)->Arg(32)->Arg(128)->Arg(256);

void BM_TreeConvForward(benchmark::State& state) {
  const size_t batch = 32, nodes = static_cast<size_t>(state.range(0));
  const size_t in_dim = 64, out_dim = 64;
  Rng rng(2);
  TreeConvLayer conv(in_dim, out_dim, &rng);
  const TreeStructure structure = CompleteTrees(batch, nodes);
  Tensor features = Tensor::Random({batch, nodes, in_dim}, &rng);
  for (auto _ : state) {
    Tensor out = conv.Forward(features, structure);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_TreeConvForward)->Arg(15)->Arg(63)->Arg(255);

void BM_TreeConvBackward(benchmark::State& state) {
  const size_t batch = 32, nodes = static_cast<size_t>(state.range(0));
  Rng rng(3);
  TreeConvLayer conv(64, 64, &rng);
  const TreeStructure structure =
      CompleteTrees(batch, nodes, /*with_children=*/false);
  Tensor features = Tensor::Random({batch, nodes, 64}, &rng);
  Tensor grad = Tensor::Random({batch, nodes, 64}, &rng);
  conv.Forward(features, structure);
  for (auto _ : state) {
    Tensor gx = conv.Backward(grad);
    benchmark::DoNotOptimize(gx.data());
  }
}
BENCHMARK(BM_TreeConvBackward)->Arg(15)->Arg(63);

void BM_SubtreeSampling(benchmark::State& state) {
  // Complete binary tree with state.range(0) levels.
  std::function<otp::OtpNodePtr(size_t)> build = [&](size_t depth) {
    auto node = std::make_unique<otp::OtpNode>();
    node->type = otp::OtpNodeType::kOperator;
    if (depth > 0) {
      node->left = build(depth - 1);
      node->right = build(depth - 1);
    }
    return node;
  };
  otp::OtpNodePtr root = build(static_cast<size_t>(state.range(0)));
  subtree::SubtreeSamplerConfig config;
  config.node_limit = 16;
  config.conv_layers = 3;
  for (auto _ : state) {
    auto samples = subtree::SampleSubtrees(*root, config).ValueOrDie();
    benchmark::DoNotOptimize(samples.data());
  }
}
BENCHMARK(BM_SubtreeSampling)->Arg(6)->Arg(9)->Arg(11);

void BM_ParseAndPlan(benchmark::State& state) {
  workload::SchemaGenConfig schema_config;
  schema_config.num_tables = 40;
  schema_config.seed = 4;
  workload::GeneratedSchema schema = workload::GenerateSchema(schema_config);
  workload::QueryGenerator generator(&schema);
  plan::Planner planner(&schema.catalog);
  std::vector<std::string> queries;
  for (uint64_t i = 0; i < 32; ++i) {
    queries.push_back(generator.Generate(30, i * 7 + 1, i));
  }
  size_t cursor = 0;
  for (auto _ : state) {
    auto stmt = sql::ParseSelect(queries[cursor % queries.size()]).ValueOrDie();
    auto plan_tree = planner.Plan(*stmt).ValueOrDie();
    benchmark::DoNotOptimize(plan_tree.get());
    ++cursor;
  }
}
BENCHMARK(BM_ParseAndPlan);

void BM_Word2VecEpoch(benchmark::State& state) {
  std::vector<std::vector<std::string>> corpus;
  Rng rng(5);
  for (int s = 0; s < 400; ++s) {
    std::vector<std::string> sentence;
    for (int t = 0; t < 6; ++t) {
      sentence.push_back("tok" + std::to_string(rng.NextUint64(80)));
    }
    corpus.push_back(std::move(sentence));
  }
  for (auto _ : state) {
    embed::Word2VecConfig config;
    config.dim = 32;
    config.min_count = 1;
    config.epochs = 1;
    embed::Word2Vec model(config);
    benchmark::DoNotOptimize(model.Train(corpus).ok());
  }
}
BENCHMARK(BM_Word2VecEpoch);

void BM_RecastPlan(benchmark::State& state) {
  workload::SchemaGenConfig schema_config;
  schema_config.num_tables = 40;
  schema_config.seed = 6;
  workload::GeneratedSchema schema = workload::GenerateSchema(schema_config);
  workload::QueryGenerator generator(&schema);
  plan::Planner planner(&schema.catalog);
  auto stmt = sql::ParseSelect(generator.Generate(30, 12345, 1)).ValueOrDie();
  auto plan_tree = planner.Plan(*stmt).ValueOrDie();
  for (auto _ : state) {
    auto tree = otp::RecastPlan(*plan_tree).ValueOrDie();
    benchmark::DoNotOptimize(tree.root.get());
  }
}
BENCHMARK(BM_RecastPlan);

}  // namespace

// ---------------------------------------------------------------------------
// --sweep: serial-vs-parallel scaling of the ExecutionContext kernels.
// ---------------------------------------------------------------------------

namespace {

/// Best-of-`reps` wall time of `fn` in milliseconds (one untimed warm-up).
template <typename Fn>
double BestMs(const Fn& fn, int reps = 3) {
  fn();
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    const auto start = std::chrono::steady_clock::now();
    fn();
    const double ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - start)
                          .count();
    best = std::min(best, ms);
  }
  return best;
}

/// The sweep's thread ladder: 1, 2, 4, and the machine, deduplicated.
std::vector<size_t> ThreadLadder() {
  std::vector<size_t> ladder = {1, 2, 4, ThreadPool::HardwareConcurrency()};
  std::sort(ladder.begin(), ladder.end());
  ladder.erase(std::unique(ladder.begin(), ladder.end()), ladder.end());
  return ladder;
}

}  // namespace

void RunScalingSweep() {
  const std::vector<size_t> ladder = ThreadLadder();
  TablePrinter table({"kernel", "shape", "threads", "best ms", "speedup"});

  // Matmul at pipeline-realistic shapes: [batch*K, N*C] x [N*C, units] style
  // products from the dense head plus one deliberately large shape.
  const size_t matmul_shapes[][3] = {
      {128, 256, 256}, {256, 512, 512}, {512, 512, 512}};
  for (const auto& s : matmul_shapes) {
    const size_t m = s[0], k = s[1], n = s[2];
    Rng rng(1);
    const Tensor a = Tensor::Random({m, k}, &rng);
    const Tensor b = Tensor::Random({k, n}, &rng);
    const Tensor bias({n});
    ResidentWeights panel;
    Tensor out;
    double serial_ms = 0.0;
    for (size_t threads : ladder) {
      ExecutionContext ctx(threads);
      const double ms =
          BestMs([&] { RepackedGemm(&panel, &out, a, b, bias, &ctx); });
      if (threads == 1) serial_ms = ms;
      table.AddRow({"matmul", StrFormat("%zux%zux%zu", m, k, n),
                    StrFormat("%zu", threads), StrFormat("%.2f", ms),
                    StrFormat("%.2fx", serial_ms / ms)});
    }
  }

  // Tree convolution, forward + backward, at the sub-tree pipeline's shape
  // regime (node_limit 15) and a full-tree-sized variant.
  const size_t conv_shapes[][3] = {{256, 15, 128}, {64, 255, 64}};
  for (const auto& s : conv_shapes) {
    const size_t batch = s[0], nodes = s[1], dim = s[2];
    Rng rng(2);
    TreeConvLayer conv(dim, dim, &rng);
    const TreeStructure structure = CompleteTrees(batch, nodes);
    const Tensor features = Tensor::Random({batch, nodes, dim}, &rng);
    const Tensor grad = Tensor::Random({batch, nodes, dim}, &rng);
    double serial_ms = 0.0;
    for (size_t threads : ladder) {
      ExecutionContext ctx(threads);
      conv.set_context(&ctx);
      const double ms = BestMs([&] {
        conv.Forward(features, structure);
        conv.Backward(grad);
      });
      if (threads == 1) serial_ms = ms;
      table.AddRow({"tree-conv fwd+bwd",
                    StrFormat("%zux%zux%zu", batch, nodes, dim),
                    StrFormat("%zu", threads), StrFormat("%.2f", ms),
                    StrFormat("%.2fx", serial_ms / ms)});
    }
    conv.set_context(nullptr);
  }

  table.Print(std::cout);
  std::cout << "hardware threads: " << ThreadPool::HardwareConcurrency()
            << "\n";
  if (ThreadPool::HardwareConcurrency() == 1) {
    std::cout << "NOTE: single hardware thread — all thread counts time-share "
                 "one core, so speedups are bounded at ~1.0x; ratios near "
                 "1.0x measure the pool's overhead, not its scaling.\n";
  }
}

// ---------------------------------------------------------------------------
// --json <path>: machine-readable kernel benchmark.
// ---------------------------------------------------------------------------

namespace {

struct KernelBenchRecord {
  std::string op;      // "gemm" | "tree_conv_fwd_bwd" | "serving_gemm"
  std::string shape;   // "MxKxN" / "BATCHxNODESxDIM"
  std::string kernel;  // "blocked" | "resident" | "resident_padded"
  size_t threads = 1;
  double ns_per_iter = 0.0;
  double gflops = 0.0;
};

constexpr int kJsonReps = 5;    // timed runs per record (median taken)
constexpr int kJsonWarmup = 1;  // untimed warm-up runs per record

/// Median wall time of `fn` in nanoseconds: `kJsonWarmup` untimed runs, then
/// the median of `kJsonReps` timed ones.
template <typename Fn>
double MedianNs(const Fn& fn) {
  for (int w = 0; w < kJsonWarmup; ++w) fn();
  std::vector<double> ns;
  ns.reserve(kJsonReps);
  for (int r = 0; r < kJsonReps; ++r) {
    const auto start = std::chrono::steady_clock::now();
    fn();
    ns.push_back(std::chrono::duration<double, std::nano>(
                     std::chrono::steady_clock::now() - start)
                     .count());
  }
  std::sort(ns.begin(), ns.end());
  return ns[ns.size() / 2];
}

/// Geomean of base/fast time ratios over all records of `op`, pairing each
/// `fast` kernel record with the `base` kernel record of the same shape.
double GeomeanSpeedup(const std::vector<KernelBenchRecord>& records,
                      const std::string& op, const std::string& fast,
                      const std::string& base) {
  double log_sum = 0.0;
  size_t count = 0;
  for (const KernelBenchRecord& f : records) {
    if (f.op != op || f.kernel != fast) continue;
    for (const KernelBenchRecord& b : records) {
      if (b.op != op || b.kernel != base || b.shape != f.shape ||
          b.threads != f.threads) {
        continue;
      }
      log_sum += std::log(b.ns_per_iter / f.ns_per_iter);
      ++count;
    }
  }
  return count == 0 ? 0.0 : std::exp(log_sum / static_cast<double>(count));
}

/// A served batch of `batch` queries at the CLI shape (K = 9 trees of at
/// most N = 15 nodes) with the ad-hoc size mix: 4-9 trees per query, 9-15
/// nodes per tree (~6.5 trees and ~78 real rows of the padded 135). With
/// `padded`, every one of the K slots is padded to N rows (zero features,
/// no vote, no children) — the B·K·N layout the paper's accounting charges.
TreeStructure AdhocServedBatch(size_t batch, bool padded, Rng* rng) {
  constexpr size_t kTrees = 9, kNodes = 15;
  TreeStructure structure;
  structure.offsets.push_back(0);
  for (size_t q = 0; q < batch; ++q) {
    const size_t trees = 4 + static_cast<size_t>(rng->UniformInt(0, 5));
    for (size_t t = 0; t < kTrees; ++t) {
      const size_t nodes =
          t < trees ? 9 + static_cast<size_t>(rng->UniformInt(0, 6)) : 0;
      const size_t base = structure.left.size();
      const size_t slot = padded ? kNodes : nodes;
      for (size_t i = 0; i < slot; ++i) {
        const bool real = i < nodes;
        structure.left.push_back(real && 2 * i + 1 < nodes
                                     ? static_cast<int>(base + 2 * i + 1)
                                     : -1);
        structure.right.push_back(real && 2 * i + 2 < nodes
                                      ? static_cast<int>(base + 2 * i + 2)
                                      : -1);
        structure.mask.push_back(real ? 1.0f : 0.0f);
      }
      structure.offsets.push_back(structure.left.size());
    }
  }
  return structure;
}

/// The perfbench-shaped corpus: the warehouse schema (seed 7, 40 tables)
/// and a 1200-query GRAB trace at seed 1, the trace `serve --listen`
/// ingests at startup in perfbench.
std::vector<workload::QueryRecord> PerfbenchShapedTrace() {
  workload::SchemaGenConfig schema_config;
  schema_config.num_tables = 40;
  schema_config.num_days = 30;
  schema_config.seed = 7;
  const workload::GeneratedSchema schema =
      workload::GenerateSchema(schema_config);
  workload::TraceConfig trace_config;
  trace_config.num_queries = 1200;
  trace_config.num_days = 30;
  trace_config.seed = 1;
  return workload::GenerateGrabTrace(schema, trace_config).ValueOrDie();
}

/// The parsing front end on the perfbench-shaped corpus.
struct FrontEndParseRecord {
  size_t records = 0;
  double mean_plan_text_bytes = 0.0;
  double plan_text_us_per_plan = 0.0;
  double plan_text_mb_s = 0.0;
  double sql_us_per_query = 0.0;
  double ingest_ms = 0.0;
  double plan_clone_us_per_plan = 0.0;
  double heap_blocks_per_plan_parse = 0.0;
  double heap_blocks_per_sql_parse = 0.0;
  double serve_ingest_ms = 0.0;  // one parsing lane
  size_t lanes = 1;               // as serve: allowed CPUs, up to 8
  double serve_ingest_ms_all_lanes = 0.0;
};

/// Heap blocks `fn` allocates (operator new calls), over one run.
template <typename Fn>
uint64_t HeapBlocks(Fn&& fn) {
  const uint64_t before = g_heap_blocks.load(std::memory_order_relaxed);
  fn();
  return g_heap_blocks.load(std::memory_order_relaxed) - before;
}

FrontEndParseRecord MeasureFrontEndParse(
    const std::vector<workload::QueryRecord>& trace) {
  const std::string serialized = workload::SerializeTrace(trace);
  std::vector<std::string> plan_texts;
  size_t plan_bytes = 0;
  for (const workload::QueryRecord& record : trace) {
    plan_texts.push_back(plan::PlanToText(*record.plan));
    plan_bytes += plan_texts.back().size();
  }

  FrontEndParseRecord rec;
  rec.records = trace.size();
  const double n = static_cast<double>(trace.size());
  rec.mean_plan_text_bytes = static_cast<double>(plan_bytes) / n;
  const double plan_ns = MedianNs([&] {
    for (const std::string& text : plan_texts) {
      benchmark::DoNotOptimize(plan::ParsePlanText(text).ValueOrDie().get());
    }
  });
  rec.plan_text_us_per_plan = plan_ns / n / 1e3;
  rec.heap_blocks_per_plan_parse =
      static_cast<double>(HeapBlocks([&] {
        for (const std::string& text : plan_texts) {
          benchmark::DoNotOptimize(plan::ParsePlanText(text).ValueOrDie().get());
        }
      })) /
      n;
  rec.heap_blocks_per_sql_parse =
      static_cast<double>(HeapBlocks([&] {
        for (const workload::QueryRecord& record : trace) {
          benchmark::DoNotOptimize(
              sql::ParseSelect(record.sql).ValueOrDie().get());
        }
      })) /
      n;
  rec.plan_text_mb_s = static_cast<double>(plan_bytes) / (plan_ns / 1e3);
  rec.sql_us_per_query = MedianNs([&] {
                           for (const workload::QueryRecord& record : trace) {
                             benchmark::DoNotOptimize(
                                 sql::ParseSelect(record.sql).ValueOrDie().get());
                           }
                         }) /
                         n / 1e3;
  rec.ingest_ms = MedianNs([&] {
                    auto ingested = workload::IngestTraceTolerant(
                        serialized, workload::IngestOptions{});
                    benchmark::DoNotOptimize(ingested->records.data());
                  }) /
                  1e6;
  // What serve --listen runs before it listens: the trace file read
  // through the tolerant ingest, which checks each plan without building
  // it, and each record dropped into FallbackSamples; at one lane and at a
  // lane per CPU the process may run on, as serve runs it (up to 8).
  const std::string trace_path =
      (std::filesystem::temp_directory_path() / "micro_ops_front_end_trace.txt")
          .string();
  PRESTROID_CHECK(workload::WriteTraceFile(trace_path, trace).ok());
  auto serve_ingest_ms = [&](size_t lanes) {
    workload::IngestOptions options;
    options.lanes = lanes;
    options.build_plans = false;
    return MedianNs([&] {
             cost::FallbackSamples samples;
             PRESTROID_CHECK(workload::ReadTraceFileTolerant(
                                 trace_path, options,
                                 [&](workload::QueryRecord&& record) {
                                   samples.Add(record);
                                 })
                                 .ok());
             benchmark::DoNotOptimize(samples.cpu_minutes.data());
           }) /
           1e6;
  };
  rec.serve_ingest_ms = serve_ingest_ms(1);
  rec.lanes = std::min<size_t>(ThreadPool::HardwareConcurrency(), 8);
  rec.serve_ingest_ms_all_lanes = serve_ingest_ms(rec.lanes);
  std::filesystem::remove(trace_path);
  // The allocation floor: a deep copy builds the same nodes and expressions
  // a parse must build, with no lexing or parsing at all.
  rec.plan_clone_us_per_plan = MedianNs([&] {
                                 for (const workload::QueryRecord& record :
                                      trace) {
                                   benchmark::DoNotOptimize(
                                       record.plan->Clone().get());
                                 }
                               }) /
                               n / 1e3;
  std::cout << StrFormat(
      "front_end_parse (%zu records, %.0f B mean plan text): plan text "
      "%.1f us/plan (%.1f MB/s, %.1f heap blocks), SQL %.1f us/query (%.1f "
      "heap blocks), tolerant ingest %.1f ms, serve-shaped ingest %.1f ms "
      "(%zu lanes: %.1f ms), PlanNode::Clone %.1f us/plan\n",
      rec.records, rec.mean_plan_text_bytes, rec.plan_text_us_per_plan,
      rec.plan_text_mb_s, rec.heap_blocks_per_plan_parse, rec.sql_us_per_query,
      rec.heap_blocks_per_sql_parse, rec.ingest_ms, rec.serve_ingest_ms,
      rec.lanes, rec.serve_ingest_ms_all_lanes, rec.plan_clone_us_per_plan);
  return rec;
}

/// The cold model load every serve shard, hot-swap candidate and predict
/// runs: PrestroidPipeline::LoadFile of a CLI-shape artifact (N = 15,
/// K = 9, predicate Word2Vec 32, three 32-channel tree convs, dense 32-16),
/// fitted on the perfbench-shaped corpus as perfbench fits its serving
/// model. The weights are untrained; the load reads the same token count.
struct ArtifactLoadRecord {
  size_t bytes = 0;
  double load_ms = 0.0;
};

ArtifactLoadRecord MeasureArtifactLoad(
    const std::vector<workload::QueryRecord>& trace) {
  core::PipelineConfig config;
  config.sampler.node_limit = 15;
  config.num_subtrees = 9;
  config.word2vec.dim = 32;
  config.word2vec.min_count = 2;
  config.conv_channels.assign(3, 32);
  config.dense_units = {32, 16};
  std::vector<size_t> all(trace.size());
  for (size_t i = 0; i < all.size(); ++i) all[i] = i;
  const std::string path =
      (std::filesystem::temp_directory_path() / "micro_ops_artifact.ppl")
          .string();
  PRESTROID_CHECK(core::PrestroidPipeline::Fit(trace, all, config)
                      .ValueOrDie()
                      ->SaveFile(path)
                      .ok());
  ArtifactLoadRecord rec;
  rec.bytes = std::filesystem::file_size(path);
  rec.load_ms = MedianNs([&] {
                  auto loaded = core::PrestroidPipeline::LoadFile(path);
                  benchmark::DoNotOptimize(loaded.ValueOrDie().get());
                }) /
                1e6;
  std::filesystem::remove(path);
  std::cout << StrFormat("artifact_load (%zu B CLI-shape artifact): %.2f ms\n",
                         rec.bytes, rec.load_ms);
  return rec;
}

}  // namespace

int RunJsonBench(const std::string& path) {
  // The acceptance criteria are single-thread (kernel quality, not pool
  // scaling), and the kernels are bit-identical across thread counts, so
  // one thread is the honest comparison on any machine.
  const size_t threads = 1;
  std::vector<KernelBenchRecord> records;

  // Model-shaped GEMMs: the dense head over conv channels, the lowered tree
  // convolution ([batch*nodes, 3C] x [3C, C]), and a square reference.
  const size_t gemm_shapes[][3] = {
      {128, 256, 256},  // dense head at conv-channel width
      {256, 512, 512},  // paper-scale conv channels / dense input
      {960, 384, 128},  // im2col tree conv: 64 trees x 15 nodes, C=128
      {512, 512, 512},  // square reference
  };
  for (const auto& s : gemm_shapes) {
    const size_t m = s[0], k = s[1], n = s[2];
    Rng rng(1);
    const Tensor a = Tensor::Random({m, k}, &rng);
    const Tensor b = Tensor::Random({k, n}, &rng);
    const Tensor bias({n});
    ResidentWeights panel;
    Tensor out;
    ExecutionContext ctx(threads);
    KernelBenchRecord rec;
    rec.op = "gemm";
    rec.shape = StrFormat("%zux%zux%zu", m, k, n);
    rec.kernel = "blocked";
    rec.threads = threads;
    rec.ns_per_iter =
        MedianNs([&] { RepackedGemm(&panel, &out, a, b, bias, &ctx); });
    rec.gflops = 2.0 * static_cast<double>(m * k * n) / rec.ns_per_iter;
    std::cout << "gemm " << rec.shape << " " << rec.kernel << ": "
              << StrFormat("%.2f", rec.gflops) << " GFLOP/s\n";
    records.push_back(std::move(rec));
  }

  // End-to-end tree convolution forward+backward at the sub-tree pipeline's
  // shape regime and a full-tree-sized variant: the lowering the trainer
  // runs, the nonzero-list window product forward and weight gradient plus
  // the dX GEMM. These random rows are dense, the worst case
  // for the nonzero lists (featurizer rows hold ~3% nonzeros). Nominal
  // FLOPs: three dense GEMMs of [batch*nodes, 3*dim] x [3*dim, dim]
  // (forward, dW, dX), whatever the kernel skips.
  const size_t conv_shapes[][3] = {{256, 15, 128}, {64, 255, 64}};
  for (const auto& s : conv_shapes) {
    const size_t batch = s[0], nodes = s[1], dim = s[2];
    Rng rng(2);
    TreeConvLayer conv(dim, dim, &rng);
    const TreeStructure structure = CompleteTrees(batch, nodes);
    const Tensor features = Tensor::Random({batch, nodes, dim}, &rng);
    const Tensor grad = Tensor::Random({batch, nodes, dim}, &rng);
    const double flops =
        3.0 * 2.0 * static_cast<double>(batch * nodes) * (3.0 * dim) * dim;
    ExecutionContext ctx(threads);
    conv.set_context(&ctx);
    KernelBenchRecord rec;
    rec.op = "tree_conv_fwd_bwd";
    rec.shape = StrFormat("%zux%zux%zu", batch, nodes, dim);
    rec.kernel = "blocked";
    rec.threads = threads;
    rec.ns_per_iter = MedianNs([&] {
      conv.Forward(features, structure);
      conv.Backward(grad);
    });
    rec.gflops = flops / rec.ns_per_iter;
    std::cout << "tree_conv_fwd_bwd " << rec.shape << " " << rec.kernel
              << ": " << StrFormat("%.2f", rec.gflops) << " GFLOP/s\n";
    records.push_back(std::move(rec));
  }

  // Serving-shaped GEMMs (m <= 32, k = 3C for the im2col tree conv): the
  // panel repacked per call, as an unfrozen Dense runs it ("blocked"), vs
  // the resident panel the serving shards freeze
  // (tensor/kernels/resident_weights.h).
  const size_t serving_shapes[][3] = {
      {1, 1152, 128},    // single request through the dense head (3C -> C)
      {8, 1152, 128},    // small fused batch
      {32, 1152, 128},   // max_batch=32 fused forward
      {32, 128, 64},     // dense head tail (C -> units)
  };
  for (const auto& s : serving_shapes) {
    const size_t m = s[0], k = s[1], n = s[2];
    Rng rng(3);
    const Tensor a = Tensor::Random({m, k}, &rng);
    const Tensor b = Tensor::Random({k, n}, &rng);
    const Tensor bias = Tensor::Random({n}, &rng);
    Tensor out;
    const std::string shape = StrFormat("%zux%zux%zu", m, k, n);
    const double flops = 2.0 * static_cast<double>(m * k * n);

    ExecutionContext ctx(threads);
    ResidentWeights repacked;
    KernelBenchRecord blocked;
    blocked.op = "serving_gemm";
    blocked.shape = shape;
    blocked.kernel = "blocked";
    blocked.threads = threads;
    blocked.ns_per_iter =
        MedianNs([&] { RepackedGemm(&repacked, &out, a, b, bias, &ctx); });
    blocked.gflops = flops / blocked.ns_per_iter;
    std::cout << "serving_gemm " << shape << " blocked: "
              << StrFormat("%.2f", blocked.gflops) << " GFLOP/s\n";

    ResidentWeights resident;
    resident.Pack(b);
    KernelBenchRecord rec;
    rec.op = "serving_gemm";
    rec.shape = shape;
    rec.kernel = "resident";
    rec.threads = threads;
    rec.ns_per_iter = MedianNs([&] { resident.Gemm(&out, a, bias, &ctx); });
    rec.gflops = flops / rec.ns_per_iter;
    std::cout << "serving_gemm " << shape << " resident: "
              << StrFormat("%.2f", rec.gflops) << " GFLOP/s ("
              << StrFormat("%.2fx", blocked.ns_per_iter / rec.ns_per_iter)
              << " vs blocked)\n";
    records.push_back(std::move(blocked));
    records.push_back(std::move(rec));
  }

  // The frozen serving forward of the CLI-shape trunk (three 32-channel
  // tree convs over F = 85 node features, about the CLI model's node width,
  // then vote-masked pooling) at batch 1 and 32, over ragged ad-hoc trees
  // ("resident") and the same trees padded to N ("resident_padded").
  // Batch 1 cycles through 32 single-query batches so the size mix, not one
  // draw, sets the number. ns_per_iter is one batch's forward; gflops counts
  // the rows computed. The frozen layers read their input rows through the
  // nonzeros, and these featurizer rows are random and dense: the worst case
  // for that kernel (the real-plan records below show the served case).
  for (size_t batch : {1, 32}) {
    constexpr size_t kFeatures = 85, kChannels = 32, kQueries = 32;
    Rng rng(4);
    std::vector<std::unique_ptr<TreeConvLayer>> trunk;
    trunk.push_back(std::make_unique<TreeConvLayer>(kFeatures, kChannels, &rng));
    trunk.push_back(std::make_unique<TreeConvLayer>(kChannels, kChannels, &rng));
    trunk.push_back(std::make_unique<TreeConvLayer>(kChannels, kChannels, &rng));
    ExecutionContext ctx(threads);
    for (auto& conv : trunk) {
      conv->set_context(&ctx);
      conv->FreezeWeights();
    }
    MaskedDynamicPooling pooling;
    pooling.set_context(&ctx);
    for (bool padded : {false, true}) {
      Rng mix_rng(5);  // the same trees either way
      std::vector<TreeStructure> structures;
      std::vector<Tensor> inputs;
      size_t rows = 0;
      for (size_t q = 0; q < kQueries; q += batch) {
        structures.push_back(AdhocServedBatch(batch, padded, &mix_rng));
        const TreeStructure& structure = structures.back();
        Tensor features =
            Tensor::Random({structure.num_rows(), kFeatures}, &rng);
        for (size_t r = 0; r < structure.num_rows(); ++r) {
          if (structure.mask[r] != 0.0f) continue;
          for (size_t f = 0; f < kFeatures; ++f) features.At(r, f) = 0.0f;
        }
        inputs.push_back(std::move(features));
        rows += structure.num_rows();
      }
      const double forwards = static_cast<double>(structures.size());
      const double flops =
          2.0 * static_cast<double>(rows) / forwards *
          (3.0 * kFeatures * kChannels + 2 * 3.0 * kChannels * kChannels);
      KernelBenchRecord rec;
      rec.op = "tree_conv_forward_served";
      rec.shape = StrFormat("B%zuxK9xN15xF%zuxC%zu", batch, kFeatures,
                            kChannels);
      rec.kernel = padded ? "resident_padded" : "resident";
      rec.threads = threads;
      rec.ns_per_iter = MedianNs([&] {
                          for (size_t i = 0; i < structures.size(); ++i) {
                            const Tensor* x = &inputs[i];
                            for (auto& conv : trunk) {
                              x = &conv->Forward(*x, structures[i]);
                            }
                            pooling.Forward(*x, structures[i]);
                          }
                        }) /
                        forwards;
      rec.gflops = flops / rec.ns_per_iter;
      std::cout << "tree_conv_forward_served " << rec.shape << " "
                << rec.kernel << " ("
                << StrFormat("%.1f", static_cast<double>(rows) / forwards)
                << " rows/batch): "
                << StrFormat("%.1f", rec.ns_per_iter / 1e3) << " us\n";
      records.push_back(std::move(rec));
    }
  }

  // The served forward over real featurized GRAB plans: a pipeline fitted at
  // the CLI shape (predicate Word2Vec 32, N = 15, K = 9, three 32-channel
  // tree convs), frozen as a shard freezes it, timed through
  // PredictFeaturized (batch assembly, trunk, pooling, head) at batch 1
  // cycling through 64 plans and at batch 32. gflops counts the trunk's
  // rows at dense width, as the random-feature records above do.
  {
    workload::SchemaGenConfig schema_config;
    schema_config.num_tables = 40;
    schema_config.num_days = 30;
    schema_config.seed = 7;
    const workload::GeneratedSchema schema =
        workload::GenerateSchema(schema_config);
    workload::TraceConfig trace_config;
    trace_config.num_queries = 400;
    trace_config.num_days = 30;
    trace_config.seed = 3;
    const std::vector<workload::QueryRecord> trace =
        workload::GenerateGrabTrace(schema, trace_config).ValueOrDie();
    std::vector<size_t> all(trace.size());
    for (size_t i = 0; i < all.size(); ++i) all[i] = i;
    core::PipelineConfig config;
    config.sampler.node_limit = 15;
    config.num_subtrees = 9;
    config.word2vec.dim = 32;
    config.word2vec.min_count = 2;
    config.conv_channels.assign(3, 32);
    config.threads = threads;
    auto pipeline =
        core::PrestroidPipeline::Fit(trace, all, config).ValueOrDie();
    pipeline->FreezeInferenceWeights();
    constexpr size_t kPlans = 64, kChannels = 32;
    std::vector<core::PlanFeatures> plans;
    size_t rows = 0;
    for (size_t i = 0; i < kPlans; ++i) {
      plans.push_back(pipeline->FeaturizePlan(*trace[i].plan).ValueOrDie());
      const auto& trees = plans.back().trees;
      for (size_t t = 0; t < std::min(config.num_subtrees, trees.size()); ++t) {
        rows += trees[t].num_nodes();
      }
    }
    const size_t features = pipeline->encoder().feature_dim();
    for (size_t batch : {1, 32}) {
      std::vector<std::vector<const core::PlanFeatures*>> batches;
      for (size_t q = 0; q < kPlans; q += batch) {
        batches.emplace_back();
        for (size_t p = q; p < q + batch; ++p) {
          batches.back().push_back(&plans[p]);
        }
      }
      const double forwards = static_cast<double>(batches.size());
      KernelBenchRecord rec;
      rec.op = "predict_featurized_served_grab";
      rec.shape = StrFormat("B%zuxK9xN15xF%zuxC%zu", batch, features,
                            kChannels);
      rec.kernel = "resident";
      rec.threads = threads;
      rec.ns_per_iter = MedianNs([&] {
                          for (const auto& plan_batch : batches) {
                            pipeline->PredictFeaturized(plan_batch);
                          }
                        }) /
                        forwards;
      const double flops = 2.0 * static_cast<double>(rows) / forwards *
                           (3.0 * features * kChannels +
                            2 * 3.0 * kChannels * kChannels);
      rec.gflops = flops / rec.ns_per_iter;
      std::cout << "predict_featurized_served_grab " << rec.shape << " "
                << rec.kernel << " ("
                << StrFormat("%.1f", static_cast<double>(rows) / forwards)
                << " rows/batch): "
                << StrFormat("%.1f", rec.ns_per_iter / 1e3) << " us\n";
      records.push_back(std::move(rec));
    }
  }

  const std::vector<workload::QueryRecord> perfbench_trace =
      PerfbenchShapedTrace();
  const FrontEndParseRecord front_end = MeasureFrontEndParse(perfbench_trace);
  const ArtifactLoadRecord artifact_load = MeasureArtifactLoad(perfbench_trace);

  const double resident_speedup =
      GeomeanSpeedup(records, "serving_gemm", "resident", "blocked");
  const double ragged_speedup = GeomeanSpeedup(
      records, "tree_conv_forward_served", "resident", "resident_padded");

  std::ofstream out(path);
  if (!out) {
    std::cerr << "cannot open " << path << " for writing\n";
    return 1;
  }
  {
    bench::JsonWriter json(out);
    json.BeginObject();
    json.Field("generated_by", "bench/micro_ops --json");
    json.Provenance();
    json.Field("reps", kJsonReps);
    json.Field("warmup", kJsonWarmup);
    json.Key("records");
    json.BeginArray();
    for (const KernelBenchRecord& r : records) {
      json.BeginObject();
      json.Field("op", r.op);
      json.Field("shape", r.shape);
      json.Field("kernel", r.kernel);
      json.Field("threads", r.threads);
      json.FieldDouble("gflops", r.gflops);
      json.FieldDouble("ns_per_iter", r.ns_per_iter, "%.1f");
      json.EndObject();
    }
    json.EndArray();
    json.Key("summary");
    json.BeginObject();
    json.FieldDouble("serving_resident_geomean_speedup_over_blocked",
                     resident_speedup);
    json.FieldDouble("served_forward_geomean_speedup_ragged_over_padded",
                     ragged_speedup);
    json.EndObject();
    json.Key("front_end_parse");
    json.BeginObject();
    json.Field("corpus",
               "GRAB trace: schema seed 7, 40 tables, 1200 queries at seed 1");
    json.Field("records", front_end.records);
    json.FieldDouble("mean_plan_text_bytes", front_end.mean_plan_text_bytes,
                     "%.1f");
    json.FieldDouble("plan_text_us_per_plan", front_end.plan_text_us_per_plan,
                     "%.2f");
    json.FieldDouble("plan_text_mb_s", front_end.plan_text_mb_s, "%.1f");
    json.FieldDouble("sql_us_per_query", front_end.sql_us_per_query, "%.2f");
    json.FieldDouble("tolerant_ingest_ms", front_end.ingest_ms, "%.1f");
    json.FieldDouble("plan_clone_us_per_plan",
                     front_end.plan_clone_us_per_plan, "%.2f");
    json.FieldDouble("heap_blocks_per_plan_parse",
                     front_end.heap_blocks_per_plan_parse, "%.1f");
    json.FieldDouble("heap_blocks_per_sql_parse",
                     front_end.heap_blocks_per_sql_parse, "%.1f");
    json.FieldDouble("serve_ingest_ms", front_end.serve_ingest_ms, "%.1f");
    json.Field("serve_ingest_lanes", front_end.lanes);
    json.FieldDouble("serve_ingest_ms_all_lanes",
                     front_end.serve_ingest_ms_all_lanes, "%.1f");
    json.EndObject();
    json.Key("artifact_load");
    json.BeginObject();
    json.Field("artifact",
               "CLI shape (N 15, K 9, Pf 32, conv 32x3, dense 32-16) fitted "
               "on the front_end_parse corpus");
    json.Field("bytes", artifact_load.bytes);
    json.FieldDouble("load_ms", artifact_load.load_ms, "%.2f");
    json.EndObject();
    json.EndObject();
  }

  std::cout << "\nserving gemm geomean speedup (resident/blocked): "
            << StrFormat("%.2fx", resident_speedup) << "\n";
  std::cout << "served trunk forward geomean speedup (ragged/padded): "
            << StrFormat("%.2fx", ragged_speedup) << "\n";
  std::cout << "wrote " << path << "\n";
  return 0;
}

}  // namespace prestroid

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--sweep") {
      prestroid::RunScalingSweep();
      return 0;
    }
    if (std::string(argv[i]) == "--json") {
      if (i + 1 >= argc) {
        std::cerr << "--json requires an output path\n";
        return 1;
      }
      return prestroid::RunJsonBench(argv[i + 1]);
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
