#ifndef PRESTROID_WORKLOAD_DATASET_H_
#define PRESTROID_WORKLOAD_DATASET_H_

#include <array>
#include <functional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "plan/plan_limits.h"
#include "util/random.h"
#include "util/status.h"
#include "workload/trace.h"

namespace prestroid::workload {

/// Why one trace record was quarantined instead of ingested.
enum class QuarantineReason {
  kMalformedHeader = 0,  // #QUERY line does not parse
  kTruncatedRecord,      // record body not terminated by #END
  kMalformedPlan,        // plan text / predicate failed to parse
  kOverLimitPlan,        // plan exceeded the configured PlanLimits
  kNonFiniteLabel,       // NaN or infinite metric value
  kNegativeLabel,        // metric value below zero
  kZeroCpuLabel,         // total CPU minutes of exactly zero (log-scaled label)
  kReasonCount,          // sentinel, keep last
};

const char* QuarantineReasonToString(QuarantineReason reason);

/// Counters for one tolerant ingestion pass.
struct IngestStats {
  size_t accepted = 0;
  size_t quarantined = 0;
  std::array<size_t, static_cast<size_t>(QuarantineReason::kReasonCount)>
      by_reason{};
  /// Size-cap rotations of the quarantine file during this pass, and records
  /// whose on-disk evidence was discarded by those rotations (counters only
  /// — the quarantined/by_reason tallies above always cover every record).
  size_t quarantine_rotations = 0;
  size_t quarantine_dropped = 0;

  /// One-line human-readable summary, e.g.
  /// "accepted=98 quarantined=2 (malformed-plan=1 nan-label=1)".
  std::string Summary() const;
};

/// Knobs of the tolerant ingestion path.
struct IngestOptions {
  /// Per-plan resource budget; over-limit plans are quarantined, not fatal.
  plan::PlanLimits plan_limits;
  /// When non-empty, every quarantined record is appended to this file as
  ///   <reason>\t<record-ordinal>\t<escaped first bytes of the record>
  /// so operators can replay or inspect rejects offline. Empty = count only.
  std::string quarantine_path;
  /// Cap on the active quarantine file. When an append would push it past
  /// this, the file rotates to "<path>.1" (replacing any previous rotation,
  /// whose records are counted in IngestStats::quarantine_dropped) and a
  /// fresh file starts — so a hostile stream of rejects occupies at most
  /// ~2x this many bytes on disk no matter how long ingestion runs.
  /// 0 = unlimited.
  size_t max_quarantine_bytes = 8u << 20;
  /// Parsing lanes. The calling thread cuts the text into windows of
  /// records; the lanes of a ThreadPool of this size parse and label-check
  /// each window's records, then the calling thread judges them in trace
  /// order. So the stats, the quarantine file and the sink's sequence are
  /// the same at any lane count; 1 parses on the calling thread alone.
  size_t lanes = 1;
  /// When false, each record's plan is checked as it would be parsed (the
  /// same verdicts, stats and quarantine lines; plan::CheckPlanText) but
  /// not built: accepted records reach the sink with a null `plan` and its
  /// node count in `plan_nodes`. For callers that need only each plan's
  /// size, such as serve's fallback fit.
  bool build_plans = true;
};

/// Bytes of cut records one ingest window holds at most (a record larger
/// than this is a window of its own). Every window ends in a barrier, so a
/// smaller one costs wall time; its bytes add to a server's peak memory, so
/// a larger one costs memory.
inline constexpr size_t kIngestWindowBytes = 128u << 10;

/// Tolerantly ingested trace: the clean records plus what was skipped.
struct IngestResult {
  std::vector<QueryRecord> records;
  IngestStats stats;
};

/// Receives each accepted record of a tolerant ingest, in trace order, on
/// the calling thread. The record is the sink's to keep or drop.
using RecordSink = std::function<void(QueryRecord&&)>;

/// Cuts a serialized trace into per-record chunks. A chunk starts at each
/// line that begins with "#QUERY " and runs to the next such line or the end
/// of the text; bytes before the first record are one chunk of their own
/// unless they are blank. The text arrives in pieces of any size: a record
/// split across pieces is carried over, so the cutter holds the current
/// record and the latest piece, never the whole text.
class TraceRecordCutter {
 public:
  /// Receives each chunk, in text order; the view is valid for the call.
  using ChunkFn = std::function<Status(std::string_view chunk)>;

  explicit TraceRecordCutter(ChunkFn on_chunk)
      : on_chunk_(std::move(on_chunk)) {}

  /// Cuts every chunk `piece` completes. A failing ChunkFn stops the cut
  /// and its Status is returned.
  Status Feed(std::string_view piece);
  /// Cuts the rest once the text has ended.
  Status Finish();

 private:
  Status Scan(bool at_end);
  /// Hands pending_[chunk_, end) to on_chunk_ (a blank prefix is skipped).
  Status Emit(size_t end);

  ChunkFn on_chunk_;
  std::string pending_;  // the unfinished chunk's bytes from chunk_ on
  size_t chunk_ = 0;     // start of the unfinished chunk
  size_t line_ = 0;      // start of the line being cut
  size_t scanned_ = 0;   // bytes before this hold no newline after line_
  bool line_judged_ = false;  // line_ was checked for "#QUERY "
  bool in_record_ = false;    // a "#QUERY " line has been seen
};

/// Parses a serialized trace, skipping (and counting) hostile records
/// instead of failing the run: malformed headers/plans, over-limit plans,
/// truncated tails, non-finite or negative labels and zero CPU labels are
/// quarantined, and every accepted record goes to `sink`.
/// Only environmental failures (e.g. an unwritable quarantine file) abort,
/// once every lane has finished its window. The text goes through one
/// TraceRecordCutter in FileReader::kPieceBytes pieces into windows of
/// kIngestWindowBytes, parsed on IngestOptions::lanes lanes; a quarantined
/// record's bytes are only read for its log snippet.
Result<IngestStats> IngestTraceTolerant(std::string_view text,
                                        const IngestOptions& options,
                                        const RecordSink& sink);

/// IngestTraceTolerant with a sink that keeps every accepted record.
Result<IngestResult> IngestTraceTolerant(std::string_view text,
                                         const IngestOptions& options);

/// File variants of IngestTraceTolerant: the file is read in
/// FileReader::kPieceBytes pieces straight into the cutter, so the text is
/// never held whole. A read error after the first piece returns its Status
/// once the records before it have gone to the sink.
Result<IngestStats> ReadTraceFileTolerant(const std::string& path,
                                          const IngestOptions& options,
                                          const RecordSink& sink);
Result<IngestResult> ReadTraceFileTolerant(const std::string& path,
                                           const IngestOptions& options);

/// Index-based train/validation/test partition over a record vector.
struct DatasetSplits {
  std::vector<size_t> train;
  std::vector<size_t> val;
  std::vector<size_t> test;
};

/// Random 8/1/1 split (Grab-Traces protocol). Ratios must sum to <= 1; the
/// remainder goes to test.
DatasetSplits SplitRandom(size_t num_records, double train_ratio,
                          double val_ratio, Rng* rng);

/// Template-level 8/1/1 split (TPC-DS protocol): all instances of a template
/// land in the same partition, so test templates are never seen in training.
DatasetSplits SplitByTemplate(const std::vector<QueryRecord>& records,
                              double train_ratio, double val_ratio, Rng* rng);

/// Extracts the total-CPU-minute label of every record.
std::vector<double> CpuMinutesOf(const std::vector<QueryRecord>& records);

}  // namespace prestroid::workload

#endif  // PRESTROID_WORKLOAD_DATASET_H_
