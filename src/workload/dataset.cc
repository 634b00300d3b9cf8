#include "workload/dataset.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>

#include "util/artifact_io.h"
#include "util/logging.h"
#include "util/string_util.h"
#include "util/thread_pool.h"

namespace prestroid::workload {

const char* QuarantineReasonToString(QuarantineReason reason) {
  switch (reason) {
    case QuarantineReason::kMalformedHeader:
      return "malformed-header";
    case QuarantineReason::kTruncatedRecord:
      return "truncated-record";
    case QuarantineReason::kMalformedPlan:
      return "malformed-plan";
    case QuarantineReason::kOverLimitPlan:
      return "over-limit-plan";
    case QuarantineReason::kNonFiniteLabel:
      return "nan-label";
    case QuarantineReason::kNegativeLabel:
      return "negative-label";
    case QuarantineReason::kZeroCpuLabel:
      return "zero-cpu-label";
    case QuarantineReason::kReasonCount:
      break;
  }
  return "?";
}

std::string IngestStats::Summary() const {
  std::string out =
      StrFormat("accepted=%zu quarantined=%zu", accepted, quarantined);
  if (quarantined == 0) return out;
  out += " (";
  bool first = true;
  for (size_t i = 0; i < by_reason.size(); ++i) {
    if (by_reason[i] == 0) continue;
    if (!first) out += " ";
    first = false;
    out += StrFormat("%s=%zu",
                     QuarantineReasonToString(static_cast<QuarantineReason>(i)),
                     by_reason[i]);
  }
  out += ")";
  if (quarantine_rotations > 0) {
    out += StrFormat(" rotations=%zu dropped-records=%zu", quarantine_rotations,
                     quarantine_dropped);
  }
  return out;
}

namespace {

/// First bytes of the offending record, with control bytes escaped so one
/// quarantined record is always exactly one log line.
std::string SnippetOf(std::string_view chunk) {
  constexpr size_t kMaxSnippet = 96;
  std::string out;
  out.reserve(std::min(chunk.size(), kMaxSnippet) + 8);
  for (size_t i = 0; i < chunk.size() && out.size() < kMaxSnippet; ++i) {
    const unsigned char c = static_cast<unsigned char>(chunk[i]);
    if (c == '\n') {
      out += "\\n";
    } else if (c == '\t') {
      out += "\\t";
    } else if (c < 0x20 || c >= 0x7f) {
      out += StrFormat("\\x%02x", c);
    } else {
      out += static_cast<char>(c);
    }
  }
  if (chunk.size() > kMaxSnippet) out += "...";
  return out;
}

/// Append-only sink for quarantined records with a size cap: when the active
/// file would exceed `max_bytes` it rotates to "<path>.1" (replacing any
/// previous rotation) and starts fresh, so a hostile ingest stream can fill
/// at most ~2x the cap no matter how long it runs. Records whose on-disk
/// evidence a rotation discarded are counted, never silently lost. A missing
/// path degrades to counting only; an unwritable path is an environment
/// error surfaced to the caller (silently dropping evidence would defeat the
/// point).
class QuarantineLog {
 public:
  Status Open(const std::string& path, size_t max_bytes) {
    if (path.empty()) return Status::OK();
    path_ = path;
    max_bytes_ = max_bytes;
    out_.open(path, std::ios::app);
    if (!out_.is_open()) {
      return Status::IoError("cannot open quarantine file: " + path);
    }
    const std::ofstream::pos_type at = out_.tellp();
    bytes_ = at < 0 ? 0 : static_cast<size_t>(at);
    return Status::OK();
  }

  Status Append(QuarantineReason reason, size_t ordinal,
                std::string_view chunk) {
    if (!out_.is_open()) return Status::OK();
    const std::string line = StrFormat(
        "%s\t%zu\t%s\n", QuarantineReasonToString(reason), ordinal,
        SnippetOf(chunk).c_str());
    if (max_bytes_ > 0 && line.size() > max_bytes_) {
      // A single record that cannot fit the budget at all is counted as
      // dropped rather than blowing the cap (snippets are short, so this
      // only fires for pathological tiny caps).
      ++dropped_;
      return Status::OK();
    }
    if (max_bytes_ > 0 && bytes_ + line.size() > max_bytes_ && bytes_ > 0) {
      PRESTROID_RETURN_NOT_OK(Rotate());
    }
    out_ << line;
    if (!out_.good()) return Status::IoError("quarantine file write failed");
    bytes_ += line.size();
    ++records_active_;
    return Status::OK();
  }

  size_t rotations() const { return rotations_; }
  size_t dropped() const { return dropped_; }

 private:
  Status Rotate() {
    out_.close();
    // The previous rotation (if any) is overwritten: the records it held are
    // gone from disk, so account for them before the rename.
    dropped_ += records_rotated_;
    if (std::rename(path_.c_str(), (path_ + ".1").c_str()) != 0) {
      return Status::IoError("cannot rotate quarantine file: " + path_);
    }
    records_rotated_ = records_active_;
    records_active_ = 0;
    bytes_ = 0;
    ++rotations_;
    out_.open(path_, std::ios::trunc);
    if (!out_.is_open()) {
      return Status::IoError("cannot reopen quarantine file: " + path_);
    }
    return Status::OK();
  }

  std::ofstream out_;
  std::string path_;
  size_t max_bytes_ = 0;
  size_t bytes_ = 0;
  size_t records_active_ = 0;   // records in the active file (this pass)
  size_t records_rotated_ = 0;  // records in "<path>.1" (this pass)
  size_t rotations_ = 0;
  size_t dropped_ = 0;
};

bool LabelsFinite(const QueryRecord& record) {
  return std::isfinite(record.metrics.total_cpu_minutes) &&
         std::isfinite(record.metrics.peak_memory_gb) &&
         std::isfinite(record.metrics.input_gb);
}

bool LabelsNonNegative(const QueryRecord& record) {
  return record.metrics.total_cpu_minutes >= 0 &&
         record.metrics.peak_memory_gb >= 0 && record.metrics.input_gb >= 0;
}

/// Classifies why one single-record chunk failed the strict parser.
QuarantineReason ClassifyFailure(std::string_view chunk, const Status& status) {
  if (status.code() == StatusCode::kResourceExhausted) {
    return QuarantineReason::kOverLimitPlan;
  }
  const std::string first_line(chunk.substr(0, chunk.find('\n')));
  double cpu = 0, mem = 0, input = 0;
  long long id = 0;
  int day = 0, template_id = -1;
  if (std::sscanf(first_line.c_str(), "#QUERY %lld %d %d %lf %lf %lf", &id,
                  &day, &template_id, &cpu, &mem, &input) != 6) {
    return QuarantineReason::kMalformedHeader;
  }
  // Header is fine; a record that never reaches #END was cut off, anything
  // else is a body (usually plan/predicate) problem.
  if (chunk.find("\n#END\n") == std::string_view::npos &&
      !EndsWith(chunk, "\n#END") && !StartsWith(chunk, "#END")) {
    return QuarantineReason::kTruncatedRecord;
  }
  return QuarantineReason::kMalformedPlan;
}

}  // namespace

Status TraceRecordCutter::Feed(std::string_view piece) {
  // Drop what was cut already; only the unfinished chunk moves.
  pending_.erase(0, chunk_);
  line_ -= chunk_;
  scanned_ -= chunk_;
  chunk_ = 0;
  pending_.append(piece);
  return Scan(/*at_end=*/false);
}

Status TraceRecordCutter::Finish() {
  PRESTROID_RETURN_NOT_OK(Scan(/*at_end=*/true));
  return Emit(pending_.size());
}

Status TraceRecordCutter::Scan(bool at_end) {
  constexpr std::string_view kMarker = "#QUERY ";
  const std::string_view text = pending_;
  while (line_ < text.size()) {
    if (!line_judged_) {
      const std::string_view rest = text.substr(line_);
      // A short line start decides once its newline or the end arrives.
      if (rest.size() < kMarker.size() && !at_end &&
          rest.find('\n') == std::string_view::npos) {
        return Status::OK();
      }
      if (StartsWith(rest, kMarker)) {
        PRESTROID_RETURN_NOT_OK(Emit(line_));
        chunk_ = line_;
        in_record_ = true;
      }
      line_judged_ = true;
    }
    const size_t newline = text.find('\n', std::max(line_, scanned_));
    if (newline == std::string_view::npos) {
      scanned_ = text.size();
      return Status::OK();
    }
    line_ = scanned_ = newline + 1;
    line_judged_ = false;
  }
  return Status::OK();
}

Status TraceRecordCutter::Emit(size_t end) {
  const std::string_view chunk =
      std::string_view(pending_).substr(chunk_, end - chunk_);
  // Junk before the first record is its own chunk unless it is blank.
  if (!in_record_ && Trim(chunk).empty()) return Status::OK();
  return on_chunk_(chunk);
}

namespace {

/// What a lane found in one cut record.
struct Verdict {
  enum class Kind { kNothing, kAccepted, kQuarantined } kind = Kind::kNothing;
  QuarantineReason reason = QuarantineReason::kMalformedHeader;
};

/// Parses and label-checks one cut record (a complete one-record mini-trace)
/// in isolation, so one bad record can never poison its neighbours. Runs on
/// a lane; an accepted record is moved to `*accepted`.
Verdict JudgeRecord(std::string_view chunk, const IngestOptions& options,
                    QueryRecord* accepted) {
  auto quarantined = [](QuarantineReason reason) {
    return Verdict{Verdict::Kind::kQuarantined, reason};
  };
  auto parsed =
      DeserializeTrace(chunk, options.plan_limits, options.build_plans);
  if (!parsed.ok()) {
    return quarantined(ClassifyFailure(chunk, parsed.status()));
  }
  // A cut record starts at its only "#QUERY " line: at most one record.
  if (parsed->empty()) return Verdict{};
  PRESTROID_CHECK_EQ(parsed->size(), 1u);
  QueryRecord& record = parsed->front();
  if (!LabelsFinite(record)) {
    return quarantined(QuarantineReason::kNonFiniteLabel);
  }
  if (!LabelsNonNegative(record)) {
    return quarantined(QuarantineReason::kNegativeLabel);
  }
  // The CPU label is trained in log space (LabelTransform::Fit rejects
  // v <= 0); zero memory and input metrics stay valid.
  if (record.metrics.total_cpu_minutes == 0) {
    return quarantined(QuarantineReason::kZeroCpuLabel);
  }
  *accepted = std::move(record);
  return Verdict{Verdict::Kind::kAccepted};
}

/// The tolerant ingest over a text that `next_piece` hands out in pieces
/// (an empty piece ends it).
Result<IngestStats> IngestPieces(
    const IngestOptions& options, const RecordSink& sink,
    const std::function<Result<std::string_view>()>& next_piece) {
  IngestStats stats;
  QuarantineLog log;
  PRESTROID_RETURN_NOT_OK(
      log.Open(options.quarantine_path, options.max_quarantine_bytes));
  ThreadPool pool(std::max<size_t>(options.lanes, 1));

  // The window: its cut records back to back in `text`, record i ending at
  // ends[i] and, once parsed, judged verdicts[i] (and records[i] if
  // accepted); `first` is the trace ordinal of its first record.
  std::string text;
  std::vector<size_t> ends;
  std::vector<Verdict> verdicts;
  std::vector<QueryRecord> records;
  size_t first = 0;
  auto record_text = [&](size_t i) {
    const size_t begin = i == 0 ? 0 : ends[i - 1];
    return std::string_view(text).substr(begin, ends[i] - begin);
  };

  // Parses the window on the lanes, each claiming records through one
  // cursor, then judges it in order here.
  auto flush = [&]() -> Status {
    const size_t n = ends.size();
    if (n == 0) return Status::OK();
    verdicts.assign(n, Verdict{});
    records.resize(n);
    std::atomic<size_t> cursor{0};
    auto parse_on_lane = [&](size_t, size_t) {
      for (size_t i = cursor.fetch_add(1, std::memory_order_relaxed); i < n;
           i = cursor.fetch_add(1, std::memory_order_relaxed)) {
        verdicts[i] = JudgeRecord(record_text(i), options, &records[i]);
      }
    };
    pool.ParallelFor(0, std::min(n, pool.num_threads()), 1, parse_on_lane);
    for (size_t i = 0; i < n; ++i) {
      const Verdict& verdict = verdicts[i];
      if (verdict.kind == Verdict::Kind::kAccepted) {
        ++stats.accepted;
        sink(std::move(records[i]));
      } else if (verdict.kind == Verdict::Kind::kQuarantined) {
        ++stats.quarantined;
        ++stats.by_reason[static_cast<size_t>(verdict.reason)];
        PRESTROID_RETURN_NOT_OK(
            log.Append(verdict.reason, first + i, record_text(i)));
      }
    }
    first += n;
    text.clear();
    ends.clear();
    records.clear();
    return Status::OK();
  };

  // A full window is parsed before the next record would overflow it, so
  // its buffer, reserved once, grows only for a record larger than a window.
  text.reserve(kIngestWindowBytes);
  TraceRecordCutter cutter([&](std::string_view chunk) -> Status {
    if (!ends.empty() && text.size() + chunk.size() > kIngestWindowBytes) {
      PRESTROID_RETURN_NOT_OK(flush());
    }
    text.append(chunk);
    ends.push_back(text.size());
    return Status::OK();
  });
  for (;;) {
    Result<std::string_view> piece = next_piece();
    if (!piece.ok()) {
      // The records cut before a read error still reach the sink.
      PRESTROID_RETURN_NOT_OK(flush());
      return piece.status();
    }
    if (piece->empty()) break;
    PRESTROID_RETURN_NOT_OK(cutter.Feed(*piece));
  }
  PRESTROID_RETURN_NOT_OK(cutter.Finish());
  PRESTROID_RETURN_NOT_OK(flush());
  stats.quarantine_rotations = log.rotations();
  stats.quarantine_dropped = log.dropped();
  return stats;
}

}  // namespace

Result<IngestStats> IngestTraceTolerant(std::string_view text,
                                        const IngestOptions& options,
                                        const RecordSink& sink) {
  size_t at = 0;
  return IngestPieces(options, sink, [&]() -> Result<std::string_view> {
    const std::string_view piece = text.substr(at, FileReader::kPieceBytes);
    at += piece.size();
    return piece;
  });
}

Result<IngestResult> IngestTraceTolerant(std::string_view text,
                                         const IngestOptions& options) {
  IngestResult result;
  PRESTROID_ASSIGN_OR_RETURN(
      result.stats,
      IngestTraceTolerant(text, options, [&](QueryRecord&& record) {
        result.records.push_back(std::move(record));
      }));
  return result;
}

Result<IngestStats> ReadTraceFileTolerant(const std::string& path,
                                          const IngestOptions& options,
                                          const RecordSink& sink) {
  FileReader reader;
  PRESTROID_RETURN_NOT_OK(reader.Open(path));
  return IngestPieces(options, sink, [&] { return reader.Next(); });
}

Result<IngestResult> ReadTraceFileTolerant(const std::string& path,
                                           const IngestOptions& options) {
  IngestResult result;
  PRESTROID_ASSIGN_OR_RETURN(
      result.stats,
      ReadTraceFileTolerant(path, options, [&](QueryRecord&& record) {
        result.records.push_back(std::move(record));
      }));
  return result;
}

DatasetSplits SplitRandom(size_t num_records, double train_ratio,
                          double val_ratio, Rng* rng) {
  PRESTROID_CHECK(rng != nullptr);
  PRESTROID_CHECK_LE(train_ratio + val_ratio, 1.0 + 1e-9);
  std::vector<size_t> order(num_records);
  for (size_t i = 0; i < num_records; ++i) order[i] = i;
  rng->Shuffle(&order);
  DatasetSplits splits;
  const size_t train_end = static_cast<size_t>(
      static_cast<double>(num_records) * train_ratio);
  const size_t val_end = train_end + static_cast<size_t>(
      static_cast<double>(num_records) * val_ratio);
  for (size_t i = 0; i < num_records; ++i) {
    if (i < train_end) {
      splits.train.push_back(order[i]);
    } else if (i < val_end) {
      splits.val.push_back(order[i]);
    } else {
      splits.test.push_back(order[i]);
    }
  }
  return splits;
}

DatasetSplits SplitByTemplate(const std::vector<QueryRecord>& records,
                              double train_ratio, double val_ratio, Rng* rng) {
  PRESTROID_CHECK(rng != nullptr);
  std::map<int, std::vector<size_t>> by_template;
  for (size_t i = 0; i < records.size(); ++i) {
    by_template[records[i].template_id].push_back(i);
  }
  std::vector<int> templates;
  templates.reserve(by_template.size());
  for (const auto& [id, members] : by_template) templates.push_back(id);
  rng->Shuffle(&templates);

  DatasetSplits splits;
  const size_t n = templates.size();
  const size_t train_end =
      static_cast<size_t>(static_cast<double>(n) * train_ratio);
  const size_t val_end =
      train_end + static_cast<size_t>(static_cast<double>(n) * val_ratio);
  for (size_t t = 0; t < n; ++t) {
    std::vector<size_t>* bucket = &splits.test;
    if (t < train_end) {
      bucket = &splits.train;
    } else if (t < val_end) {
      bucket = &splits.val;
    }
    for (size_t idx : by_template[templates[t]]) bucket->push_back(idx);
  }
  return splits;
}

std::vector<double> CpuMinutesOf(const std::vector<QueryRecord>& records) {
  std::vector<double> labels;
  labels.reserve(records.size());
  for (const QueryRecord& record : records) {
    labels.push_back(record.metrics.total_cpu_minutes);
  }
  return labels;
}

}  // namespace prestroid::workload
