#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// One timed interval around a call into a layer. Times are nanoseconds on
/// the steady clock, relative to the recorder's creation.
struct Span {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  /// Index of the enclosing span in the recorder, or -1 for a root.
  int64_t parent = -1;
  /// Spans of one request share this id.
  uint64_t request_id = 0;
};

/// In-memory span store. Spans are appended as they open and never leave
/// memory until Write(), so recording costs two clock reads and a push.
class SpanRecorder {
 public:
  SpanRecorder();

  /// Opens a span and returns its index.
  int64_t Begin(const std::string& name, int64_t parent, uint64_t request_id);
  /// Closes the span opened as `index`.
  void End(int64_t index);
  /// Records an already-measured interval.
  int64_t Add(Span span);

  const std::vector<Span>& spans() const { return spans_; }

  /// Self time of every span, index-aligned with spans(): its duration minus
  /// the part of its interval covered by its direct children (overlapping
  /// children are counted once).
  std::vector<int64_t> SelfTimesNs() const;

  /// Writes one tab-separated line per span (index, name, start_ns, end_ns,
  /// parent, request_id, self_ns). Returns false on an I/O error.
  bool Write(const std::string& path) const;

 private:
  int64_t NowNs() const;

  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
};

/// RAII helper: opens a span on construction and closes it on destruction.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, const std::string& name, int64_t parent,
             uint64_t request_id)
      : recorder_(recorder),
        index_(recorder->Begin(name, parent, request_id)) {}
  ~ScopedSpan() { recorder_->End(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int64_t index() const { return index_; }

 private:
  SpanRecorder* recorder_;
  int64_t index_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
