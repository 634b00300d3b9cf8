#include "spans.h"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace perfbench {

SpanRecorder::SpanRecorder() : origin_(std::chrono::steady_clock::now()) {}

int64_t SpanRecorder::NowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

int64_t SpanRecorder::Begin(const std::string& name, int64_t parent,
                            uint64_t request_id) {
  Span span;
  span.name = name;
  span.parent = parent;
  span.request_id = request_id;
  span.start_ns = NowNs();
  span.end_ns = span.start_ns;
  spans_.push_back(std::move(span));
  return static_cast<int64_t>(spans_.size()) - 1;
}

void SpanRecorder::End(int64_t index) {
  spans_[static_cast<size_t>(index)].end_ns = NowNs();
}

int64_t SpanRecorder::Add(Span span) {
  spans_.push_back(std::move(span));
  return static_cast<int64_t>(spans_.size()) - 1;
}

std::vector<int64_t> SpanRecorder::SelfTimesNs() const {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(spans_.size());
  for (const Span& span : spans_) {
    if (span.parent < 0) continue;
    const Span& parent = spans_[static_cast<size_t>(span.parent)];
    const int64_t lo = std::max(span.start_ns, parent.start_ns);
    const int64_t hi = std::min(span.end_ns, parent.end_ns);
    if (hi > lo) children[static_cast<size_t>(span.parent)].emplace_back(lo, hi);
  }
  std::vector<int64_t> self(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    std::vector<std::pair<int64_t, int64_t>>& covered = children[i];
    std::sort(covered.begin(), covered.end());
    int64_t union_ns = 0;
    int64_t run_lo = 0;
    int64_t run_hi = -1;
    for (const auto& [lo, hi] : covered) {
      if (run_hi < run_lo || lo > run_hi) {
        if (run_hi > run_lo) union_ns += run_hi - run_lo;
        run_lo = lo;
        run_hi = hi;
      } else {
        run_hi = std::max(run_hi, hi);
      }
    }
    if (run_hi > run_lo) union_ns += run_hi - run_lo;
    self[i] = (spans_[i].end_ns - spans_[i].start_ns) - union_ns;
  }
  return self;
}

bool SpanRecorder::Write(const std::string& path) const {
  FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  const std::vector<int64_t> self = SelfTimesNs();
  std::fprintf(out, "index\tname\tstart_ns\tend_ns\tparent\trequest_id\tself_ns\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(out, "%zu\t%s\t%lld\t%lld\t%lld\t%llu\t%lld\n", i,
                 s.name.c_str(), static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.request_id),
                 static_cast<long long>(self[i]));
  }
  return std::fclose(out) == 0;
}

}  // namespace perfbench
