// In-memory spans for the traced run: recorded around the benchmark's
// own calls into each layer and at each document's protocol steps,
// written out and summarized as a per-layer self-time table at the end.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

/// Microseconds on the steady clock since the first call.
inline double NowUs() {
  static const auto kStart = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::micro>(std::chrono::steady_clock::now() - kStart)
      .count();
}

struct Span {
  const char* name;
  double start_us;
  double end_us;
  int parent;   // index of the causing span, -1 for a root
  int64_t doc;  // document id, -1 when the span is not about one document
};

class Tracer {
 public:
  bool enabled() const { return enabled_; }
  void Enable(bool on) { enabled_ = on; }

  /// Records a finished span; returns its index (or -1 when disabled).
  int Add(const char* name, double start_us, double end_us, int parent = -1,
          int64_t doc = -1) {
    if (!enabled_) return -1;
    spans_.push_back({name, start_us, end_us, parent, doc});
    return static_cast<int>(spans_.size()) - 1;
  }
  /// Opens a span whose end is set later with End().
  int Begin(const char* name, int parent = -1, int64_t doc = -1) {
    return Add(name, NowUs(), NowUs(), parent, doc);
  }
  void End(int span) {
    if (span >= 0) spans_[static_cast<size_t>(span)].end_us = NowUs();
  }

  /// One JSON object per line.
  bool Write(const std::string& path) const;
  /// Per span name: count, total time, and self time (duration minus the
  /// union of its direct children's intervals).
  void PrintSelfTimeTable(FILE* out) const;

 private:
  bool enabled_ = false;
  std::vector<Span> spans_;
};

/// RAII span for an in-process layer call.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, int parent = -1, int64_t doc = -1)
      : tracer_(tracer), span_(tracer->Begin(name, parent, doc)) {}
  ~ScopedSpan() { tracer_->End(span_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int id() const { return span_; }

 private:
  Tracer* tracer_;
  int span_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
