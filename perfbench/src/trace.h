// Spans recorded by the benchmark around each call it makes into a layer
// of the program (datagen, re, graph, eval, serve, tensor). Spans stay in
// memory while the benchmark runs and are written out once at the end.
// Tracing off makes every call a no-op, so the untraced run pays nothing.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct Span {
  int id = -1;
  int parent = -1;       // -1 for a root span
  uint64_t request = 0;  // 0 outside serving; spans of one request share it
  std::string name;
  int64_t start_ns = 0;  // since the tracer's epoch
  int64_t end_ns = 0;
};

class Tracer {
 public:
  explicit Tracer(bool enabled);
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }

  /// Opens a span; its parent is the innermost span open on this thread
  /// unless `parent` is given. Returns -1 when tracing is off.
  int Begin(const std::string& name, uint64_t request = 0, int parent = -2);
  void End(int id);
  /// Records a finished span with explicit times (a served request is
  /// timed from its scheduled send, not from when the call was made).
  /// Returns the span's id, or -1 when tracing is off.
  int Record(const std::string& name, Clock::time_point start,
             Clock::time_point end, int parent, uint64_t request);

  std::vector<Span> spans() const;
  /// One span per line: id, parent, request, name, start_ns, end_ns.
  bool WriteTsv(const std::string& path) const;

 private:
  int64_t Ns(Clock::time_point t) const;

  const bool enabled_;
  const Clock::time_point epoch_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;  // guarded by mutex_
};

/// RAII span on the calling thread.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const std::string& name, uint64_t request = 0)
      : tracer_(tracer), id_(tracer->Begin(name, request)) {}
  ~ScopedSpan() { tracer_->End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int id() const { return id_; }

 private:
  Tracer* tracer_;
  int id_;
};

/// Per-name totals over a span list. Self time is a span's duration minus
/// the part of its interval covered by the union of its children.
struct SpanTotals {
  size_t count = 0;
  double total_s = 0.0;
  double self_s = 0.0;
  std::vector<double> durations_s;  // one per span
  std::vector<double> self_each_s;  // one per span
};
std::map<std::string, SpanTotals> ReduceSpans(const std::vector<Span>& spans);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
