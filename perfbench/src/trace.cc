#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <unordered_map>
#include <utility>

namespace perfbench {
namespace {

// Open spans of the calling thread, innermost last.
thread_local std::vector<int> open_spans;

}  // namespace

Tracer::Tracer(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {}

int64_t Tracer::Ns(Clock::time_point t) const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_)
      .count();
}

int Tracer::Begin(const std::string& name, uint64_t request, int parent) {
  if (!enabled_) return -1;
  if (parent == -2) parent = open_spans.empty() ? -1 : open_spans.back();
  const int64_t start = Ns(Clock::now());
  int id = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    id = static_cast<int>(spans_.size());
    spans_.push_back({id, parent, request, name, start, start});
  }
  open_spans.push_back(id);
  return id;
}

void Tracer::End(int id) {
  if (id < 0) return;
  const int64_t end = Ns(Clock::now());
  {
    std::lock_guard<std::mutex> lock(mutex_);
    spans_[static_cast<size_t>(id)].end_ns = end;
  }
  const auto it = std::find(open_spans.rbegin(), open_spans.rend(), id);
  if (it != open_spans.rend()) open_spans.erase(std::next(it).base());
}

int Tracer::Record(const std::string& name, Clock::time_point start,
                   Clock::time_point end, int parent, uint64_t request) {
  if (!enabled_) return -1;
  std::lock_guard<std::mutex> lock(mutex_);
  const int id = static_cast<int>(spans_.size());
  spans_.push_back({id, parent, request, name, Ns(start), Ns(end)});
  return id;
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

bool Tracer::WriteTsv(const std::string& path) const {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  std::fprintf(file, "id\tparent\trequest\tname\tstart_ns\tend_ns\n");
  for (const Span& span : spans()) {
    std::fprintf(file, "%d\t%d\t%llu\t%s\t%lld\t%lld\n", span.id, span.parent,
                 static_cast<unsigned long long>(span.request),
                 span.name.c_str(), static_cast<long long>(span.start_ns),
                 static_cast<long long>(span.end_ns));
  }
  return std::fclose(file) == 0;
}

std::map<std::string, SpanTotals> ReduceSpans(const std::vector<Span>& spans) {
  std::unordered_map<int, size_t> index_of;
  for (size_t i = 0; i < spans.size(); ++i) index_of[spans[i].id] = i;
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(
      spans.size());
  for (const Span& span : spans) {
    const auto parent = index_of.find(span.parent);
    if (parent != index_of.end())
      children[parent->second].push_back({span.start_ns, span.end_ns});
  }

  std::map<std::string, SpanTotals> totals;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    const int64_t duration = std::max<int64_t>(0, span.end_ns - span.start_ns);
    // Union of the children's intervals, clipped to this span. Children
    // may overlap each other (requests served concurrently).
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    int64_t covered = 0;
    int64_t run_start = 0, run_end = 0;
    bool open = false;
    for (auto [start, end] : kids) {
      start = std::max(start, span.start_ns);
      end = std::min(end, span.end_ns);
      if (end <= start) continue;
      if (open && start <= run_end) {
        run_end = std::max(run_end, end);
        continue;
      }
      if (open) covered += run_end - run_start;
      run_start = start;
      run_end = end;
      open = true;
    }
    if (open) covered += run_end - run_start;

    SpanTotals& entry = totals[span.name];
    ++entry.count;
    entry.total_s += static_cast<double>(duration) * 1e-9;
    entry.self_s += static_cast<double>(duration - covered) * 1e-9;
    entry.durations_s.push_back(static_cast<double>(duration) * 1e-9);
    entry.self_each_s.push_back(static_cast<double>(duration - covered) * 1e-9);
  }
  return totals;
}

}  // namespace perfbench
