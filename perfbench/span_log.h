// Benchmark-owned spans for the traced run.
//
// Spans are recorded by the benchmark around calls into the library's
// public entry points — never from inside the library — so the per-layer
// numbers do not depend on the program's own tracer or stage timers. A
// span has a name, a parent (index into the same log, -1 for a root) and
// steady-clock start/end stamps; run.py turns them into self times (a
// span's duration minus the part of it its children cover).
#ifndef PERFBENCH_SPAN_LOG_H_
#define PERFBENCH_SPAN_LOG_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

struct SpanRecord {
  std::string name;
  int parent = -1;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
};

/// One traced request: its spans plus the counters read from the entry
/// points' return values at the same boundaries.
struct TracedRequest {
  std::vector<SpanRecord> spans;
  std::map<std::string, double> counters;

  int Open(const char* name, int parent) {
    spans.push_back(SpanRecord{name, parent, NowNs(), 0});
    return static_cast<int>(spans.size()) - 1;
  }
  void Close(int id) {
    if (id >= 0 && spans[id].end_ns == 0) spans[id].end_ns = NowNs();
  }
  void Add(const std::string& counter, double value) {
    counters[counter] += value;
  }
};

/// RAII span: opens on construction, closes at End() or destruction.
class BenchSpan {
 public:
  BenchSpan(TracedRequest* log, const char* name, int parent)
      : log_(log), id_(log->Open(name, parent)) {}
  ~BenchSpan() { End(); }
  BenchSpan(const BenchSpan&) = delete;
  BenchSpan& operator=(const BenchSpan&) = delete;

  int id() const { return id_; }
  void End() { log_->Close(id_); }

 private:
  TracedRequest* log_;
  int id_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPAN_LOG_H_
