#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// In-memory span log of the traced run, written out once at the end as
/// Chrome trace-event JSON (viewable in Perfetto or about:tracing). Spans
/// are recorded by the benchmark around its calls into each layer; a span
/// names the span that caused it through `parent`.
class SpanLog {
 public:
  /// Records a finished span; returns its id for use as a parent. A span
  /// that aggregates `count` calls covers first start .. last end and
  /// carries their summed duration as `busy_ns` (-1: the span's own).
  int Add(std::string name, int64_t start_ns, int64_t end_ns,
          int parent = -1, int64_t count = 1, int64_t busy_ns = -1);
  /// A counter sample (a "C" event), e.g. transactions finished so far.
  void AddCounter(std::string name, int64_t at_ns, int64_t value);

  /// Writes the log; false on I/O failure.
  bool WriteChromeJson(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    int parent = -1;
    int64_t count = 1;  ///< calls aggregated into this span
    int64_t busy_ns = 0;
  };
  struct Counter {
    std::string name;
    int64_t at_ns = 0;
    int64_t value = 0;
  };
  std::vector<Span> spans_;
  std::vector<Counter> counters_;
};

/// Busy time and call count of one layer operation, accumulated over many
/// calls: the per-call spans of a replay, aggregated in place so a million
/// calls cost two clock reads each and no memory.
struct LayerTimer {
  int64_t calls = 0;
  int64_t ns = 0;
  int64_t first_ns = -1;
  int64_t last_ns = 0;

  void Record(int64_t start_ns, int64_t end_ns) {
    ++calls;
    ns += end_ns - start_ns;
    if (first_ns < 0) first_ns = start_ns;
    last_ns = end_ns;
  }
  double NsPerCall() const {
    return calls == 0 ? 0.0
                      : static_cast<double>(ns) / static_cast<double>(calls);
  }
  /// Adds the aggregate as one span covering first..last call.
  void AddTo(SpanLog* log, const std::string& name, int parent) const {
    if (calls > 0) log->Add(name, first_ns, last_ns, parent, calls, ns);
  }
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
