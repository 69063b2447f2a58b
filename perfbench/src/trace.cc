#include "trace.h"

#include <cstdio>
#include <utility>

namespace perfbench {

int SpanLog::Add(std::string name, int64_t start_ns, int64_t end_ns,
                 int parent, int64_t count, int64_t busy_ns) {
  spans_.push_back(Span{std::move(name), start_ns, end_ns, parent, count,
                        busy_ns < 0 ? end_ns - start_ns : busy_ns});
  return static_cast<int>(spans_.size()) - 1;
}

void SpanLog::AddCounter(std::string name, int64_t at_ns, int64_t value) {
  counters_.push_back(Counter{std::move(name), at_ns, value});
}

bool SpanLog::WriteChromeJson(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  for (const Span& s : spans_) {
    if (s.start_ns < origin) origin = s.start_ns;
  }
  auto us = [origin](int64_t ns) {
    return static_cast<double>(ns - origin) / 1000.0;
  };
  std::fprintf(f, "{\"traceEvents\": [");
  const char* sep = "\n";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, "
                 "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %zu, "
                 "\"parent\": %d, \"calls\": %lld, \"busy_us\": %.3f}}",
                 sep, s.name.c_str(), us(s.start_ns),
                 static_cast<double>(s.end_ns - s.start_ns) / 1000.0, i,
                 s.parent, static_cast<long long>(s.count),
                 static_cast<double>(s.busy_ns) / 1000.0);
    sep = ",\n";
  }
  for (const Counter& c : counters_) {
    std::fprintf(f,
                 "%s{\"name\": \"%s\", \"ph\": \"C\", \"pid\": 1, \"ts\": "
                 "%.3f, \"args\": {\"value\": %lld}}",
                 sep, c.name.c_str(), us(c.at_ns),
                 static_cast<long long>(c.value));
    sep = ",\n";
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
