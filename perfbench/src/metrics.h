#ifndef PERFBENCH_METRICS_H_
#define PERFBENCH_METRICS_H_

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Named metrics in output order, serialized into the result line's
/// "metrics" object with every digit of each value.
class Metrics {
 public:
  void Add(std::string name, double value, std::string unit) {
    entries_.push_back(Entry{std::move(name), value, std::move(unit)});
  }

  std::string ToJson() const {
    std::string out = "{";
    for (size_t i = 0; i < entries_.size(); ++i) {
      char value[64];
      std::snprintf(value, sizeof(value), "%.17g", entries_[i].value);
      out += (i == 0 ? "\"" : ", \"") + entries_[i].name +
             "\": {\"value\": " + value + ", \"unit\": \"" +
             entries_[i].unit + "\"}";
    }
    return out + "}";
  }

 private:
  struct Entry {
    std::string name;
    double value = 0;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

/// `a / b`, or 0 when b is 0 (a layer that did no work).
inline double Ratio(double a, double b) { return b == 0 ? 0.0 : a / b; }

inline double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : (values[mid - 1] + values[mid]) / 2.0;
}

}  // namespace perfbench

#endif  // PERFBENCH_METRICS_H_
