#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "db/database.h"
#include "db/traffic.h"

namespace perfbench {

/// One named benchmark workload: the database configuration, the open-loop
/// arrival stream fed to it, the dataset preloaded in set-up, and the
/// output invariants its runs are checked against. Everything is a pure
/// function of (name, seed), so the same seed gives the same inputs.
struct Workload {
  std::string name;
  fastcommit::db::Database::Options options;
  fastcommit::db::TrafficOptions traffic;
  /// Keys ItemKey(0) .. ItemKey(preload_keys - 1) are loaded with
  /// kInitialBalance before the stream starts.
  int64_t preload_keys = 0;
  /// Transfer pairs conserve SumInts(); read-modify-write arrivals add +1
  /// per key per committed transaction instead.
  bool conserves_sum = true;
};

/// The threaded placement every workload is also checked and timed on in
/// its traced run: shards x worker threads. Simulated outputs must not
/// change with placement.
constexpr int kThreadedShards = 4;
constexpr int kThreadedThreads = 2;

constexpr int64_t kInitialBalance = 1000;

/// The workload names, in BENCHMARK.json order.
const std::vector<std::string>& WorkloadNames();

/// Builds workload `name` for `seed`; false for an unknown name.
bool MakeWorkload(const std::string& name, uint64_t seed, Workload* out);

/// One-line summary of every knob a workload sets, printed with each
/// result so a number can always be traced back to its configuration.
std::string Describe(const Workload& workload);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
