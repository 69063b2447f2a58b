#ifndef PERFBENCH_REAL_RUN_H_
#define PERFBENCH_REAL_RUN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "db/commit_log.h"
#include "db/database.h"
#include "workloads.h"

namespace perfbench {

/// Everything one run of a workload through the public db::Database API
/// produced: the wall-clock measurements and every counter the database
/// exposes afterwards.
struct RunSample {
  /// Database construction + dataset preload + TrafficEngine construction.
  double setup_s = 0;
  /// SubmitArrivals + Drain, wall and process CPU (all threads).
  double drain_s = 0;
  double cpu_s = 0;
  /// Steady-clock instants the two phases began, for the traced run's spans.
  int64_t setup_start_ns = 0;
  int64_t drain_start_ns = 0;

  fastcommit::db::DatabaseStats stats;
  fastcommit::db::Database::BatchStats batch;
  fastcommit::db::Database::RecoveryStats recovery;
  fastcommit::db::Database::GeoStats geo;
  fastcommit::db::CommitLog::Stats log;  ///< zero without a commit log
  fastcommit::db::CommitInstancePool::Stats pool;
  int64_t plane_flushes = 0;
  int64_t plane_tasks = 0;
  int64_t lookahead_skips = 0;
  int64_t prepares = 0;   ///< summed over partitions
  int64_t conflicts = 0;  ///< summed over partitions
  uint64_t read_fingerprint = 0;
  int64_t completions = 0;  ///< completion callbacks delivered
  int64_t sum_after = 0;    ///< SumInts() after the drain

  /// Output-correctness violations found by CheckSample, one line each.
  std::vector<std::string> violations;

  /// Transactions that finished: committed through concurrency control
  /// plus read-only ones served by the snapshot plane.
  int64_t finished() const {
    return stats.committed + stats.read_only_committed;
  }
};

/// Runs `workload` once. With `completion_ns` non-null (the traced run)
/// every completion callback also appends a steady-clock timestamp there.
RunSample RunOnce(const Workload& workload,
                  std::vector<int64_t>* completion_ns = nullptr);

/// Appends to `out` every difference between the simulated outputs of two
/// runs: DatabaseStats, the batch, recovery, geo and commit-log counters,
/// per-partition prepare/conflict totals and the snapshot-read
/// fingerprint. `with_machinery` also compares the pool and partition-plane
/// counters, which legitimately differ between placements.
void CompareSimulated(const RunSample& a, const RunSample& b,
                      bool with_machinery, const std::string& label,
                      std::vector<std::string>* out);

}  // namespace perfbench

#endif  // PERFBENCH_REAL_RUN_H_
