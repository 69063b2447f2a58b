#include "real_run.h"

#include <time.h>

#include <chrono>
#include <memory>
#include <string>

#include "db/traffic.h"
#include "db/workload.h"
#include "trace.h"

namespace perfbench {
namespace {

using fastcommit::commit::Decision;
using fastcommit::db::Database;
using fastcommit::db::TrafficEngine;
using fastcommit::db::Transaction;
using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

template <typename T>
void Expect(const T& a, const T& b, const std::string& what,
            std::vector<std::string>* out) {
  if (a != b) out->push_back(what + " differs");
}

/// The output invariants every run must satisfy.
void CheckSample(const Workload& w, RunSample* s) {
  auto fail = [s](const std::string& what) { s->violations.push_back(what); };
  const auto& st = s->stats;
  if (st.offered != w.traffic.num_arrivals) {
    fail("offered " + std::to_string(st.offered) + " != arrivals " +
         std::to_string(w.traffic.num_arrivals));
  }
  if (st.committed + st.aborted + st.shed + st.read_only_committed !=
      st.offered) {
    fail("committed + aborted + shed + read_only_committed != offered");
  }
  if (s->completions != st.offered) {
    fail("completion callbacks " + std::to_string(s->completions) +
         " != offered " + std::to_string(st.offered));
  }
  // Transfers conserve the preloaded total; every committed
  // read-modify-write adds +1 at each of its keys.
  int64_t growth = w.conserves_sum ? 0 : w.traffic.keys_per_tx * st.committed;
  int64_t expected = w.preload_keys * kInitialBalance + growth;
  if (s->sum_after != expected) {
    fail("SumInts " + std::to_string(s->sum_after) + " != expected " +
         std::to_string(expected));
  }
}

}  // namespace

RunSample RunOnce(const Workload& w, std::vector<int64_t>* completion_ns) {
  RunSample s;
  s.setup_start_ns = NowNs();
  auto setup_start = Clock::now();
  auto database = std::make_unique<Database>(w.options);
  for (int64_t k = 0; k < w.preload_keys; ++k) {
    database->LoadInt(fastcommit::db::ItemKey(static_cast<int>(k)),
                      kInitialBalance);
  }
  TrafficEngine engine(w.traffic);
  s.setup_s = Seconds(setup_start, Clock::now());

  int64_t* completions = &s.completions;
  Database::CompletionCallback on_complete;
  if (completion_ns == nullptr) {
    on_complete = [completions](const Transaction&, Decision) {
      ++*completions;
    };
  } else {
    completion_ns->reserve(static_cast<size_t>(w.traffic.num_arrivals));
    on_complete = [completions, completion_ns](const Transaction&, Decision) {
      ++*completions;
      completion_ns->push_back(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              Clock::now().time_since_epoch())
              .count());
    };
  }

  double cpu_start = ProcessCpuSeconds();
  s.drain_start_ns = NowNs();
  auto drain_start = Clock::now();
  database->SubmitArrivals(&engine, std::move(on_complete));
  s.stats = database->Drain();
  s.drain_s = Seconds(drain_start, Clock::now());
  s.cpu_s = ProcessCpuSeconds() - cpu_start;

  s.sum_after = database->SumInts();
  s.batch = database->batch_stats();
  s.recovery = database->recovery_stats();
  s.geo = database->geo_stats();
  if (database->commit_log() != nullptr) {
    s.log = database->commit_log()->stats();
  }
  s.pool = database->pool_stats();
  s.plane_flushes = database->partition_plane().flushes();
  s.plane_tasks = database->partition_plane().tasks_drained();
  s.lookahead_skips = database->lookahead_skips();
  for (int p = 0; p < database->num_partitions(); ++p) {
    s.prepares += database->partition(p).prepares();
    s.conflicts += database->partition(p).conflicts();
  }
  s.read_fingerprint = database->read_fingerprint();
  CheckSample(w, &s);
  return s;
}

void CompareSimulated(const RunSample& a, const RunSample& b,
                      bool with_machinery, const std::string& label,
                      std::vector<std::string>* out) {
  std::vector<std::string> diffs;
  Expect(a.stats, b.stats, "DatabaseStats", &diffs);
  Expect(a.batch, b.batch, "BatchStats", &diffs);
  Expect(a.recovery, b.recovery, "RecoveryStats", &diffs);
  Expect(a.geo, b.geo, "GeoStats", &diffs);
  Expect(a.log, b.log, "CommitLog::Stats", &diffs);
  Expect(a.prepares, b.prepares, "partition prepares", &diffs);
  Expect(a.conflicts, b.conflicts, "partition conflicts", &diffs);
  Expect(a.read_fingerprint, b.read_fingerprint, "read_fingerprint", &diffs);
  Expect(a.sum_after, b.sum_after, "final SumInts", &diffs);
  if (with_machinery) {
    Expect(a.pool.created, b.pool.created, "pool.created", &diffs);
    Expect(a.pool.reused, b.pool.reused, "pool.reused", &diffs);
    Expect(a.pool.peak_live, b.pool.peak_live, "pool.peak_live", &diffs);
    Expect(a.plane_flushes, b.plane_flushes, "plane flushes", &diffs);
    Expect(a.plane_tasks, b.plane_tasks, "plane tasks", &diffs);
    Expect(a.lookahead_skips, b.lookahead_skips, "lookahead skips", &diffs);
  }
  for (const std::string& d : diffs) out->push_back(label + ": " + d);
}

}  // namespace perfbench
