// perfbench: the repository benchmark. Runs one named workload through
// the public db::Database API for a time budget, checks every run's
// outputs, and prints one JSON result line.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--trace-out PATH]
//
// --trace 0 reports the end-to-end metrics (wall-clock ones as medians
// over the repeats that fit in S seconds). --trace 1 reports the
// per-layer metrics: the counters of one traced real run plus replays of
// the workload's own inputs through each layer (layers.h), and writes the
// run's spans as Chrome trace-event JSON to PATH when given.

#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "host.h"
#include "layers.h"
#include "metrics.h"
#include "real_run.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

/// Medians need three values, and the repeat-identity check two runs.
constexpr int kMinRepeats = 3;
/// Bounds the samples kept when a workload becomes very fast.
constexpr int kMaxRepeats = 50;
/// Untraced repeats a traced run's overhead is measured against.
constexpr int kTraceBaselineRepeats = 2;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atof(value);
    } else if (flag == "--trace") {
      args->trace = std::atoi(value);
    } else if (flag == "--trace-out") {
      args->trace_out = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0 &&
         (args->trace == 0 || args->trace == 1);
}

double Elapsed(std::chrono::steady_clock::time_point since) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       since)
      .count();
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Appends a repeat's own violations plus every simulated output that
/// differs from the first repeat's: same seed, same outputs.
void CheckRepeat(const RunSample& first, const RunSample& sample,
                 size_t index, std::vector<std::string>* violations) {
  for (const auto& v : sample.violations) violations->push_back(v);
  CompareSimulated(first, sample, /*with_machinery=*/true,
                   "repeat " + std::to_string(index) + " vs repeat 1",
                   violations);
}

double TxPerS(const RunSample& s) {
  return Ratio(static_cast<double>(s.finished()), s.drain_s);
}

double CpuUsPerTx(const RunSample& s) {
  return Ratio(s.cpu_s * 1e6, static_cast<double>(s.finished()));
}

void AddEndToEnd(const std::vector<RunSample>& samples, Metrics* m) {
  std::vector<double> tx_per_s;
  std::vector<double> cpu_us;
  std::vector<double> setup;
  for (const RunSample& s : samples) {
    tx_per_s.push_back(TxPerS(s));
    cpu_us.push_back(CpuUsPerTx(s));
    setup.push_back(s.setup_s);
  }
  const RunSample& s = samples.front();
  m->Add("tx_per_s", Median(tx_per_s), "tx/s");
  m->Add("cpu_us_per_tx", Median(cpu_us), "us");
  m->Add("setup_s", Median(setup), "s");
  m->Add("peak_rss_mb", PeakRssMb(), "MB");
  m->Add("commit_p50_ticks",
         static_cast<double>(s.stats.latency.Percentile(50)), "ticks");
  m->Add("commit_p99_ticks",
         static_cast<double>(s.stats.latency.Percentile(99)), "ticks");
  m->Add("msgs_per_commit",
         Ratio(static_cast<double>(s.stats.commit_messages),
               static_cast<double>(s.stats.committed)),
         "msgs");
  m->Add("goodput_per_ktick",
         Ratio(static_cast<double>(s.finished()) * 1000.0,
               static_cast<double>(s.stats.makespan)),
         "tx/ktick");
}

/// `inline_samples` are the untraced repeats at the workload's own
/// placement, `traced` the traced run and `threaded` the run of the same
/// inputs at kThreadedShards x kThreadedThreads.
void AddPerLayer(const std::vector<RunSample>& inline_samples,
                 const RunSample& s, const RunSample& threaded,
                 const LayerCosts& c, Metrics* m) {
  const double offered = static_cast<double>(s.stats.offered);
  const double pooled_rounds =
      static_cast<double>(s.pool.created + s.pool.reused);
  // Rounds the control plane formed: batched rounds when batching is on,
  // otherwise one pooled instance per multi-partition attempt.
  const double rounds = s.batch.rounds > 0
                            ? static_cast<double>(s.batch.rounds)
                            : pooled_rounds;
  const double replay_rounds = static_cast<double>(c.commit_round.calls);

  m->Add("sim.ns_per_event",
         Ratio(static_cast<double>(c.kernel.ns),
               static_cast<double>(c.kernel_events)),
         "ns");
  m->Add("sim.events_per_round",
         Ratio(static_cast<double>(c.commit_events), replay_rounds),
         "events");
  m->Add("commit.ns_per_round", c.commit_round.NsPerCall(), "ns");
  m->Add("net.msgs_per_round",
         Ratio(static_cast<double>(c.commit_messages), replay_rounds), "msgs");
  m->Add("pool.created", static_cast<double>(s.pool.created), "count");
  m->Add("pool.reuse_share",
         Ratio(static_cast<double>(s.pool.reused), pooled_rounds), "ratio");
  m->Add("pool.peak_live", static_cast<double>(s.pool.peak_live), "count");
  m->Add("participant.ns_per_prepare", c.prepare.NsPerCall(), "ns");
  m->Add("participant.ns_per_finish", c.finish.NsPerCall(), "ns");
  m->Add("participant.ns_per_snapshot_read", c.snapshot_read.NsPerCall(),
         "ns");
  m->Add("participant.conflict_share",
         Ratio(static_cast<double>(s.conflicts),
               static_cast<double>(s.prepares)),
         "ratio");
  m->Add("plane.ns_per_flush",
         Ratio(static_cast<double>(c.plane.ns),
               static_cast<double>(c.plane_flushes)),
         "ns");
  m->Add("plane.flushes_per_tx",
         Ratio(static_cast<double>(s.plane_flushes), offered), "ratio");
  m->Add("plane.tasks_per_tx",
         Ratio(static_cast<double>(s.plane_tasks), offered), "ratio");
  m->Add("plane.lookahead_skip_share",
         Ratio(static_cast<double>(s.lookahead_skips), offered), "ratio");
  m->Add("batch.occupancy", s.batch.Occupancy(), "tx/round");
  m->Add("batch.rounds_per_tx",
         Ratio(static_cast<double>(s.batch.rounds), offered), "ratio");
  m->Add("batch.cross_set_joins", static_cast<double>(s.batch.cross_set_joins),
         "count");
  m->Add("batch.merged_rounds", static_cast<double>(s.batch.merged_rounds),
         "count");
  m->Add("control.retry_share",
         Ratio(static_cast<double>(s.stats.retries), offered), "ratio");
  m->Add("failed_share",
         Ratio(static_cast<double>(s.stats.aborted + s.stats.shed), offered),
         "ratio");
  m->Add("log.appends_per_round",
         Ratio(static_cast<double>(s.log.appends), rounds), "ratio");
  m->Add("log.slow_path_share",
         Ratio(static_cast<double>(s.log.slow_path_decisions),
               static_cast<double>(s.log.fast_path_decisions +
                                   s.log.slow_path_decisions)),
         "ratio");
  m->Add("geo.cross_region_delays_per_round",
         s.geo.CrossRegionRoundsPerCommit(), "delays");
  m->Add("geo.one_phase_share",
         Ratio(static_cast<double>(s.geo.one_phase_rounds),
               static_cast<double>(s.geo.co_coordinator_rounds)),
         "ratio");
  m->Add("recovery.redo_rounds", static_cast<double>(s.recovery.redo_rounds),
         "count");
  m->Add("recovery.redecide_rounds",
         static_cast<double>(s.recovery.redecide_rounds), "count");
  m->Add("recovery.presumed_aborts",
         static_cast<double>(s.recovery.presumed_aborts), "count");
  m->Add("recovery.unavailability_ticks",
         static_cast<double>(s.recovery.unavailability_ticks), "ticks");
  m->Add("traffic.ns_per_arrival", c.traffic.NsPerCall(), "ns");
  m->Add("latency.samples_beyond_p99",
         static_cast<double>(std::min<int64_t>(
                                 s.stats.latency.count(),
                                 fastcommit::db::LatencyStats::
                                     kReservoirCapacity) /
                             100),
         "count");

  // Derived, not measured: the traced drain per transaction minus the
  // replayed costs of the layers it calls. Participant and kernel costs
  // are not added again: the plane replay runs the participant calls and
  // the commit replay runs the kernel.
  double layer_ns_per_tx =
      c.traffic.NsPerCall() + c.commit_round.NsPerCall() *
                                  Ratio(pooled_rounds, offered) +
      Ratio(static_cast<double>(c.plane.ns),
            static_cast<double>(c.plane.calls));
  m->Add("control.residual_ns_per_tx",
         Ratio(s.drain_s * 1e9, offered) - layer_ns_per_tx, "ns");

  std::vector<double> tx_per_s;
  std::vector<double> cpu_us;
  for (const RunSample& sample : inline_samples) {
    tx_per_s.push_back(TxPerS(sample));
    cpu_us.push_back(CpuUsPerTx(sample));
  }
  m->Add("trace.tx_per_s_ratio", Ratio(TxPerS(s), Median(tx_per_s)), "ratio");
  m->Add("placement.threaded_speedup",
         Ratio(TxPerS(threaded), Median(tx_per_s)), "ratio");
  m->Add("placement.threaded_cpu_ratio",
         Ratio(CpuUsPerTx(threaded), Median(cpu_us)), "ratio");
}

void PrintResult(bool correct, int64_t attempted, int64_t failed,
                 const Metrics& metrics) {
  std::printf(
      "{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
      "\"metrics\": %s}\n",
      correct ? "true" : "false", static_cast<long long>(attempted),
      static_cast<long long>(failed), metrics.ToJson().c_str());
  std::fflush(stdout);
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload NAME --seed N --seconds S --trace 0|1 "
                 "[--trace-out PATH]\n",
                 argv[0]);
    return 2;
  }
  std::string refusal = BuildRefusal();
  if (!refusal.empty()) {
    std::fprintf(stderr, "perfbench: refusing to measure: %s\n",
                 refusal.c_str());
    return 2;
  }
  Workload w;
  if (!MakeWorkload(args.workload, args.seed, &w)) {
    std::string known;
    for (const std::string& name : WorkloadNames()) known += " " + name;
    std::fprintf(stderr, "perfbench: unknown workload %s (known:%s)\n",
                 args.workload.c_str(), known.c_str());
    return 2;
  }
  std::printf("host: %s\n", HostFingerprint().c_str());
  std::printf("config: %s\n", Describe(w).c_str());
  std::fflush(stdout);

  std::vector<std::string> violations;
  Metrics metrics;
  const auto start = std::chrono::steady_clock::now();
  std::vector<RunSample> samples;
  if (args.trace == 0) {
    while (true) {
      auto repeat_start = std::chrono::steady_clock::now();
      samples.push_back(RunOnce(w));
      CheckRepeat(samples.front(), samples.back(), samples.size(),
                  &violations);
      double took = Elapsed(repeat_start);
      std::fprintf(stderr, "repeat %zu: setup %.3f s, drain %.3f s\n",
                   samples.size(), samples.back().setup_s,
                   samples.back().drain_s);
      if (static_cast<int>(samples.size()) >= kMaxRepeats) break;
      if (static_cast<int>(samples.size()) >= kMinRepeats &&
          Elapsed(start) + took > args.seconds) {
        break;
      }
    }
    AddEndToEnd(samples, &metrics);
    const auto& latency = samples.front().stats.latency;
    std::printf(
        "note: %zu repeats; commit latency over %lld multi-partition "
        "commits, reservoir %zu, %zu samples beyond p99\n",
        samples.size(), static_cast<long long>(latency.count()),
        latency.sample().size(), latency.sample().size() / 100);
  } else {
    for (int i = 0; i < kTraceBaselineRepeats; ++i) {
      samples.push_back(RunOnce(w));
      CheckRepeat(samples.front(), samples.back(), samples.size(),
                  &violations);
    }
    const std::vector<RunSample> untraced = samples;

    SpanLog spans;
    std::vector<int64_t> completion_ns;
    int64_t run_start = NowNs();
    RunSample traced = RunOnce(w, &completion_ns);
    int run = spans.Add("real_run", run_start, NowNs());
    CheckRepeat(samples.front(), traced, samples.size() + 1, &violations);
    spans.Add("db.Database setup", traced.setup_start_ns,
              traced.setup_start_ns +
                  static_cast<int64_t>(traced.setup_s * 1e9),
              run);
    spans.Add("db.Database::SubmitArrivals+Drain", traced.drain_start_ns,
              traced.drain_start_ns +
                  static_cast<int64_t>(traced.drain_s * 1e9),
              run, traced.stats.offered);
    for (size_t i = 0; i < completion_ns.size(); i += 1000) {
      spans.AddCounter("finished_tx", completion_ns[i],
                       static_cast<int64_t>(i + 1));
    }
    samples.push_back(traced);

    Workload threaded_workload = w;
    threaded_workload.options.num_shards = kThreadedShards;
    threaded_workload.options.num_threads = kThreadedThreads;
    int64_t threaded_start = NowNs();
    RunSample threaded = RunOnce(threaded_workload);
    spans.Add("real_run.threaded", threaded_start, NowNs());
    for (const auto& v : threaded.violations) violations.push_back(v);
    CompareSimulated(samples.front(), threaded, /*with_machinery=*/false,
                     "threaded placement vs repeat 1", &violations);
    samples.push_back(threaded);

    LayerCosts costs = ReplayLayers(w, traced, &spans, &violations);
    AddPerLayer(untraced, traced, threaded, costs, &metrics);
    if (!args.trace_out.empty() && !spans.WriteChromeJson(args.trace_out)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n",
                   args.trace_out.c_str());
      return 2;
    }
  }
  int64_t attempted = 0;
  int64_t failed = 0;
  for (const RunSample& s : samples) {
    attempted += s.stats.offered;
    failed += s.stats.aborted + s.stats.shed;
  }

  for (const std::string& v : violations) {
    std::printf("violation: %s\n", v.c_str());
  }
  bool correct = violations.empty();
  PrintResult(correct, attempted, failed, metrics);
  return correct ? 0 : 3;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
