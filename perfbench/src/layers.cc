#include "layers.h"

#include <algorithm>
#include <deque>
#include <string>
#include <utility>
#include <vector>

#include "db/instance_pool.h"
#include "db/partition_plane.h"
#include "db/traffic.h"
#include "db/workload.h"
#include "sim/sharded_simulator.h"
#include "sim/simulator.h"

namespace perfbench {
namespace {

namespace db = fastcommit::db;
namespace sim = fastcommit::sim;
using fastcommit::commit::Decision;
using fastcommit::commit::Vote;

/// One arrival split by partition, as the database routes it.
struct RoutedTx {
  db::TxId id = 0;
  sim::Time at = 0;
  bool read_only = false;
  std::vector<int> partitions;  ///< sorted, distinct
  std::vector<std::vector<db::Op>> local_ops;  ///< aligned with partitions
};

/// Times TrafficEngine::Next over the stream (untouched arrivals), then
/// regenerates it and routes every arrival through `router`'s
/// Database::PartitionOf.
std::vector<RoutedTx> ReplayTraffic(const Workload& w,
                                    const db::Database& router,
                                    LayerCosts* costs) {
  {
    db::TrafficEngine engine(w.traffic);
    db::TrafficEngine::Arrival arrival;
    int64_t start = NowNs();
    int64_t n = 0;
    while (engine.Next(&arrival)) ++n;
    int64_t end = NowNs();
    costs->traffic.calls = n;
    costs->traffic.ns = end - start;
    costs->traffic.first_ns = start;
    costs->traffic.last_ns = end;
  }
  db::TrafficEngine engine(w.traffic);
  db::TrafficEngine::Arrival arrival;
  std::vector<RoutedTx> routed;
  routed.reserve(static_cast<size_t>(w.traffic.num_arrivals));
  std::vector<int> op_partition;
  while (engine.Next(&arrival)) {
    RoutedTx tx;
    tx.id = arrival.tx.id;
    tx.at = arrival.at;
    tx.read_only = db::IsReadOnly(arrival.tx);
    op_partition.clear();
    for (const db::Op& op : arrival.tx.ops) {
      op_partition.push_back(router.PartitionOf(op.key));
    }
    tx.partitions = op_partition;
    std::sort(tx.partitions.begin(), tx.partitions.end());
    tx.partitions.erase(
        std::unique(tx.partitions.begin(), tx.partitions.end()),
        tx.partitions.end());
    tx.local_ops.resize(tx.partitions.size());
    for (size_t i = 0; i < arrival.tx.ops.size(); ++i) {
      size_t slot = static_cast<size_t>(
          std::lower_bound(tx.partitions.begin(), tx.partitions.end(),
                           op_partition[i]) -
          tx.partitions.begin());
      tx.local_ops[slot].push_back(std::move(arrival.tx.ops[i]));
    }
    routed.push_back(std::move(tx));
  }
  return routed;
}

/// Participant::Prepare/Finish/ReadAtSnapshot, one transaction at a time.
void ReplayParticipants(const Workload& w, const std::vector<RoutedTx>& txs,
                        db::PartitionPlane* plane, int64_t* csn,
                        LayerCosts* costs,
                        std::vector<std::string>* violations) {
  std::vector<db::Value> values;
  int64_t no_votes = 0;
  for (const RoutedTx& tx : txs) {
    if (tx.read_only && w.options.snapshot_reads) {
      for (size_t i = 0; i < tx.partitions.size(); ++i) {
        const db::Participant& p = plane->partition(tx.partitions[i]);
        values.clear();
        int64_t start = NowNs();
        p.ReadAtSnapshot(*csn, tx.local_ops[i], &values);
        costs->snapshot_read.Record(start, NowNs());
      }
      continue;
    }
    for (size_t i = 0; i < tx.partitions.size(); ++i) {
      db::Participant& p = plane->partition(tx.partitions[i]);
      int64_t start = NowNs();
      Vote vote = p.Prepare(tx.id, tx.local_ops[i]);
      costs->prepare.Record(start, NowNs());
      if (vote != Vote::kYes) ++no_votes;
    }
    ++*csn;
    for (int partition : tx.partitions) {
      db::Participant& p = plane->partition(partition);
      int64_t start = NowNs();
      p.Finish(tx.id, Decision::kCommit, *csn, *csn);
      costs->finish.Record(start, NowNs());
    }
  }
  if (no_votes > 0) {
    violations->push_back("participant replay: " + std::to_string(no_votes) +
                          " serial prepares voted no");
  }
}

/// Pooled commit rounds at the workload's round widths and protocol, each
/// run to quiescence on one simulator; returns each round's event count
/// for the kernel replay.
std::vector<int> ReplayCommitRounds(const Workload& w,
                                    const std::vector<RoutedTx>& txs,
                                    LayerCosts* costs,
                                    std::vector<std::string>* violations) {
  db::CommitInstancePool pool(w.options.protocol, w.options.consensus,
                              w.options.protocol_options, w.options.unit,
                              /*enabled=*/true);
  sim::Simulator simulator;
  std::vector<int> events_per_round;
  int64_t not_committed = 0;
  Decision decision = Decision::kNone;
  for (const RoutedTx& tx : txs) {
    if (tx.read_only && w.options.snapshot_reads) continue;
    if (tx.partitions.size() < 2) continue;
    decision = Decision::kNone;
    int64_t start = NowNs();
    db::CommitInstance* instance = pool.Acquire(
        0, &simulator, std::vector<Vote>(tx.partitions.size(), Vote::kYes),
        [&decision](db::CommitInstance*, Decision d) { decision = d; });
    instance->Start();
    int64_t events = simulator.Run();
    int64_t messages = instance->messages();
    pool.Release(instance);
    costs->commit_round.Record(start, NowNs());
    costs->commit_events += events;
    costs->commit_messages += messages;
    events_per_round.push_back(static_cast<int>(events));
    if (decision != Decision::kCommit) ++not_committed;
  }
  if (not_committed > 0) {
    violations->push_back("commit replay: " + std::to_string(not_committed) +
                          " all-yes rounds did not decide commit");
  }
  return events_per_round;
}

/// The event kernel alone: each replayed round's event count scheduled as
/// empty handlers and run to quiescence.
void ReplayKernel(const std::vector<int>& events_per_round,
                  LayerCosts* costs) {
  sim::Simulator simulator;
  int64_t ran = 0;
  for (int events : events_per_round) {
    int64_t start = NowNs();
    for (int e = 0; e < events; ++e) {
      simulator.ScheduleAt(simulator.Now() + 1 + e % 4,
                           sim::EventClass::kDelivery, [&ran] { ++ran; });
    }
    simulator.Run();
    costs->kernel.Record(start, NowNs());
  }
  costs->kernel_events = ran;
}

/// PartitionPlane task queues at the workload's placement: a barrier per
/// write transaction's prepares (votes read back), or, under conflict
/// lookahead, predicted prepares with barriers at the real run's cadence.
/// Snapshot reads ride the same FIFOs as in the database.
void ReplayPlane(const Workload& w, const RunSample& real,
                 const std::vector<RoutedTx>& txs, sim::ShardedSimulator* sim,
                 db::PartitionPlane* plane, int64_t* csn, LayerCosts* costs,
                 std::vector<std::string>* violations) {
  const bool lookahead = w.options.conflict_lookahead;
  const int64_t flush_every =
      lookahead ? std::max<int64_t>(
                      1, real.stats.offered /
                             std::max<int64_t>(1, real.plane_flushes))
                : 1;
  const int64_t flushes_before = plane->flushes();
  std::deque<std::vector<db::Value>> read_slots;
  std::vector<Vote> votes;
  int64_t since_flush = 0;
  int64_t no_votes = 0;
  int64_t oldest_read_csn = -1;
  auto flush = [&] {
    plane->Flush(sim);
    read_slots.clear();
    oldest_read_csn = -1;
    since_flush = 0;
  };
  auto ops_for = [plane](const std::vector<db::Op>& ops) {
    std::vector<db::Op> buffer = plane->TakeOpsBuffer();
    buffer.assign(ops.begin(), ops.end());
    return buffer;
  };
  for (const RoutedTx& tx : txs) {
    int64_t start = NowNs();
    if (tx.read_only && w.options.snapshot_reads) {
      if (oldest_read_csn < 0) oldest_read_csn = *csn;
      for (size_t i = 0; i < tx.partitions.size(); ++i) {
        read_slots.emplace_back();
        plane->EnqueueSnapshotRead(tx.partitions[i], tx.at, tx.id, *csn,
                                   ops_for(tx.local_ops[i]),
                                   &read_slots.back());
      }
    } else if (lookahead) {
      for (size_t i = 0; i < tx.partitions.size(); ++i) {
        plane->EnqueuePredictedPrepare(tx.partitions[i], tx.at, tx.id,
                                       ops_for(tx.local_ops[i]));
      }
    } else {
      votes.assign(tx.partitions.size(), Vote::kNo);
      for (size_t i = 0; i < tx.partitions.size(); ++i) {
        plane->EnqueuePrepare(tx.partitions[i], tx.at, tx.id,
                              ops_for(tx.local_ops[i]), &votes[i]);
      }
      flush();
      for (Vote v : votes) no_votes += v == Vote::kYes ? 0 : 1;
    }
    if (!(tx.read_only && w.options.snapshot_reads)) {
      ++*csn;
      int64_t watermark = oldest_read_csn < 0 ? *csn : oldest_read_csn;
      for (int partition : tx.partitions) {
        plane->EnqueueFinish(partition, tx.at, tx.id, Decision::kCommit, *csn,
                             watermark);
      }
    }
    if (lookahead && ++since_flush >= flush_every) flush();
    costs->plane.Record(start, NowNs());
  }
  // The closing barrier drains the last deferred finishes; its time counts,
  // but it is not a transaction of its own.
  int64_t start = NowNs();
  flush();
  costs->plane.ns += NowNs() - start;
  costs->plane_flushes = plane->flushes() - flushes_before;
  if (no_votes > 0) {
    violations->push_back("plane replay: " + std::to_string(no_votes) +
                          " serial prepares voted no");
  }
}

}  // namespace

LayerCosts ReplayLayers(const Workload& w, const RunSample& real,
                        SpanLog* spans, std::vector<std::string>* violations) {
  LayerCosts costs;
  // Routing only: a default database with the workload's partition count.
  db::Database::Options router_options;
  router_options.num_partitions = w.options.num_partitions;
  db::Database router(router_options);

  int64_t start = NowNs();
  std::vector<RoutedTx> txs = ReplayTraffic(w, router, &costs);
  int routing = spans->Add("replay.traffic", start, NowNs());
  costs.traffic.AddTo(spans, "db.TrafficEngine::Next", routing);

  // One partition plane serves the participant replay (direct calls on
  // its quiescent partitions) and then its own task-queue replay; the CSN
  // runs on across both so version chains keep growing as in a real run.
  start = NowNs();
  sim::ShardedSimulator::Options sim_options;
  sim_options.num_shards = w.options.num_shards;
  sim_options.num_threads = w.options.num_threads;
  sim::ShardedSimulator sharded(sim_options);
  db::PartitionPlane plane(w.options.num_partitions, sharded.num_shards(),
                           w.options.concurrency, w.options.num_regions);
  for (int64_t k = 0; k < w.preload_keys; ++k) {
    db::Key key = db::ItemKey(static_cast<int>(k));
    plane.partition(router.PartitionOf(key))
        .store()
        .Put(key, std::to_string(kInitialBalance));
  }
  spans->Add("replay.preload", start, NowNs(), -1, w.preload_keys);
  int64_t csn = 0;

  start = NowNs();
  ReplayParticipants(w, txs, &plane, &csn, &costs, violations);
  int participant = spans->Add("replay.participant", start, NowNs());
  costs.prepare.AddTo(spans, "db.Participant::Prepare", participant);
  costs.finish.AddTo(spans, "db.Participant::Finish", participant);
  costs.snapshot_read.AddTo(spans, "db.Participant::ReadAtSnapshot",
                            participant);

  start = NowNs();
  std::vector<int> events = ReplayCommitRounds(w, txs, &costs, violations);
  int commit = spans->Add("replay.commit", start, NowNs());
  costs.commit_round.AddTo(spans, "db.CommitInstancePool round", commit);

  start = NowNs();
  ReplayKernel(events, &costs);
  int kernel = spans->Add("replay.sim", start, NowNs());
  costs.kernel.AddTo(spans, "sim.Simulator ScheduleAt+Run", kernel);

  start = NowNs();
  ReplayPlane(w, real, txs, &sharded, &plane, &csn, &costs, violations);
  int plane_span = spans->Add("replay.plane", start, NowNs());
  costs.plane.AddTo(spans, "db.PartitionPlane Enqueue+Flush", plane_span);
  return costs;
}

}  // namespace perfbench
