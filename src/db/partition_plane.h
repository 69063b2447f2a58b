#ifndef FASTCOMMIT_DB_PARTITION_PLANE_H_
#define FASTCOMMIT_DB_PARTITION_PLANE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "db/participant.h"
#include "db/transaction.h"
#include "sim/sharded_simulator.h"
#include "sim/sim_time.h"

namespace fastcommit::db {

/// Owns every partition (Participant: lock manager + KV store + staged
/// writes) and executes their data-path work — Prepare's lock acquisition,
/// commit's write application, abort's lock release — off the control
/// plane. This is the hot path "Distributed Transactions: Dissecting the
/// Nightmare" pins as the dominant cost of a distributed commit: before
/// this layer existed, every Participant call ran serially inside the
/// database's control events, so the lock manager and KV store were the
/// scalability ceiling no delay-optimal commit protocol could buy back.
///
/// ## Execution model
///
/// The control plane (submit/route, batch formation, retry/backoff) never
/// calls into a Participant directly. It enqueues *partition tasks* tagged
/// (time, tx id) into per-partition FIFO queues and flushes the plane at
/// deterministic barriers:
///   - inside Database::Execute, immediately after enqueueing one
///     transaction's prepares and before consuming their votes;
///   - before any direct read of partition state (store accessors,
///     Database::partition());
///   - at the end of a drain.
/// Finish tasks are deferred: they wait in the queues until the next
/// barrier, which always precedes the next Prepare of any partition. Each
/// queue therefore replays exactly the serial history — a finish enqueued
/// at time F runs before a prepare enqueued at u >= F, and same-instant
/// tasks keep their control-plane issue order — so outcomes (votes,
/// partition state, per-partition counters) are bitwise identical to the
/// inline reference (Database::Options::partition_parallel = false), which
/// flushes after every enqueue so each task runs the moment it is queued.
/// tests/db_placement_fuzz_test.cc gates the identity across random
/// placements.
///
/// ## Parallelism and determinism
///
/// Each partition has a *home shard* — FNV-1a over the partition id
/// bytes, the same fully-specified hash family Database::PartitionOf uses
/// for keys — and a flush drains each home shard's partition group on one
/// worker (sim::ShardedSimulator::ParallelFor). Partitions share no
/// state, every queue drains in canonical (time, tx id) enqueue order,
/// and cross-partition interleaving is unobservable, so any worker
/// schedule yields the same result; only wall-clock changes with the
/// thread count.
class PartitionPlane {
 public:
  /// `num_home_shards` is the worker-group count, normally the sharded
  /// simulator's shard count so partition flushes and instance drains
  /// scale together. `mode` is the concurrency control every Participant
  /// runs (Database::Options::concurrency). `num_regions` homes each
  /// partition in a geo region (Database::Options::num_regions); 1 keeps
  /// the single-latency-class world.
  PartitionPlane(int num_partitions, int num_home_shards,
                 ConcurrencyMode mode = ConcurrencyMode::k2PL,
                 int num_regions = 1);
  PartitionPlane(const PartitionPlane&) = delete;
  PartitionPlane& operator=(const PartitionPlane&) = delete;

  int num_partitions() const { return static_cast<int>(queues_.size()); }
  /// Home shard (worker group) of `partition`; stable FNV-1a placement,
  /// independent of arrival order and load.
  int HomeShardOf(int partition) const;
  /// Geo region of `partition`: round-robin homing (partition mod regions),
  /// deliberately *not* hashed — region assignment is part of the modeled
  /// deployment, so workloads pick their region mix by picking partitions.
  int RegionOf(int partition) const;
  int num_regions() const { return num_regions_; }

  /// Direct partition access. Callers that may have pending tasks must
  /// Flush first (Database's accessors do).
  Participant& partition(int index);

  /// Reusable op buffer for EnqueuePrepare (drained task buffers are
  /// recycled here, so steady state allocates nothing per task).
  std::vector<Op> TakeOpsBuffer();

  /// Queues a Prepare of `tx`'s local ops at `partition`. The vote lands
  /// in `*vote_out` when the plane flushes; `vote_out` must stay valid
  /// until then (Database::Execute flushes before its votes vector dies).
  void EnqueuePrepare(int partition, sim::Time at, TxId tx,
                      std::vector<Op> ops, commit::Vote* vote_out);

  /// Queues a Prepare whose vote the control plane already *predicted* as
  /// kYes (conflict-aware lookahead: the transaction's keys are provably
  /// disjoint from every in-flight transaction's, so no lock acquisition
  /// can fail). No vote slot is captured and no barrier is needed before
  /// the caller proceeds; the drain FC_CHECKs the real vote against the
  /// prediction, so a tracker bug dies loudly instead of committing a
  /// conflicted transaction.
  void EnqueuePredictedPrepare(int partition, sim::Time at, TxId tx,
                               std::vector<Op> ops);

  /// Queues a Finish (apply staged writes on commit, release locks) of
  /// `tx` at `partition`. Deferred until the next barrier. `csn` is the
  /// commit CSN a commit's writes are versioned at (0 for aborts), and
  /// `gc_watermark` the reader low-watermark the touched chains may be
  /// pruned to — both computed on the control plane at enqueue time, so a
  /// stale (smaller) watermark at drain time only prunes less, never more.
  void EnqueueFinish(int partition, sim::Time at, TxId tx,
                     commit::Decision decision, int64_t csn = 0,
                     int64_t gc_watermark = 0);

  /// Queues a lock-free snapshot read of `ops`' kGets at `partition`
  /// (Participant::ReadAtSnapshot). The values land in `*values_out` when
  /// the plane flushes; the slot must stay valid until then (Database owns
  /// it in the pending-read state finalized at the next barrier). Riding
  /// the same FIFO as finishes is what makes the read consistent: every
  /// commit with CSN <= `snapshot_csn` was enqueued earlier, so its writes
  /// apply before the read runs — no locks, no votes, no barrier of its
  /// own.
  /// `read_done` (optional) is bumped once when the read executes — the
  /// database's filled-slot counter for prefix finalization, needed
  /// because a crashed partition defers its reads past the next barrier.
  /// Atomic: one read's slots span partitions, hence worker threads.
  void EnqueueSnapshotRead(int partition, sim::Time at, TxId tx,
                           int64_t snapshot_csn, std::vector<Op> ops,
                           std::vector<Value>* values_out,
                           std::atomic<int>* read_done = nullptr);

  bool has_pending() const { return pending_tasks_ > 0; }

  /// Fault injection (Options::fault_plan): takes `partition` down. Queued
  /// and future finishes / snapshot reads are deferred in FIFO order — the
  /// partition crashes *holding its locks* — and prepares draining while
  /// down vote kNo without reaching the Participant (the no-wait analogue
  /// of an unreachable host). Control-plane only; never during a Flush.
  void CrashPartition(int partition);

  /// Brings `partition` back: deferred tasks are prepended to the queue
  /// (they are the oldest work) and apply at the next barrier.
  void RestartPartition(int partition);

  bool partition_down(int partition) const {
    return queues_[static_cast<size_t>(partition)].down;
  }
  /// Tasks ever deferred by down partitions / prepares refused while down,
  /// summed over partitions. Machinery counters, not part of stats
  /// equality (per-queue, so worker drains never contend).
  int64_t deferred_tasks_total() const;
  int64_t down_vote_noes() const;

  /// Drains every queue to empty, running home-shard groups through
  /// `sim`'s worker pool (ParallelFor) when enough work is pending to pay
  /// for the dispatch. No-op with nothing pending.
  void Flush(sim::ShardedSimulator* sim);

  /// When on, Flush ends with Participant::CheckInvariants over every
  /// partition — the debug hook tests/lock_invariant_test.cc stresses.
  /// O(held locks + staged writes) per barrier, so off by default.
  void set_check_invariants(bool on) { check_invariants_ = on; }

  /// Flush barriers executed (those with work) and tasks drained, for the
  /// benches' prepare-on-shard reporting. Not part of any stats equality.
  int64_t flushes() const { return flushes_; }
  int64_t tasks_drained() const { return tasks_drained_; }

 private:
  /// One queued unit of partition work. The enqueue instant is validated
  /// against the queue's last_enqueued_at and not stored: FIFO drain
  /// preserves it.
  enum class TaskKind : uint8_t {
    kPrepare,           ///< run Prepare, write the vote to `vote_out`
    kPredictedPrepare,  ///< run Prepare, FC_CHECK the vote is kYes
    kFinish,            ///< run Finish with `decision` at `csn`
    kSnapshotRead,      ///< run ReadAtSnapshot(csn) into `values_out`
  };
  struct Task {
    TaskKind kind = TaskKind::kFinish;
    TxId tx = 0;
    commit::Decision decision = commit::Decision::kNone;
    /// kFinish: the commit CSN; kSnapshotRead: the snapshot CSN.
    int64_t csn = 0;
    int64_t gc_watermark = 0;  ///< kFinish only: chain-prune floor
    commit::Vote* vote_out = nullptr;
    std::vector<Value>* values_out = nullptr;  ///< kSnapshotRead only
    std::vector<Op> ops;
    std::atomic<int>* read_done = nullptr;  ///< kSnapshotRead only
  };

  struct PartitionQueue {
    std::unique_ptr<Participant> participant;
    std::vector<Task> tasks;
    /// Canonical-order guard: enqueue times per queue never decrease
    /// (the control plane issues tasks in merged virtual-time order).
    sim::Time last_enqueued_at = 0;
    /// Fault injection: while down, drains defer finishes/reads here (FIFO)
    /// and answer prepares with kNo. Only the draining worker and the
    /// control plane (between flushes) touch these.
    bool down = false;
    std::vector<Task> deferred;
    int64_t deferred_total = 0;
    int64_t down_noes = 0;
  };

  /// Worker dispatch pays a wake + join round trip (~microseconds);
  /// below this many pending tasks a flush drains inline on the calling
  /// thread — the common case, since a transaction's own barrier carries
  /// only its prepares plus a few deferred finishes. Large finish
  /// backlogs (batched rounds deciding many members) go parallel.
  static constexpr int64_t kParallelFlushMin = 16;

  PartitionQueue& queue(int partition);
  /// Marks a partition dirty on its first pending task.
  void Touch(int partition);
  /// Executes one queue's tasks in FIFO order — the single dispatch site
  /// both the parallel (drain_group_) and inline flush routes share.
  void DrainQueue(PartitionQueue& q);
  void ReclaimAndClear(PartitionQueue& q);

  std::vector<PartitionQueue> queues_;
  std::vector<std::vector<int>> groups_;  ///< home shard -> partition ids
  int num_regions_ = 1;                   ///< geo regions (RegionOf modulus)
  std::function<void(int)> drain_group_;  ///< reused ParallelFor body
  /// Partitions with pending tasks, in first-task order (deterministic:
  /// the control plane enqueues canonically; and partition order is
  /// unobservable anyway — partitions share no state).
  std::vector<int> dirty_;
  std::vector<char> group_has_work_;  ///< reused per-flush scratch
  std::vector<std::vector<Op>> spare_ops_;  ///< recycled task op buffers
  int64_t pending_tasks_ = 0;
  int64_t flushes_ = 0;
  int64_t tasks_drained_ = 0;
  bool check_invariants_ = false;
};

}  // namespace fastcommit::db

#endif  // FASTCOMMIT_DB_PARTITION_PLANE_H_
