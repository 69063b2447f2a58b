#ifndef FASTCOMMIT_DB_DATABASE_H_
#define FASTCOMMIT_DB_DATABASE_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/protocol_kind.h"
#include "core/runner.h"
#include "db/commit_log.h"
#include "db/coordinator.h"
#include "db/fault_plan.h"
#include "db/instance_pool.h"
#include "db/participant.h"
#include "db/partition_plane.h"
#include "db/traffic.h"
#include "db/transaction.h"
#include "sim/rng.h"
#include "sim/sharded_simulator.h"

namespace fastcommit::db {

/// Bounded-memory latency accounting: exact streaming count/sum/min/max
/// plus a fixed-size reservoir sample (algorithm R, dedicated deterministic
/// RNG stream) for percentile estimates. O(1) in the number of recorded
/// latencies, so a million-transaction run does not grow the stats.
class LatencyStats {
 public:
  /// Reservoir size. Percentiles are exact up to this many records and a
  /// uniform sample beyond it.
  static constexpr int64_t kReservoirCapacity = 4096;

  void Record(sim::Time latency);

  int64_t count() const { return count_; }
  /// Exact mean over every recorded latency (not just the sample).
  double Mean() const;
  sim::Time Min() const { return count_ == 0 ? 0 : min_; }
  sim::Time Max() const { return count_ == 0 ? 0 : max_; }
  /// Percentile estimate over the reservoir sample; p in [0, 100]. The
  /// sorted view is computed lazily and cached until the next Record that
  /// changes the sample, so sweeping many percentiles (the bench tables
  /// query several per protocol) sorts the 4096-entry reservoir once, not
  /// once per call.
  sim::Time Percentile(double p) const;

  const std::vector<sim::Time>& sample() const { return sample_; }

  bool operator==(const LatencyStats& other) const {
    return count_ == other.count_ && sum_ == other.sum_ &&
           min_ == other.min_ && max_ == other.max_ &&
           sample_ == other.sample_;
  }
  bool operator!=(const LatencyStats& other) const {
    return !(*this == other);
  }

 private:
  int64_t count_ = 0;
  int64_t sum_ = 0;
  sim::Time min_ = 0;
  sim::Time max_ = 0;
  std::vector<sim::Time> sample_;
  /// Lazily sorted copy of `sample_`; valid while !sorted_dirty_. Excluded
  /// from equality (it is derived state).
  mutable std::vector<sim::Time> sorted_;
  mutable bool sorted_dirty_ = true;
  /// Dedicated stream for the reservoir's replacement draws, fixed seed so
  /// equal record sequences produce equal samples (the equality operator
  /// compares the sample itself, not this state).
  sim::Rng rng_{0x5eed5eed5eed5eedULL};
};

/// Aggregate results of a database run. Memory is O(1) in transaction
/// count; equality compares every workload-visible field, which both
/// determinism gates rely on (tests/db_pool_test.cc for pooled vs rebuild,
/// tests/db_shard_test.cc for shard counts and threaded drains).
struct DatabaseStats {
  int64_t committed = 0;
  int64_t aborted = 0;           ///< gave up after max_attempts
  int64_t retries = 0;           ///< abort-and-retry rounds
  int64_t single_partition = 0;  ///< committed locally, no protocol
  /// Abort-reason breakdown over every aborted *attempt* (retry rounds and
  /// final aborts alike), bucketed by the concurrency mode that refused it:
  /// no-wait lock conflicts under ConcurrencyMode::k2PL, validation
  /// failures under ConcurrencyMode::kOCC. Invariant after a drain:
  ///   abort_lock_conflicts + abort_validation_failures == retries + aborted
  /// (shed arrivals are admission rejections, counted in `shed` only).
  int64_t abort_lock_conflicts = 0;
  int64_t abort_validation_failures = 0;
  /// Network messages each multi-partition commit had sent by the instant
  /// it decided (protocol + consensus), summed over all commits.
  int64_t commit_messages = 0;
  /// Open-loop arrivals presented by SubmitArrivals streams — admitted or
  /// not. Zero for Submit-only runs. offered == committed + aborted + shed
  /// after a drain of a pure open-loop run.
  int64_t offered = 0;
  /// Arrivals rejected at admission because Options::max_inflight
  /// transactions were already in flight (load shedding at saturation).
  int64_t shed = 0;
  /// Read-only transactions served by the snapshot read plane
  /// (Options::snapshot_reads): committed without locks, votes, protocol
  /// messages, or a pooled instance. A separate outcome bucket — the
  /// post-drain invariant becomes
  ///   committed + aborted + shed + read_only_committed == submissions
  /// — so `committed` keeps meaning "went through concurrency control",
  /// and every stat is bitwise unchanged when the flag is off (this stays
  /// zero and read-only transactions ride the normal path).
  int64_t read_only_committed = 0;
  /// Individual kGet ops served at a snapshot (summed over
  /// read_only_committed transactions).
  int64_t snapshot_reads_served = 0;
  LatencyStats latency;  ///< per multi-partition commit, ticks
  /// Commit latency of multi-partition transactions with at least one
  /// write op — the series the read-mix bench gates, since `latency`
  /// mixes read-only commits in when snapshot reads are off and would
  /// make write tails incomparable across the snapshot on/off axis.
  LatencyStats write_latency;
  sim::Time makespan = 0;  ///< virtual time when the run drained

  double MeanLatency() const { return latency.Mean(); }
  sim::Time PercentileLatency(double p) const {  ///< p in [0, 100]
    return latency.Percentile(p);
  }

  bool operator==(const DatabaseStats& other) const;
  bool operator!=(const DatabaseStats& other) const {
    return !(*this == other);
  }
};

/// A partitioned transactional key-value store committed by any of the
/// library's atomic commit protocols — the distributed-database setting the
/// paper's introduction motivates (Sinfonia/Spanner/Helios-style).
///
/// Execution model per transaction:
///   1. ops are routed to partitions by key hash;
///   2. each touched partition prepares locally: acquires no-wait locks and
///      stages writes, voting yes/no (Helios-style conflict voting);
///   3. a commit instance of the configured protocol — acquired from a pool
///      keyed by (shard, cluster size), see db/instance_pool.h — runs among
///      the touched partitions on the shard chosen by the transaction id;
///   4. on commit, staged writes apply; on abort, the transaction retries
///      with backoff up to max_attempts.
/// Single-partition transactions skip the protocol (one-phase commit).
///
/// ## Sharded execution
///
/// The runtime is a sim::ShardedSimulator: the submit/execute/retry/finish
/// path runs on the control plane, and each commit instance's whole cluster
/// (hosts + network links) runs on the shard derived deterministically from
/// the transaction id. Commit instances never exchange cross-instance
/// messages (the paper's model advances time only on message delays within
/// one instance), so shards interact with the control plane only through
/// canonical-ordered completion effects — DatabaseStats for a given seed is
/// bitwise identical for any shard count and for threaded vs
/// single-threaded drains.
///
/// Partition data-path work (Prepare's locking, commit's write
/// application, lock release, snapshot reads) always goes through the
/// partition plane: each partition has an FNV-1a home shard and its work
/// drains as shard-grouped tasks at deterministic flush barriers
/// (db/partition_plane.h; Options::partition_parallel picks the flush
/// policy). The control plane keeps only transaction admission, batch
/// formation, and retry/backoff.
class Database {
 public:
  /// Retry backoff slope: an aborted attempt k retries after
  /// k * kRetryBackoffUnits * unit ticks plus a jitter in [1, unit]. The
  /// minimum (unit * kRetryBackoffUnits + 1) is also the sharded
  /// simulator's run-ahead window.
  static constexpr int64_t kRetryBackoffUnits = 4;
  /// Snapshot reads that may wait for a flush barrier before the read
  /// itself forces one, and the most finalized read records kept for
  /// reuse. Reads finalize only at barriers, so without the bound a
  /// read-only stretch would hold every read's record, plane task and
  /// values until the next write (or Drain).
  static constexpr size_t kMaxPendingReads = 512;

  /// Final outcome of a submitted transaction: the protocol's real
  /// commit::Decision (after any retries), delivered from FinishTx. Runs on
  /// the drain thread; must not call Submit or Drain.
  using CompletionCallback =
      std::function<void(const Transaction& tx, commit::Decision decision)>;

  /// Observer of finalized snapshot reads (Options::snapshot_reads): fires
  /// at the flush barrier that drained the read, with the values in op
  /// order (absent keys read as empty Values). Runs on the control plane
  /// mid-barrier; must not call Submit, Drain, or any accessor that
  /// flushes.
  using SnapshotReadObserver =
      std::function<void(const Transaction& tx, int64_t snapshot_csn,
                         const std::vector<Value>& values)>;

  struct Options {
    int num_partitions = 4;
    core::ProtocolKind protocol = core::ProtocolKind::kInbac;
    core::ConsensusKind consensus = core::ConsensusKind::kPaxos;
    core::ProtocolOptions protocol_options;  ///< shared with core::RunConfig
    sim::Time unit = 100;        ///< ticks per message delay U
    /// Execution-layer concurrency control (see db/transaction.h). k2PL,
    /// the default, is the original no-wait shared/exclusive locking and
    /// leaves DatabaseStats bitwise unchanged for every existing
    /// configuration. kOCC keeps exclusive write locks but takes no lock
    /// for a read: prepare only validates that no other in-flight
    /// transaction holds a read key exclusively — and the validation
    /// outcome *is* the participant's vote, so every commit protocol,
    /// batching mode, round merge, and lookahead path runs unchanged on
    /// top. Both modes share the partition's LockManager. Read-mostly
    /// workloads keep readers invisible to each other and to writers
    /// (bench_db_throughput --ablation-only quantifies the win); its stats
    /// are bitwise identical across shard/thread placements, like k2PL's.
    ConcurrencyMode concurrency = ConcurrencyMode::k2PL;
    int max_attempts = 5;
    uint64_t seed = 1;
    /// Recycle commit instances through a free-list pool (the default).
    /// false restores the rebuild-per-transaction baseline, in which every
    /// commit allocates a fresh cluster that stays live until shutdown —
    /// kept for the throughput bench's --no-pool comparison and the
    /// determinism regression gate.
    bool pool_instances = true;
    /// Event-queue shards for commit instances. 1 = the single-queue
    /// baseline. Any value yields bitwise-identical DatabaseStats for the
    /// same seed.
    int num_shards = 1;
    /// Threads draining shards in parallel (1 = single-threaded). Also
    /// stats-invariant.
    int num_threads = 1;
    /// Group-commit batching window, in ticks. 0 (the default) disables
    /// batching entirely and takes the one-round-per-transaction path
    /// unchanged — bit-identical stats to a build without this feature
    /// (gated in tests/db_batch_test.cc). When > 0, multi-partition
    /// transactions prepared within the window that touch the *same*
    /// partition set share one commit round: a single CommitInstance whose
    /// per-participant vote is the disjunction of the members' votes. When
    /// the round decides commit, exactly the members whose own vote
    /// conjunction is all-Yes commit; conflicting members abort (and
    /// retry) individually — a partial-round abort, never the whole round.
    /// Larger windows trade per-member latency (early members wait for the
    /// flush) for fewer protocol messages per commit.
    sim::Time batch_window = 0;
    /// A batch that reaches this many members flushes immediately instead
    /// of waiting out the window. <= 1 also disables batching.
    int batch_max = 16;
    /// Adaptive group commit: when true (and batch_window_max > 0), each
    /// partition set's flush window is sized per batch by a control-plane
    /// controller from that set's observed arrival gaps and round conflict
    /// rates (EWMAs over recent rounds), clamped to [0, batch_window_max].
    /// Hot sets earn wide windows (occupancy), cold sets shrink toward 0
    /// (a zero window still groups same-instant arrivals but adds no wait).
    /// `batch_window` then only seeds sets with no history yet; with
    /// batch_adaptive = false it stays the fixed window for every set. The
    /// controllers live on the control plane keyed by the canonical sorted
    /// partition set, so adaptive decisions — like everything else — are
    /// bitwise identical across shard/thread placements.
    bool batch_adaptive = false;
    /// Upper clamp for adaptive windows, in ticks. <= 0 disables adaptive
    /// mode (batch_window rules alone).
    sim::Time batch_window_max = 0;
    /// Cross-set round admission: a multi-partition transaction whose
    /// partition set is a *subset* of an open round's set joins that round
    /// — voting kYes at the partitions it does not touch (see
    /// commit::AlignVotesToSuperset) — instead of opening its own batch.
    /// Raises round occupancy on skewed workloads where narrow hot sets
    /// arrive alongside wider ones.
    bool batch_cross_set = false;
    /// Round merging, the dual of batch_cross_set: when a batch opens over
    /// a partition set that *strictly contains* an already-open batch's
    /// set, the open subset batch is absorbed into the new superset round
    /// — its members' votes re-aligned with kYes padding, its window timer
    /// cancelled, and the superset's flush deadline clamped to
    /// min(its own, the absorbed batches') so no absorbed member waits
    /// past its original flush promise. Cross-set admission only helps
    /// subsets that arrive *after* the wide round opened; merging catches
    /// the other arrival order.
    bool batch_round_merge = false;
    /// Admission control for open-loop streams (SubmitArrivals): with more
    /// than this many transactions in flight, new arrivals are shed —
    /// counted in DatabaseStats::shed and completed immediately with
    /// kAbort — instead of joining an unbounded queue. 0 = admit
    /// everything. Directly-Submitted transactions are never shed.
    int64_t max_inflight = 0;
    /// Conflict-aware barrier lookahead (partition-parallel path only):
    /// the control plane tracks the FNV-1a key hashes of every in-flight
    /// transaction (prepare enqueued, finish not yet enqueued). A new
    /// transaction whose hashes are disjoint from all of them provably
    /// receives kYes at every partition under no-wait locking, so its
    /// prepares are enqueued as *predicted* tasks and its Execute skips
    /// the flush barrier entirely — steady low-conflict arrivals ride
    /// through with no barrier at all, and barriers that do happen drain
    /// fatter task backlogs (better worker-pool amortization). Hash
    /// collisions only ever force a conservative barrier, and the drain
    /// FC_CHECKs every predicted vote, so results stay bitwise identical
    /// to the barrier-per-transaction path (the placement fuzz harness
    /// toggles this knob inside its identity gate).
    bool conflict_lookahead = false;
    /// Lock-free snapshot reads: a submitted transaction whose every op is
    /// a kGet (db::IsReadOnly — both concurrency modes share the
    /// predicate) bypasses the commit protocol entirely. It is assigned
    /// the current *stable CSN* — the commit sequence number the decide
    /// path stamps on every committed transaction, in canonical order —
    /// and its reads drain through the partition FIFO as
    /// PartitionPlane::EnqueueSnapshotRead tasks: every commit with
    /// CSN <= the snapshot was enqueued earlier on the same queues, so the
    /// read observes exactly the stable prefix. No locks, no votes, no
    /// messages, no pooled instance; completion (kCommit) is delivered
    /// immediately at the submit instant and the values materialize at the
    /// next flush barrier (set_snapshot_read_observer). Version chains are
    /// pruned to the reader low-watermark — the minimum CSN an in-flight
    /// snapshot can still demand — so MVCC memory stays bounded. Off (the
    /// default): read-only transactions take the normal locked path and
    /// every pre-existing stat is bitwise unchanged.
    bool snapshot_reads = false;
    /// Partition-parallel execution (the default): partition data-path
    /// work — Prepare's lock acquisition, commit's write application,
    /// lock release — always runs on the partition plane
    /// (db/partition_plane.h): per-partition task queues homed on shards
    /// by FNV-1a over the partition id and drained in parallel by the
    /// simulator's worker pool at deterministic flush barriers, while the
    /// control plane keeps only admission, batch formation, and
    /// retry/backoff. This flag is a flush policy. true defers finishes
    /// and snapshot reads to the next barrier; false is the inline
    /// reference, which flushes after every enqueue, so every op runs the
    /// moment it is enqueued (the serial history). The deferred barriers
    /// replay that history exactly, so DatabaseStats and BatchStats are
    /// bitwise identical either way and across every shard/thread
    /// placement (tests/db_placement_fuzz_test.cc).
    bool partition_parallel = true;
    /// Replicated coordinator commit log (db/commit_log.h): every
    /// multi-partition round is appended as one slot whose votes replicate
    /// to this many virtual replicas (accept phase), and the decision
    /// replicates the same way (decide phase). A phase is durable on
    /// fast-path unanimity or slow-path majority + two extra delays,
    /// whichever fires first; commits are exposed to clients only once the
    /// decision is durable, which is what makes every exposed commit
    /// survive a coordinator crash. Replication overlaps the commit
    /// protocol itself (the accept phase races the instance's own message
    /// delays), so the crash-free latency cost is the decide-phase quorum
    /// wait. 0 (the default) disables the log entirely — no slots, no ack
    /// events, no extra delays — and every pre-existing stat is bitwise
    /// unchanged. Ack delays draw from a stateless per-(slot, phase,
    /// replica) stream, never the database's main RNG.
    int log_replicas = 0;
    /// Geo-distributed deployment: partitions are homed across this many
    /// regions (PartitionPlane::RegionOf — partition mod regions) and every
    /// commit-instance message between processes in different regions costs
    /// a cross-region delay (net::RegionDelayModel) instead of one unit.
    /// 1 (the default) keeps the single-latency-class world and leaves
    /// every pre-existing stat bitwise unchanged.
    int num_regions = 1;
    /// One-way cross-region delay for the *closest* region pair, in units
    /// of `unit` (the ROADMAP's intra-DC ~1U vs cross-region 30-100U).
    int64_t cross_region_units_min = 30;
    /// ... and for the farthest pair; intermediate pairs ladder linearly
    /// (net::GeoTopology::Ladder). Equal min/max = a uniform WAN.
    int64_t cross_region_units_max = 30;
    /// Co-coordinator commit for multi-region rounds (per "Fast Commitment
    /// for Geo-Distributed Transactions", arXiv 2312.01229): each region's
    /// co-coordinator gathers its local partitions' votes over intra-DC
    /// hops, the co-coordinators exchange one aggregate each, and every
    /// region scatters the decision locally — one cross-region round on the
    /// critical path instead of the classic two (vote + decision). Rounds
    /// whose writes all land in one region additionally take a *logless
    /// one-phase* path in the spirit of "To Vote Before Decide" (arXiv
    /// 1701.02408): no commit-log slot is appended — a coordinator crash
    /// presumes abort and resubmits, which is safe because no decision
    /// escapes the region before the crash. The round's decision is the
    /// vote-algebra verdict (commit::DecideFromVotes) over the same
    /// disjunction votes every protocol path uses, so batching, merging,
    /// and recovery replay run unchanged. Ignored when num_regions <= 1.
    bool geo_co_coordinators = false;
    /// Deterministic fault injection (db/fault_plan.h): at most one
    /// coordinator crash at a chosen protocol step plus one timed
    /// participant crash, both driven by sim events at canonical
    /// control-plane points — so a crash schedule, like everything else,
    /// is bitwise identical across shard/thread placements. Default
    /// (empty plan) injects nothing and changes nothing.
    FaultPlan fault_plan;
    /// Debug: sweep lock-manager and staging invariants over every
    /// partition at each partition-plane flush barrier (see
    /// Participant::CheckInvariants). O(held locks) per barrier; meant
    /// for tests (tests/lock_invariant_test.cc), off by default. The
    /// inline reference flushes after every enqueue, so there it sweeps
    /// after every op group.
    bool check_invariants = false;
  };

  /// Counters of the batching path (all zero when batching is disabled —
  /// batch_max <= 1, or batch_window == 0 with adaptive mode off).
  /// Deliberately outside DatabaseStats: the determinism gates compare
  /// DatabaseStats across shard counts, thread counts, and the
  /// batching-off-vs-PR 2 path, and these counters describe the batching
  /// machinery rather than workload-visible outcomes.
  struct BatchStats {
    int64_t rounds = 0;          ///< commit rounds run by the batching path
    int64_t batched_txs = 0;     ///< members that shared a round (size >= 2)
    int64_t window_flushes = 0;  ///< rounds flushed by the window timer
    int64_t size_flushes = 0;    ///< rounds flushed by reaching batch_max
    /// Members over every round (occupancy = members / rounds; counts
    /// size-1 rounds too, unlike batched_txs).
    int64_t members = 0;
    int64_t max_round_size = 0;  ///< largest round flushed so far
    /// Members admitted into an open round of a strict superset partition
    /// set (Options::batch_cross_set).
    int64_t cross_set_joins = 0;
    /// Open subset batches absorbed into a newly opened superset round
    /// (Options::batch_round_merge), and the members carried over.
    int64_t merged_rounds = 0;
    int64_t merge_absorbed = 0;

    /// Mean members per round; 1.0 with batching off (every commit is its
    /// own round).
    double Occupancy() const {
      return rounds == 0 ? 1.0
                         : static_cast<double>(members) /
                               static_cast<double>(rounds);
    }

    bool operator==(const BatchStats& other) const {
      return rounds == other.rounds && batched_txs == other.batched_txs &&
             window_flushes == other.window_flushes &&
             size_flushes == other.size_flushes && members == other.members &&
             max_round_size == other.max_round_size &&
             cross_set_joins == other.cross_set_joins &&
             merged_rounds == other.merged_rounds &&
             merge_absorbed == other.merge_absorbed;
    }
    bool operator!=(const BatchStats& other) const {
      return !(*this == other);
    }
  };

  /// Counters of the fault-injection / recovery plane (all zero with an
  /// empty Options::fault_plan). Outside DatabaseStats for the same reason
  /// as BatchStats: the determinism gates compare DatabaseStats across
  /// configurations where these describe machinery, not workload outcomes.
  /// They are themselves placement-invariant and the recovery tests compare
  /// them bitwise across placements.
  struct RecoveryStats {
    int64_t coordinator_crashes = 0;
    int64_t recoveries = 0;
    int64_t participant_crashes = 0;
    int64_t participant_restarts = 0;
    /// Recovery replay classification of the rounds in flight at the crash:
    /// decision found in the log -> finishes redone; votes logged but no
    /// decision -> re-decided through a fresh instance (FC_CHECKed against
    /// commit::DecideFromVotes); nothing durable -> presumed abort.
    int64_t redo_rounds = 0;
    int64_t redecide_rounds = 0;
    int64_t presumed_aborts = 0;
    /// Presumed-abort members resubmitted at recovery (same attempt number:
    /// a coordinator crash is not the transaction's fault).
    int64_t resubmissions = 0;
    /// Submissions/retries that arrived while the coordinator was down and
    /// were parked until recovery.
    int64_t parked = 0;
    /// Protocol messages of rounds that decided into a dead coordinator
    /// epoch (their instances ran to completion, but nobody was listening).
    int64_t lost_round_messages = 0;
    sim::Time last_crash_time = 0;
    sim::Time last_restart_time = 0;
    /// Total virtual time the coordinator was down (the unavailability
    /// window bench_db_recovery gates).
    sim::Time unavailability_ticks = 0;

    bool operator==(const RecoveryStats& other) const {
      return coordinator_crashes == other.coordinator_crashes &&
             recoveries == other.recoveries &&
             participant_crashes == other.participant_crashes &&
             participant_restarts == other.participant_restarts &&
             redo_rounds == other.redo_rounds &&
             redecide_rounds == other.redecide_rounds &&
             presumed_aborts == other.presumed_aborts &&
             resubmissions == other.resubmissions && parked == other.parked &&
             lost_round_messages == other.lost_round_messages &&
             last_crash_time == other.last_crash_time &&
             last_restart_time == other.last_restart_time &&
             unavailability_ticks == other.unavailability_ticks;
    }
    bool operator!=(const RecoveryStats& other) const {
      return !(*this == other);
    }
  };

  /// Counters of the geo commit plane (all zero when Options::num_regions
  /// <= 1). Outside DatabaseStats for the usual reason: the determinism
  /// gates compare DatabaseStats across machinery configurations, and these
  /// describe the geo machinery. They are themselves placement-invariant
  /// and the geo tests compare them bitwise across placements.
  struct GeoStats {
    /// Commit rounds spanning >= 2 regions / exactly 1 region (of the
    /// multi-partition rounds; single-partition one-phase commits never
    /// form a round and are counted in DatabaseStats::single_partition).
    int64_t multi_region_rounds = 0;
    int64_t single_region_rounds = 0;
    /// Rounds run by the co-coordinator choreography instead of a pooled
    /// protocol instance (Options::geo_co_coordinators).
    int64_t co_coordinator_rounds = 0;
    /// Single-region rounds that took the logless one-phase path (no
    /// commit-log slot; subset of co_coordinator_rounds).
    int64_t one_phase_rounds = 0;
    /// Cross-region one-way delays on the commit critical path, summed
    /// over multi-region rounds: each round's decide latency divided by
    /// the closest-pair cross delay, nearest integer — exact while intra
    /// hops stay well under one cross hop (the 30-100x regime). The bench
    /// gates cross_region_delays / multi_region_rounds <= 1 for
    /// co-coordinators vs 2 for the classic two-round baseline.
    int64_t cross_region_delays = 0;
    /// Commit-instance messages priced at a cross-region delay (protocol +
    /// consensus traffic, baseline mode) plus the choreography's aggregate
    /// exchanges (co-coordinator mode).
    int64_t cross_region_messages = 0;
    /// Decide latency of multi-region rounds, ticks (excludes any
    /// commit-log durability wait, which is region-local).
    LatencyStats multi_region_latency;

    double CrossRegionRoundsPerCommit() const {
      return multi_region_rounds == 0
                 ? 0.0
                 : static_cast<double>(cross_region_delays) /
                       static_cast<double>(multi_region_rounds);
    }

    bool operator==(const GeoStats& other) const {
      return multi_region_rounds == other.multi_region_rounds &&
             single_region_rounds == other.single_region_rounds &&
             co_coordinator_rounds == other.co_coordinator_rounds &&
             one_phase_rounds == other.one_phase_rounds &&
             cross_region_delays == other.cross_region_delays &&
             cross_region_messages == other.cross_region_messages &&
             multi_region_latency == other.multi_region_latency;
    }
    bool operator!=(const GeoStats& other) const { return !(*this == other); }
  };

  explicit Database(const Options& options);
  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;
  ~Database();

  int num_partitions() const { return options_.num_partitions; }
  int PartitionOf(const Key& key) const;
  /// Direct partition access; flushes pending partition-plane work first
  /// so the caller observes a quiescent partition.
  Participant& partition(int index);
  /// Home shard of `partition`'s data-path work under partition-parallel
  /// execution (Options::partition_parallel); stable FNV-1a placement.
  int HomeShardOfPartition(int partition) const {
    return plane_.HomeShardOf(partition);
  }
  /// Shard that will host the commit instance of transaction `id`
  /// (deterministic in the id, independent of submission order).
  int ShardOf(TxId id) const;
  /// Geo region `partition` is homed in (partition mod
  /// Options::num_regions; always 0 with one region).
  int RegionOfPartition(int partition) const {
    return plane_.RegionOf(partition);
  }

  /// Schedules `tx` for execution at virtual time `at_ticks` (>= Now()).
  /// `on_complete`, if set, fires once with the transaction's final
  /// decision (kCommit, or kAbort after max_attempts).
  void Submit(Transaction tx, sim::Time at_ticks,
              CompletionCallback on_complete = nullptr);

  /// Streams an open-loop arrival process (db/traffic.h) into the
  /// database: each arrival is pulled from `engine` only when its
  /// predecessor's arrival event runs, so a multi-million-transaction run
  /// never materializes a workload vector or floods the event queue.
  /// Arrivals past Options::max_inflight in-flight transactions are shed
  /// (DatabaseStats::shed) and complete immediately with kAbort; admitted
  /// ones execute exactly like Submit-ed transactions. `engine` must
  /// outlive the drain. Multiple streams may run concurrently (distinct
  /// engines); transaction ids must not collide with other submissions.
  void SubmitArrivals(TrafficEngine* engine,
                      CompletionCallback on_complete = nullptr);

  /// Runs the simulation until every submitted transaction finished.
  const DatabaseStats& Drain();

  /// Submits `tx` now, drains, and returns its decision — the one-liner
  /// used by the quickstart example. The decision is the protocol's own,
  /// plumbed back through FinishTx (not inferred from counters).
  commit::Decision Execute(Transaction tx);

  /// Shrinks the instance pool to its recent high-water mark (see
  /// CommitInstancePool::Trim). Only valid between drains, when no stale
  /// events can reference pooled instances; returns instances destroyed.
  int64_t TrimPool();

  /// Cross-partition numeric read (outside any transaction).
  int64_t GetInt(const Key& key);
  /// Direct load used to initialize datasets.
  void LoadInt(const Key& key, int64_t value);
  /// Sum of numeric values across every partition.
  int64_t SumInts();

  /// Numeric read at a snapshot: the newest version of `key` with
  /// CSN <= `snapshot_csn` (0 when absent). Flushes pending partition work
  /// first, like GetInt.
  int64_t GetIntAtSnapshot(const Key& key, int64_t snapshot_csn);
  /// The stable CSN: the commit sequence number of the most recently
  /// decided commit, which is what a snapshot read submitted now would be
  /// assigned. 0 before the first commit.
  int64_t stable_csn() const { return last_csn_; }
  /// Sum of live versions across every partition's chains (MVCC memory
  /// footprint, for the GC tests).
  int64_t TotalVersions();
  /// Explicit full GC sweep: prunes every chain to the current reader
  /// low-watermark (min in-flight snapshot CSN, else the stable CSN).
  /// Returns versions dropped. The per-commit incremental pruning usually
  /// makes this a no-op; it exists to bound chains after a reader-heavy
  /// phase ends.
  int64_t TruncateVersions();
  /// Sink for finalized snapshot-read values (tests assert snapshot
  /// stability and read-your-writes through it).
  void set_snapshot_read_observer(SnapshotReadObserver observer) {
    snapshot_observer_ = std::move(observer);
  }
  /// FNV-1a fold over every finalized snapshot read's values, in submit
  /// order — one number that must be bitwise identical across every
  /// shard/thread placement and the inline path, which is how the tests
  /// gate that snapshot *results* (not just stats) are placement
  /// invariant. Read it after a Drain.
  uint64_t read_fingerprint() const { return read_fingerprint_; }

  const DatabaseStats& stats() const { return stats_; }
  /// Commit-instance pool counters (created/reused/live/peak_live/trimmed)
  /// — deliberately outside DatabaseStats, which must be identical between
  /// pooled and baseline runs (and across shard counts) of the same seed.
  const CommitInstancePool::Stats& pool_stats() const {
    return pool_.stats();
  }
  /// Batching-path counters (see BatchStats); all zero when batching is
  /// disabled.
  const BatchStats& batch_stats() const { return batch_stats_; }
  /// Partition-plane counters (flush barriers run, tasks drained). The
  /// inline reference's flush-after-every-enqueue counts as barriers too,
  /// so they differ between the two flush policies. Outside DatabaseStats
  /// like the pool counters, since they describe execution machinery, not
  /// workload outcomes.
  const PartitionPlane& partition_plane() const { return plane_; }
  /// Flush barriers skipped by conflict-aware lookahead
  /// (Options::conflict_lookahead) — one per transaction whose disjointness
  /// proof let its Execute proceed on predicted kYes votes. Execution
  /// machinery, outside DatabaseStats.
  int64_t lookahead_skips() const { return lookahead_skips_; }
  /// Fault-injection / recovery counters (see RecoveryStats); all zero
  /// with an empty fault plan.
  const RecoveryStats& recovery_stats() const { return recovery_stats_; }
  /// Geo-plane counters (see GeoStats); all zero with one region.
  const GeoStats& geo_stats() const { return geo_stats_; }
  /// The replicated coordinator log, or nullptr when Options::log_replicas
  /// is 0. Watermarks and CommitLog::Stats (fast/slow path decisions,
  /// live-slot high-water mark) for the recovery tests and bench.
  const CommitLog* commit_log() const { return log_.get(); }
  sim::Time Now() const { return sim_.Now(); }

 private:
  struct PendingTx {
    Transaction tx;
    int attempt = 0;
    CompletionCallback on_complete;
  };

  /// One snapshot read in flight between its Execute (tasks enqueued,
  /// completion already delivered) and the flush barrier that fills its
  /// value slots. Heap-allocated so the `values` vectors the plane holds
  /// pointers into never move while the list grows, and recycled through
  /// read_pool_ so its vectors keep their capacity from read to read.
  struct SnapshotRead {
    Transaction tx;
    int64_t snapshot_csn = 0;
    /// Touched partitions of this read: `values[0, slots)` are its slots.
    int slots = 0;
    /// Per-touched-partition value slots, filled at the drain. Grown (never
    /// shrunk, so recycled slots keep their capacity) before any pointer
    /// into it is taken; finalization empties the used ones.
    std::vector<std::vector<Value>> values;
    /// op index -> index into `values` of its partition's slot, for
    /// reassembling the results in op order at finalization.
    std::vector<int> op_slots;
    /// Slots filled so far, bumped by the plane's drain workers (atomic:
    /// one read spans partitions, hence threads). Finalization takes the
    /// longest fully-filled *prefix* of pending_reads_, so a crashed
    /// partition deferring its reads keeps later reads pending too and the
    /// submit-order fingerprint is preserved. With no participant crash
    /// every slot fills by the barrier and this equals the old
    /// finalize-everything behavior exactly.
    std::atomic<int> filled{0};
  };

  /// One prepared transaction waiting in a batch. `votes` is aligned with
  /// the *round's* sorted partition set: for a same-set member that equals
  /// its own touched set; a cross-set joiner's votes are padded with kYes
  /// at the partitions it does not touch (commit::AlignVotesToSuperset).
  /// `touched` stays the member's own sorted set — the only partitions its
  /// Finish may reach.
  struct BatchMember {
    PendingTx pending;
    std::vector<int> touched;
    std::vector<commit::Vote> votes;
    sim::Time started = 0;  ///< the member's own Execute instant
  };

  /// An open commit round accumulating transactions over its partition set
  /// (or, with batch_cross_set, subsets of it) until its window timer
  /// fires or it reaches batch_max members. Every other close (size flush,
  /// round merge, coordinator crash) cancels the timer outright, so it
  /// neither runs nor stretches makespan; the timer FC_CHECKs that the
  /// open batch under its key still carries its `id`.
  struct Batch {
    int64_t id = 0;
    std::vector<int> partitions;  ///< sorted touched set (the table key)
    std::vector<BatchMember> members;
    sim::EventId timer = sim::kNoEvent;  ///< cancellable window flush
    /// The timer's flush instant. Round merging clamps a superset round's
    /// deadline to the minimum over everything it absorbed, so merging
    /// never delays a member past the flush its original batch promised.
    sim::Time deadline = 0;
  };

  /// One multi-partition commit round — the unit the unbatched path, the
  /// batching path, and recovery replay now share (StartRound). `id` is
  /// the round-table key (monotonic, so recovery replays rounds in the
  /// order they formed); `slot` the commit-log slot (-1 when unlogged:
  /// log off, or a crash-interrupted Execute whose round never formed).
  /// `round_votes` is the per-position disjunction over the members'
  /// aligned votes — for a single-member round, the member's own votes.
  /// A member's `votes` may be empty on the unbatched path (conjunction
  /// kYes), where the round's decision alone settles its fate, exactly as
  /// before the refactor.
  struct RoundState {
    int64_t id = 0;
    int64_t slot = -1;
    std::vector<int> partitions;
    std::vector<commit::Vote> round_votes;
    std::vector<BatchMember> members;
    bool from_batch = false;  ///< adaptive-controller feedback is batch-only
  };

  /// Adaptive window controller of one partition set (Options::
  /// batch_adaptive). Control plane only: arrival gaps are observed from
  /// Execute events and conflict shares from completion effects, both of
  /// which run in canonical order — so the windows it picks are identical
  /// for every shard/thread placement. EWMAs use integer arithmetic with
  /// alpha = 1/4.
  struct SetController {
    sim::Time last_arrival = -1;  ///< previous arrival instant; -1 = none
    sim::Time ewma_gap = -1;      ///< smoothed arrival gap; -1 = no history
    int64_t ewma_conflict_permille = 0;  ///< smoothed aborted-member share
    int64_t rounds_observed = 0;
  };

  /// One SubmitArrivals stream: its engine, the callback every arrival
  /// shares, and the one pulled arrival whose admission event is pending.
  /// Owned by streams_ until the engine runs dry, so the admission event
  /// captures only (this, stream) and fits std::function's inline buffer.
  struct ArrivalStream {
    TrafficEngine* engine = nullptr;
    CompletionCallback on_complete;
    TrafficEngine::Arrival next;
  };

  void Execute(PendingTx pending);
  /// Pulls the stream's next arrival and schedules its admission event,
  /// which re-arms itself — the self-rescheduling pump behind
  /// SubmitArrivals. Drops the stream once its engine is exhausted.
  void ScheduleNextArrival(ArrivalStream* stream);
  /// Admission control for one open-loop arrival: shed or execute.
  void AdmitArrival(Transaction tx, const CompletionCallback& on_complete);
  /// The one router: sorts `ops` into route_ as (partition, op index)
  /// pairs, program order within a partition, and writes the sorted
  /// distinct partitions to `touched`. `hashes` (optional) receives each
  /// op's FNV-1a key hash, in op order.
  void RouteOps(const std::vector<Op>& ops, std::vector<int>* touched,
                std::vector<uint64_t>* hashes);
  /// Copies the ops of the partition group starting at route_[*cursor]
  /// into a recycled plane buffer and advances `cursor` past the group.
  /// `op_slots` (optional) maps each copied op's index to `slot`.
  std::vector<Op> TakeGroup(const std::vector<Op>& ops, size_t* cursor,
                            std::vector<int>* op_slots, int slot);
  /// Enqueues one transaction's per-partition Prepares on the plane and
  /// collects votes into `touched`/`votes` (sorted by partition). Flushes
  /// before reading the votes unless lookahead predicted them all kYes.
  void PrepareTouched(const PendingTx& pending, std::vector<int>* touched,
                      std::vector<commit::Vote>* votes);
  /// Enqueues `tx`'s Finish at every touched partition, deferred to the
  /// next barrier (running before any later prepare) or, on the inline
  /// reference, flushed at once. A commit carries its CSN (0 for aborts)
  /// and the reader low-watermark computed here, at enqueue time — a stale
  /// watermark at drain time only prunes less, never a version a live
  /// snapshot still needs.
  void FinishPartitions(TxId tx, const std::vector<int>& touched,
                        commit::Decision decision, sim::Time at,
                        int64_t csn = 0);
  /// The snapshot fast path (Options::snapshot_reads, read-only
  /// transactions): assigns the stable CSN, enqueues lock-free read tasks
  /// into the partition FIFOs, delivers kCommit immediately, and parks the
  /// value slots in pending_reads_ for the next barrier, flushing itself
  /// once kMaxPendingReads reads wait. No locks, no votes, no messages, no
  /// pooled instance.
  void ExecuteSnapshotRead(PendingTx pending);
  /// Reassembles every drained snapshot read's values in op order, folds
  /// the read fingerprint, fires the observer, releases the read's claim
  /// on the GC watermark and returns its record to read_pool_. Runs inside
  /// FlushPartitionWork, after the plane flush that filled the slots.
  void FinalizeSnapshotReads();
  /// Minimum CSN a live snapshot reader can still demand: the oldest
  /// in-flight snapshot CSN, else the stable CSN (chains prune to length
  /// one when nobody is reading history).
  int64_t Watermark() const {
    return snapshot_claims_.empty() ? last_csn_
                                    : snapshot_claims_.front().csn;
  }
  /// Drains pending partition-plane tasks (no-op when none are pending)
  /// and finalizes the snapshot reads they filled.
  void FlushPartitionWork();
  /// True when multi-partition transactions take the batching path at all.
  bool BatchingEnabled() const {
    return options_.batch_max > 1 &&
           (options_.batch_window > 0 || AdaptiveEnabled());
  }
  bool AdaptiveEnabled() const {
    return options_.batch_adaptive && options_.batch_window_max > 0;
  }
  /// Flush window for a new batch over `controller`'s set: the EWMA-sized
  /// adaptive window (see Options::batch_adaptive), or the fixed
  /// batch_window when adaptive mode is off.
  sim::Time WindowFor(const SetController& controller) const;
  /// Batching path: parks the prepared transaction in the open batch of its
  /// partition set — or, with batch_cross_set, of the first open strict
  /// superset in canonical order — creating one, with a cancellable
  /// window-flush timer, if absent; flushes immediately at batch_max
  /// members.
  void EnqueueInBatch(PendingTx pending, std::vector<int> touched,
                      std::vector<commit::Vote> votes, sim::Time started);
  /// Round merging (Options::batch_round_merge): folds every open batch
  /// whose partition set is a strict subset of `super`'s into it — votes
  /// re-aligned, timers cancelled, `super`'s deadline clamped down. Called
  /// while `super` is being created, before its timer is armed.
  void AbsorbSubsetBatches(Batch* super);
  /// Runs one commit round for a closed batch: disjunction round votes, a
  /// pooled instance on the lead member's shard, per-member decisions at
  /// the decide instant.
  void FlushBatch(Batch batch);
  /// Runs one commit round: appends it to the commit log (when on), starts
  /// a pooled instance on the lead member's shard, and — through the
  /// epoch-fenced completion effect — logs the decision, gates delivery on
  /// decision durability, and delivers per-member fates. The single path
  /// the unbatched Execute, FlushBatch, and recovery's re-decide
  /// (`resumed`, which reuses the already-logged slot and FC_CHECKs the
  /// replayed decision against commit::DecideFromVotes) converge on. With
  /// the log off and no crash planned this is byte-for-byte the old
  /// unbatched/FlushBatch completion flow.
  void StartRound(RoundState round, bool resumed);
  /// Shared tail of every commit round — the instance path's completion
  /// effect and the geo choreography's completion event both land here, in
  /// canonical control-plane order: epoch fence (a stale epoch's messages
  /// count as lost), message accounting, the resumed-round decision
  /// FC_CHECK, geo metrics, decision logging + durability parking, the
  /// planned after-decide crash, and per-member delivery. `started_at` is
  /// the round's StartRound instant, `finished_at` its decide instant.
  void CompleteRound(RoundState round, commit::Decision decision,
                     int64_t messages, int64_t cross_messages,
                     sim::Time started_at, sim::Time finished_at,
                     int64_t epoch, bool resumed);
  /// Co-coordinator choreography (Options::geo_co_coordinators): instead
  /// of a pooled protocol instance, the round's partitions are grouped by
  /// region; each region's co-coordinator gathers local votes (one intra
  /// hop when it has local company), the co-coordinators exchange
  /// aggregates all-to-all (each then applies commit::DecideFromVotes to
  /// the full vote vector — every region reaches the same verdict, so no
  /// second cross-region round is needed), and scatters the decision (one
  /// intra hop). Latency = gather + max cross delay + scatter; messages =
  /// 2 * sum(region fan-out) + R * (R - 1). Everything is a pure function
  /// of round state, scheduled as one control-plane event at the decide
  /// instant — no shard events, trivially placement-invariant.
  void RunGeoRound(RoundState round, bool resumed, sim::Time now);
  /// Records one decided round's geo counters (multi/single region, round
  /// classification, critical-path cross delays, latency).
  void RecordGeoRound(const RoundState& round, int64_t cross_messages,
                      sim::Time started_at, sim::Time finished_at);
  /// Distinct regions a partition set touches, and the lowest and highest
  /// of them (the farthest pair under the laddered topology).
  struct RegionSpan {
    int span = 0;
    int min_region = 0;
    int max_region = 0;
  };
  /// One scan of `partitions`' regions; {1, 0, 0} with one region
  /// configured.
  RegionSpan RegionSpanOf(const std::vector<int>& partitions);
  bool GeoEnabled() const { return options_.num_regions > 1; }
  /// Co-coordinator rounds replace pooled instances entirely.
  bool GeoChoreographyEnabled() const {
    return GeoEnabled() && options_.geo_co_coordinators;
  }
  /// Closest-pair one-way cross-region delay in ticks.
  sim::Time CrossTicksMin() const {
    return options_.unit * options_.cross_region_units_min;
  }
  /// Delivers a decided round: per-member fate (round decision AND the
  /// member's own vote conjunction), FinishTx at `finished_at`, adaptive
  /// conflict feedback for batch rounds, round-table erase, log
  /// slot-executed + GC.
  void DeliverRoundDecision(RoundState& round, commit::Decision decision,
                            sim::Time finished_at);
  bool LogEnabled() const { return options_.log_replicas > 0; }
  /// Round-table tracking is only paid when a coordinator crash is
  /// planned (the table exists so recovery knows what was in flight).
  bool TrackingRounds() const {
    return options_.fault_plan.HasCoordinatorCrash();
  }
  /// Schedules one ack event per virtual replica for `phase` of `slot`,
  /// at `base` + the log's stateless per-replica delay (every delay >=
  /// unit, which the lowered simulator lookahead relies on — `base` may
  /// be an effect instant).
  void ScheduleReplication(int64_t slot, CommitLog::Phase phase,
                           sim::Time base);
  /// Feeds one replica ack: fast-path unanimity marks the phase durable
  /// immediately; the first majority arms the slow path (durable two
  /// units later unless the fast path wins the race).
  void OnLogAck(int64_t slot, CommitLog::Phase phase, int replica);
  /// Runs `slot`'s parked delivery continuation once both phases are
  /// durable (and the coordinator is up).
  void MaybeCompleteSlot(int64_t slot);
  /// Fires the planned coordinator crash if `point` is its armed protocol
  /// step and this is the configured passage. Returns true when the crash
  /// fired (the caller must drop its round on the floor — that is the
  /// crash).
  bool MaybeCrashCoordinator(CrashPoint point, sim::Time at);
  void CrashCoordinator(sim::Time at);
  /// The restart event: replays the round table against the log (redo /
  /// re-decide / presumed abort), releases presumed-abort locks, resubmits
  /// their members, and re-executes everything parked during the outage.
  void RecoverCoordinator();
  /// Schedules `pending` for a fresh Execute at `at` (recovery resubmit /
  /// unpark; keeps the attempt number — a coordinator crash is not the
  /// transaction's fault).
  void Resubmit(PendingTx pending, sim::Time at);
  /// `finished_at` is the commit instance's decide instant (== `started`
  /// for single-partition transactions); all stats and the retry schedule
  /// derive from it, not from any queue's transient clock.
  void FinishTx(const PendingTx& pending,
                const std::vector<int>& touched_partitions,
                commit::Decision decision, sim::Time started,
                sim::Time finished_at);
  /// Conflict-aware lookahead only pays with deferred flushes (the inline
  /// reference flushes at every enqueue, so it has no barriers to skip),
  /// and is never sound when a participant crash is planned: a down
  /// partition answers prepares with kNo whatever the keys, so no
  /// disjointness proof can predict kYes.
  bool LookaheadEnabled() const {
    return options_.conflict_lookahead && options_.partition_parallel &&
           !options_.fault_plan.HasParticipantCrash();
  }
  /// Drops `tx`'s key hashes from the lookahead tracker. Called when its
  /// Finish is *enqueued* — sound because a finish enqueued at time F
  /// drains before any prepare enqueued at u >= F on the same partition
  /// queue. Idempotent per attempt (a doomed batch member's partitions
  /// finish twice: early release at enqueue, then at the decide instant).
  void ReleaseTrackedKeys(TxId tx);

  Options options_;
  sim::ShardedSimulator sim_;
  sim::Rng rng_;
  /// Owns the partitions and their task queues; see db/partition_plane.h.
  PartitionPlane plane_;
  CommitInstancePool pool_;
  DatabaseStats stats_;
  int64_t inflight_ = 0;
  /// Reused routing scratch (control plane only): (partition, op index)
  /// pairs sorted by partition — replaces a per-transaction
  /// std::map<int, std::vector<Op>> on the hot path.
  std::vector<std::pair<int, int>> route_;
  std::vector<int> read_touched_;  ///< reused snapshot-read partition set
  /// Open batches keyed by sorted partition set (control plane only; an
  /// ordered map so the cross-set admission scan is deterministic).
  std::map<std::vector<int>, Batch> open_batches_;
  /// Adaptive controllers keyed the same way (bounded by the number of
  /// distinct partition sets ever batched).
  std::map<std::vector<int>, SetController> controllers_;
  int64_t next_batch_id_ = 1;
  BatchStats batch_stats_;
  /// Conflict-lookahead tracker (control plane only): reference counts of
  /// the FNV-1a key hashes of every in-flight transaction — prepare
  /// enqueued, finish not yet enqueued — and the per-transaction hash
  /// lists that release them. Over-approximates the set of locked keys
  /// (collisions included), so a disjointness hit is always a proof.
  std::unordered_map<uint64_t, int64_t> busy_key_counts_;
  std::unordered_map<TxId, std::vector<uint64_t>> inflight_key_hashes_;
  std::vector<uint64_t> hash_scratch_;  ///< reused per-Execute key hashes
  int64_t lookahead_skips_ = 0;
  /// The CSN authority: the decide path (FinishTx, canonical control-plane
  /// order) stamps every committed transaction with ++last_csn_, so the
  /// CSN sequence — and everything derived from it — is placement
  /// invariant.
  int64_t last_csn_ = 0;
  /// In-flight snapshot CSN claims as a FIFO of (csn, readers). A read
  /// claims its CSN at Execute and releases it when finalized. Claims
  /// arrive in nondecreasing CSN order (last_csn_ never decreases) and are
  /// released in submit order (prefix finalization), so the front is the
  /// GC watermark floor and every release hits the front (FC_CHECKed).
  struct SnapshotClaim {
    int64_t csn = 0;
    int64_t readers = 0;
  };
  std::deque<SnapshotClaim> snapshot_claims_;
  /// Snapshot reads whose value slots await the next flush barrier, in
  /// submit (canonical) order — which is therefore the finalization and
  /// fingerprint-fold order, whatever barrier each read lands in.
  std::vector<std::unique_ptr<SnapshotRead>> pending_reads_;
  /// Finalized SnapshotRead records, reused by the next reads; at most
  /// kMaxPendingReads are kept.
  std::vector<std::unique_ptr<SnapshotRead>> read_pool_;
  /// Live SubmitArrivals streams (see ArrivalStream).
  std::vector<std::unique_ptr<ArrivalStream>> streams_;
  SnapshotReadObserver snapshot_observer_;
  uint64_t read_fingerprint_ = 14695981039346656037ULL;  ///< FNV offset
  std::vector<Value> values_scratch_;   ///< reused finalize reassembly
  std::vector<size_t> cursor_scratch_;  ///< reused per-slot read cursors
  /// Replicated coordinator log (Options::log_replicas > 0), else null.
  std::unique_ptr<CommitLog> log_;
  RecoveryStats recovery_stats_;
  GeoStats geo_stats_;
  /// The laddered WAN matrix (same value the pool prices instances with);
  /// default single-region value when GeoEnabled() is false.
  net::GeoTopology geo_topology_;
  std::vector<char> region_scratch_;  ///< reused RegionSpanOf seen-set
  /// Coordinator liveness. While down, Execute parks submissions and
  /// retries in parked_ (arrival order) and completion effects of rounds
  /// started in an older epoch release their instance and nothing else.
  bool down_ = false;
  int64_t coordinator_epoch_ = 0;
  sim::Time crash_time_ = 0;
  /// Passages of the armed crash point remaining before the crash fires;
  /// 0 = disarmed (no crash planned, or already fired).
  int64_t crash_countdown_ = 0;
  /// In-flight round table, populated only when a coordinator crash is
  /// planned (TrackingRounds): round id -> the state recovery needs to
  /// replay it. Erased when the round's decision is delivered.
  std::map<int64_t, RoundState> rounds_;
  int64_t next_round_id_ = 1;
  /// Submissions/retries that arrived while down, re-executed at recovery
  /// in arrival order.
  std::vector<PendingTx> parked_;
  /// Decided logged rounds parked until their decision quorum lands,
  /// keyed by slot: MaybeCompleteSlot runs the continuation once both
  /// phases are durable. Volatile coordinator state — a crash clears it
  /// (recovery redoes those slots from the log instead).
  std::map<int64_t, std::function<void()>> durable_waiters_;
};

}  // namespace fastcommit::db

#endif  // FASTCOMMIT_DB_DATABASE_H_
