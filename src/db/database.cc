#include "db/database.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "core/check.h"
#include "db/traffic.h"

namespace fastcommit::db {

void LatencyStats::Record(sim::Time latency) {
  if (count_ == 0) {
    min_ = latency;
    max_ = latency;
  } else {
    min_ = std::min(min_, latency);
    max_ = std::max(max_, latency);
  }
  sum_ += latency;
  ++count_;
  if (static_cast<int64_t>(sample_.size()) < kReservoirCapacity) {
    sample_.push_back(latency);
    sorted_dirty_ = true;
    return;
  }
  // Algorithm R: the i-th record (1-based) replaces a random slot with
  // probability capacity/i, keeping the sample uniform over all records.
  uint64_t slot = rng_.Next() % static_cast<uint64_t>(count_);
  if (slot < static_cast<uint64_t>(kReservoirCapacity)) {
    sample_[static_cast<size_t>(slot)] = latency;
    sorted_dirty_ = true;
  }
}

double LatencyStats::Mean() const {
  if (count_ == 0) return 0.0;
  return static_cast<double>(sum_) / static_cast<double>(count_);
}

sim::Time LatencyStats::Percentile(double p) const {
  if (sample_.empty()) return 0;
  p = std::min(100.0, std::max(0.0, p));
  if (sorted_dirty_) {
    sorted_ = sample_;
    std::sort(sorted_.begin(), sorted_.end());
    sorted_dirty_ = false;
  }
  // Nearest-rank: the smallest sample value with at least p% of the sample
  // at or below it, index ceil(p*n/100) - 1. (The previous truncating
  // rank biased small-sample tail percentiles low: p99 of 4 values
  // returned the 3rd value, not the max.) Multiply before dividing: p and
  // n are exactly representable and so is an integer quotient p*n/100, so
  // exact rank boundaries stay exact — p/100.0 first would put e.g.
  // 14/100*50 an epsilon above 7 and ceil would overshoot the rank.
  double rank = p * static_cast<double>(sorted_.size()) / 100.0;
  size_t index =
      rank <= 1.0 ? 0 : static_cast<size_t>(std::ceil(rank)) - 1;
  return sorted_[std::min(index, sorted_.size() - 1)];
}

bool DatabaseStats::operator==(const DatabaseStats& other) const {
  return committed == other.committed && aborted == other.aborted &&
         retries == other.retries &&
         single_partition == other.single_partition &&
         abort_lock_conflicts == other.abort_lock_conflicts &&
         abort_validation_failures == other.abort_validation_failures &&
         commit_messages == other.commit_messages &&
         offered == other.offered && shed == other.shed &&
         read_only_committed == other.read_only_committed &&
         snapshot_reads_served == other.snapshot_reads_served &&
         latency == other.latency && write_latency == other.write_latency &&
         makespan == other.makespan;
}

namespace {

sim::ShardedSimulator::Options SimOptions(const Database::Options& options) {
  sim::ShardedSimulator::Options sim_options;
  sim_options.num_shards = options.num_shards;
  sim_options.num_threads = options.num_threads;
  // The only control events scheduled from completion effects are retries,
  // and the earliest retry lands backoff >= unit * kRetryBackoffUnits + 1
  // ticks after the decide instant (attempt >= 1, random part >= 1). That
  // bound is the merge rule's safe run-ahead window.
  sim_options.lookahead = options.unit * Database::kRetryBackoffUnits + 1;
  if (options.log_replicas > 0) {
    // With the commit log on, decide effects also schedule replica-ack
    // events, at >= effect time + unit (CommitLog::AckDelay's floor) — the
    // binding feedback bound when it is tighter than the retry backoff's.
    sim_options.lookahead = std::min(sim_options.lookahead, options.unit);
  }
  return sim_options;
}

/// The pool's (and hence every commit instance's) region topology: the
/// default single-region value with one region — so the pre-geo fixed-delay
/// construction path runs bitwise unchanged — else the laddered WAN.
net::GeoTopology GeoTopologyFor(const Database::Options& options) {
  if (options.num_regions <= 1) return net::GeoTopology();
  return net::GeoTopology::Ladder(
      options.num_regions, options.unit * options.cross_region_units_min,
      options.unit * options.cross_region_units_max);
}

}  // namespace

Database::Database(const Options& options)
    : options_(options),
      sim_(SimOptions(options)),
      rng_(options.seed),
      plane_(options.num_partitions, sim_.num_shards(), options.concurrency,
             options.num_regions),
      pool_(options.protocol, options.consensus, options.protocol_options,
            options.unit, options.pool_instances, GeoTopologyFor(options)) {
  // num_partitions >= 1 is checked by the plane's constructor.
  plane_.set_check_invariants(options.check_invariants);
  if (GeoEnabled()) {
    // Delay-range validity (cross >= 1 tick, min <= max) is FC_CHECKed by
    // GeoTopology::Ladder inside GeoTopologyFor above.
    geo_topology_ = GeoTopologyFor(options_);
    region_scratch_.assign(static_cast<size_t>(options_.num_regions), 0);
  }
  if (options_.log_replicas > 0) {
    // The log's ack streams are seeded off the database seed but keyed per
    // (slot, phase, replica), so turning the log on never perturbs the
    // main rng_ stream the retry jitter draws from.
    log_ = std::make_unique<CommitLog>(options_.log_replicas, options_.unit,
                                       options_.seed ^ 0xC0117106ULL);
  }
  const FaultPlan& plan = options_.fault_plan;
  if (plan.HasCoordinatorCrash()) {
    FC_CHECK(plan.crash_at_occurrence >= 1)
        << "crash_at_occurrence must be >= 1, got " << plan.crash_at_occurrence;
    FC_CHECK(plan.crash_point != CrashPoint::kAfterAccept || LogEnabled())
        << "crash-after-accept needs the commit log (Options::log_replicas)";
    // The restart is a control event scheduled from wherever the crash
    // fired — possibly a completion effect — so it must respect the
    // simulator's run-ahead window like every other feedback event.
    FC_CHECK(plan.coordinator_restart_delay >= SimOptions(options_).lookahead)
        << "coordinator_restart_delay " << plan.coordinator_restart_delay
        << " below the simulator lookahead " << SimOptions(options_).lookahead;
    crash_countdown_ = plan.crash_at_occurrence;
  }
  if (plan.HasParticipantCrash()) {
    FC_CHECK(options_.partition_parallel)
        << "participant crashes need deferred flushes (partition_parallel): "
           "the inline reference runs every op the moment it is enqueued";
    FC_CHECK(plan.crash_partition >= 0 &&
             plan.crash_partition < options_.num_partitions)
        << "crash_partition " << plan.crash_partition << " out of range";
    FC_CHECK(plan.participant_restart_delay >= 1)
        << "participant_restart_delay must be >= 1";
    // Time-driven: both transitions are plain control-plane instants, so
    // the crash schedule is placement invariant. EventClass::kCrash orders
    // them before any same-instant arrival or retry.
    sim_.control()->ScheduleAt(
        plan.participant_crash_at, sim::EventClass::kCrash, [this] {
          plane_.CrashPartition(options_.fault_plan.crash_partition);
          ++recovery_stats_.participant_crashes;
        });
    sim_.control()->ScheduleAt(
        plan.participant_crash_at + plan.participant_restart_delay,
        sim::EventClass::kCrash, [this] {
          plane_.RestartPartition(options_.fault_plan.crash_partition);
          ++recovery_stats_.participant_restarts;
          // Apply the deferred finishes (and any reads queued behind them)
          // at the restart instant, not at whichever barrier some later
          // transaction happens to force.
          FlushPartitionWork();
        });
  }
}

Database::~Database() = default;

namespace {

/// FNV-1a over the key bytes. Routing must not use std::hash: its value is
/// implementation-defined, so the same seed routed keys differently across
/// standard libraries and every stat diverged between platforms. FNV-1a is
/// fully specified (offset basis 14695981039346656037, prime
/// 1099511628211), which makes the golden routing vector in
/// tests/db_test.cc hold everywhere.
uint64_t HashKey(const Key& key) {
  uint64_t h = 14695981039346656037ULL;
  for (char c : key) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

}  // namespace

int Database::PartitionOf(const Key& key) const {
  return static_cast<int>(HashKey(key) %
                          static_cast<uint64_t>(options_.num_partitions));
}

Participant& Database::partition(int index) {
  FC_CHECK(index >= 0 && index < options_.num_partitions)
      << "bad partition index " << index;
  FlushPartitionWork();
  return plane_.partition(index);
}

void Database::FlushPartitionWork() {
  plane_.Flush(&sim_);
  // The flush just filled every pending snapshot read's value slots (their
  // tasks rode the same queues); finalize before anything can observe them.
  FinalizeSnapshotReads();
  if (options_.check_invariants && LookaheadEnabled()) {
    // Tracker soundness sweep: after a flush every enqueued finish has
    // run, so any lock still held belongs to a transaction whose Finish is
    // not yet enqueued — exactly the in-flight window the lookahead
    // tracker must over-approximate. A held key missing from the tracker
    // could hand a later conflicting transaction a false disjointness
    // proof, and a predicted-kNo crash far from the cause.
    auto check_tracked = [this](const Key& key, TxId tx) {
      auto it = busy_key_counts_.find(HashKey(key));
      FC_CHECK(it != busy_key_counts_.end() && it->second > 0)
          << "conflict-lookahead tracker lost key '" << key
          << "' still locked by tx " << tx;
    };
    for (int p = 0; p < plane_.num_partitions(); ++p) {
      plane_.partition(p).locks().ForEachHeldKey(check_tracked);
    }
  }
}

int Database::ShardOf(TxId id) const {
  // One stateless draw from the repo's canonical splitmix64 stream seeded
  // by the id: adjacent ids spread uniformly over shards, and the mapping
  // depends only on the id — never on arrival order or shard load — so
  // placement is reproducible run to run.
  return static_cast<int>(sim::Rng(static_cast<uint64_t>(id)).Next() %
                          static_cast<uint64_t>(sim_.num_shards()));
}

void Database::Submit(Transaction tx, sim::Time at_ticks,
                      CompletionCallback on_complete) {
  ++inflight_;
  PendingTx pending{std::move(tx), 1, std::move(on_complete)};
  sim_.control()->ScheduleAt(std::max(at_ticks, sim_.Now()),
                             sim::EventClass::kControl,
                             [this, pending = std::move(pending)]() mutable {
                               Execute(std::move(pending));
                             });
}

void Database::SubmitArrivals(TrafficEngine* engine,
                              CompletionCallback on_complete) {
  FC_CHECK(engine != nullptr) << "null traffic engine";
  // One callback for the whole stream, held by the stream record and
  // pumped one arrival per event, so the queue never holds more than one
  // future arrival of this stream.
  streams_.push_back(std::make_unique<ArrivalStream>());
  ArrivalStream* stream = streams_.back().get();
  stream->engine = engine;
  stream->on_complete = std::move(on_complete);
  ScheduleNextArrival(stream);
}

void Database::ScheduleNextArrival(ArrivalStream* stream) {
  if (!stream->engine->Next(&stream->next)) {
    streams_.erase(std::find_if(
        streams_.begin(), streams_.end(),
        [stream](const std::unique_ptr<ArrivalStream>& s) {
          return s.get() == stream;
        }));
    return;
  }
  // The pending arrival stays in the stream record: two pointers fit
  // std::function's inline buffer, so the event allocates nothing.
  sim_.control()->ScheduleAt(std::max(stream->next.at, sim_.Now()),
                             sim::EventClass::kControl, [this, stream] {
                               AdmitArrival(std::move(stream->next.tx),
                                            stream->on_complete);
                               ScheduleNextArrival(stream);
                             });
}

void Database::AdmitArrival(Transaction tx,
                            const CompletionCallback& on_complete) {
  ++stats_.offered;
  if (options_.max_inflight > 0 && inflight_ >= options_.max_inflight) {
    // Saturated: shed at admission instead of queueing unboundedly — the
    // open-loop analogue of a front door turning requests away. The
    // decision is a real kAbort, delivered immediately.
    ++stats_.shed;
    if (on_complete) on_complete(tx, commit::Decision::kAbort);
    return;
  }
  ++inflight_;
  Execute(PendingTx{std::move(tx), 1, on_complete});
}

void Database::RouteOps(const std::vector<Op>& ops, std::vector<int>* touched,
                        std::vector<uint64_t>* hashes) {
  // Sort (partition, op index) pairs in a reused flat buffer. The index
  // tiebreak keeps each partition's ops in program order, matching the old
  // map-of-vectors grouping without its per-transaction node allocations.
  FC_CHECK(!ops.empty()) << "empty transaction";
  route_.clear();
  if (hashes != nullptr) hashes->clear();
  for (size_t i = 0; i < ops.size(); ++i) {
    uint64_t h = HashKey(ops[i].key);
    route_.emplace_back(
        static_cast<int>(h % static_cast<uint64_t>(options_.num_partitions)),
        static_cast<int>(i));
    if (hashes != nullptr) hashes->push_back(h);
  }
  std::sort(route_.begin(), route_.end());
  touched->clear();
  for (size_t i = 0; i < route_.size(); ++i) {
    if (i == 0 || route_[i].first != route_[i - 1].first) {
      touched->push_back(route_[i].first);
    }
  }
}

std::vector<Op> Database::TakeGroup(const std::vector<Op>& ops, size_t* cursor,
                                    std::vector<int>* op_slots, int slot) {
  std::vector<Op> group = plane_.TakeOpsBuffer();
  const int partition_id = route_[*cursor].first;
  for (; *cursor < route_.size() && route_[*cursor].first == partition_id;
       ++*cursor) {
    size_t op = static_cast<size_t>(route_[*cursor].second);
    if (op_slots != nullptr) (*op_slots)[op] = slot;
    group.push_back(ops[op]);
  }
  return group;
}

void Database::PrepareTouched(const PendingTx& pending,
                              std::vector<int>* touched,
                              std::vector<commit::Vote>* votes) {
  const std::vector<Op>& ops = pending.tx.ops;
  const bool lookahead = LookaheadEnabled();
  RouteOps(ops, touched, lookahead ? &hash_scratch_ : nullptr);
  // Vote slots are written through pointers at the flush, so the vector
  // must reach its final size before any is taken.
  votes->assign(touched->size(), commit::Vote::kNo);

  // Conflict-aware lookahead: if every key hash is disjoint from every
  // in-flight transaction's, no-wait locking cannot deny this transaction
  // a single lock (self-conflicts always succeed: exclusive subsumes
  // shared, and a sole shared owner may upgrade), so each partition's vote
  // is provably kYes and the flush barrier below can be skipped — the
  // prepares drain at a later, fatter barrier. The check runs before this
  // transaction's own hashes join the tracker, so its intra-transaction
  // key reuse never blocks the proof.
  bool predicted = false;
  if (lookahead) {
    predicted = true;
    for (uint64_t h : hash_scratch_) {
      if (busy_key_counts_.find(h) != busy_key_counts_.end()) {
        predicted = false;
        break;
      }
    }
    for (uint64_t h : hash_scratch_) ++busy_key_counts_[h];
    bool inserted =
        inflight_key_hashes_.emplace(pending.tx.id, hash_scratch_).second;
    FC_CHECK(inserted) << "tx " << pending.tx.id
                       << " already tracked: a retry executed before its "
                          "previous attempt's finish was enqueued";
  }

  sim::Time now = sim_.control()->Now();
  size_t cursor = 0;
  for (size_t slot = 0; slot < touched->size(); ++slot) {
    std::vector<Op> group = TakeGroup(ops, &cursor, nullptr, 0);
    if (predicted) {
      plane_.EnqueuePredictedPrepare((*touched)[slot], now, pending.tx.id,
                                     std::move(group));
    } else {
      plane_.EnqueuePrepare((*touched)[slot], now, pending.tx.id,
                            std::move(group), &(*votes)[slot]);
    }
  }
  if (predicted) {
    // No barrier: the proof stands in for the flush. The queued predicted
    // prepares re-derive these votes at the next barrier and FC_CHECK the
    // match.
    votes->assign(touched->size(), commit::Vote::kYes);
    ++lookahead_skips_;
  } else {
    // Barrier: deferred finishes run first (they were enqueued at earlier
    // or equal instants), then this transaction's prepares — the serial
    // history. Votes are valid once this returns.
    FlushPartitionWork();
  }
}

void Database::ReleaseTrackedKeys(TxId tx) {
  auto it = inflight_key_hashes_.find(tx);
  if (it == inflight_key_hashes_.end()) return;
  for (uint64_t h : it->second) {
    auto count = busy_key_counts_.find(h);
    FC_CHECK(count != busy_key_counts_.end() && count->second > 0)
        << "conflict-lookahead tracker underflow for tx " << tx;
    if (--count->second == 0) busy_key_counts_.erase(count);
  }
  inflight_key_hashes_.erase(it);
}

void Database::FinishPartitions(TxId tx, const std::vector<int>& touched,
                                commit::Decision decision, sim::Time at,
                                int64_t csn) {
  // The tracker can forget this transaction as soon as its finishes are
  // *enqueued*: FIFO queue order guarantees they drain before any
  // later-enqueued prepare on the same partitions, so a subsequent
  // disjointness proof that no longer sees these keys is still sound.
  if (LookaheadEnabled()) ReleaseTrackedKeys(tx);
  int64_t watermark =
      decision == commit::Decision::kCommit ? Watermark() : 0;
  // Deferred: applied at the next flush barrier, which always comes before
  // any later prepare or partition-state read can observe the difference.
  for (int partition_id : touched) {
    plane_.EnqueueFinish(partition_id, at, tx, decision, csn, watermark);
  }
  // The inline reference applies them right away instead.
  if (!options_.partition_parallel) FlushPartitionWork();
}

void Database::ExecuteSnapshotRead(PendingTx pending) {
  const std::vector<Op>& ops = pending.tx.ops;
  // The snapshot is the stable CSN at this (canonical-order) instant:
  // every commit with CSN <= it already ran FinishTx, so its finish tasks
  // sit ahead of these read tasks in the same partition FIFOs — the read
  // observes exactly the stable prefix, on any placement.
  const int64_t snapshot = last_csn_;
  std::unique_ptr<SnapshotRead> read;
  if (read_pool_.empty()) {
    read = std::make_unique<SnapshotRead>();
  } else {
    read = std::move(read_pool_.back());
    read_pool_.pop_back();
  }
  read->snapshot_csn = snapshot;
  read->op_slots.resize(ops.size());
  read->filled.store(0, std::memory_order_relaxed);

  RouteOps(ops, &read_touched_, nullptr);
  // Size the slots before any pointer into them is taken (the SnapshotRead
  // itself is heap-pinned, so growth of pending_reads_ cannot move them).
  // The vector only grows, so a recycled record's slots keep their
  // capacity.
  read->slots = static_cast<int>(read_touched_.size());
  if (read->values.size() < read_touched_.size()) {
    read->values.resize(read_touched_.size());
  }

  sim::Time now = sim_.control()->Now();
  size_t cursor = 0;
  for (size_t slot = 0; slot < read_touched_.size(); ++slot) {
    std::vector<Op> group =
        TakeGroup(ops, &cursor, &read->op_slots, static_cast<int>(slot));
    plane_.EnqueueSnapshotRead(read_touched_[slot], now, pending.tx.id,
                               snapshot, std::move(group), &read->values[slot],
                               &read->filled);
  }
  // Claim the snapshot against GC until the read drains: commits deciding
  // in between compute their prune watermark as the oldest claimed CSN.
  if (snapshot_claims_.empty() || snapshot_claims_.back().csn != snapshot) {
    FC_CHECK(snapshot_claims_.empty() ||
             snapshot_claims_.back().csn < snapshot)
        << "snapshot CSN " << snapshot << " claimed after CSN "
        << snapshot_claims_.back().csn;
    snapshot_claims_.push_back(SnapshotClaim{snapshot, 0});
  }
  ++snapshot_claims_.back().readers;

  // Completion is immediate — the read plane adds no virtual latency and
  // never aborts, so the open-loop admission window frees right away. The
  // values themselves materialize at the next barrier (the observer).
  ++stats_.read_only_committed;
  stats_.snapshot_reads_served += static_cast<int64_t>(ops.size());
  if (pending.on_complete) {
    pending.on_complete(pending.tx, commit::Decision::kCommit);
  }
  --inflight_;

  read->tx = std::move(pending.tx);
  pending_reads_.push_back(std::move(read));
  // The inline reference reads (and finalizes) right away; the deferred
  // plane does once kMaxPendingReads reads wait, so read-only traffic
  // holds a bounded backlog. The extra barrier changes no result: it runs
  // queued tasks in the same FIFO order the next barrier would. While a
  // crashed partition defers its reads, the finalized prefix cannot
  // advance past them and every read flushes here until it recovers.
  if (!options_.partition_parallel ||
      pending_reads_.size() >= kMaxPendingReads) {
    FlushPartitionWork();
  }
}

void Database::FinalizeSnapshotReads() {
  // Finalize the longest fully-filled *prefix*, in submit order: a down
  // partition defers its read tasks, which must keep every later read
  // pending too so the fingerprint fold order stays the submit order
  // whatever barrier each read completes at. With no participant crash
  // every slot is filled by this barrier and the prefix is the whole list.
  size_t done_count = 0;
  while (done_count < pending_reads_.size() &&
         pending_reads_[done_count]->filled.load(std::memory_order_acquire) ==
             pending_reads_[done_count]->slots) {
    ++done_count;
  }
  if (done_count == 0) return;
  // Folded in place (the observer may not re-enter the database); each
  // record then returns to the pool with its vectors' capacity intact.
  for (size_t r = 0; r < done_count; ++r) {
    SnapshotRead& read = *pending_reads_[r];
    // Reassemble in op order: each partition slot holds its kGets' values
    // in program order, so one cursor per slot zips them back.
    cursor_scratch_.assign(static_cast<size_t>(read.slots), 0);
    values_scratch_.clear();
    for (size_t i = 0; i < read.tx.ops.size(); ++i) {
      size_t slot = static_cast<size_t>(read.op_slots[i]);
      size_t& cursor = cursor_scratch_[slot];
      FC_CHECK(cursor < read.values[slot].size())
          << "snapshot read of tx " << read.tx.id
          << " returned fewer values than read ops at slot " << slot;
      values_scratch_.push_back(std::move(read.values[slot][cursor]));
      ++cursor;
    }
    // Fold the values into the placement-invariance fingerprint (FNV-1a,
    // length-prefixed so value boundaries are unambiguous).
    for (const Value& value : values_scratch_) {
      uint64_t len = static_cast<uint64_t>(value.size());
      for (int b = 0; b < 8; ++b) {
        read_fingerprint_ ^= (len >> (8 * b)) & 0xffu;
        read_fingerprint_ *= 1099511628211ULL;
      }
      for (char c : value) {
        read_fingerprint_ ^= static_cast<unsigned char>(c);
        read_fingerprint_ *= 1099511628211ULL;
      }
    }
    if (snapshot_observer_) {
      snapshot_observer_(read.tx, read.snapshot_csn, values_scratch_);
    }
    FC_CHECK(!snapshot_claims_.empty() &&
             snapshot_claims_.front().csn == read.snapshot_csn)
        << "snapshot CSN " << read.snapshot_csn
        << " finalized out of claim order";
    if (--snapshot_claims_.front().readers == 0) snapshot_claims_.pop_front();
    for (int slot = 0; slot < read.slots; ++slot) {
      read.values[static_cast<size_t>(slot)].clear();
    }
    // The ops are the arrival's own and are never reused: free them now
    // rather than pin them in the pool.
    read.tx = Transaction{};
    read_pool_.push_back(std::move(pending_reads_[r]));
  }
  pending_reads_.erase(
      pending_reads_.begin(),
      pending_reads_.begin() + static_cast<std::ptrdiff_t>(done_count));
  if (read_pool_.size() > kMaxPendingReads) {
    read_pool_.resize(kMaxPendingReads);
  }
}

void Database::Execute(PendingTx pending) {
  if (down_) {
    // Coordinator outage: everything that reaches Execute — fresh
    // submissions, retries, even read-only traffic — parks in arrival
    // order and re-executes at the restart instant.
    ++recovery_stats_.parked;
    parked_.push_back(std::move(pending));
    return;
  }
  // The read-only plane: checked before any routing, locking, or
  // lookahead tracking, so a snapshot read leaves zero concurrency-control
  // footprint in either mode.
  if (options_.snapshot_reads && IsReadOnly(pending.tx)) {
    ExecuteSnapshotRead(std::move(pending));
    return;
  }
  std::vector<int> touched;
  std::vector<commit::Vote> votes;
  PrepareTouched(pending, &touched, &votes);

  sim::Time started = sim_.control()->Now();

  if (touched.size() == 1) {
    // One-phase commit: the only participant's vote is the decision.
    commit::Decision d = votes[0] == commit::Vote::kYes
                             ? commit::Decision::kCommit
                             : commit::Decision::kAbort;
    if (d == commit::Decision::kCommit) ++stats_.single_partition;
    FinishTx(pending, touched, d, started, started);
    return;
  }

  if (MaybeCrashCoordinator(CrashPoint::kAfterPrepare, started)) {
    // The crash caught this transaction between its prepares and its
    // round: it is in-flight coordinator state like any open round, so it
    // joins the round table as an unlogged single-member round — recovery
    // presumes abort, releases its prepared locks, and resubmits it.
    RoundState round;
    round.id = next_round_id_++;
    round.members.push_back(BatchMember{std::move(pending), std::move(touched),
                                        std::move(votes), started});
    round.partitions = round.members.front().touched;
    rounds_.emplace(round.id, std::move(round));
    return;
  }

  if (BatchingEnabled()) {
    EnqueueInBatch(std::move(pending), std::move(touched), std::move(votes),
                   started);
    return;
  }

  RoundState round;
  round.partitions = std::move(touched);
  round.round_votes = std::move(votes);
  // The member's own votes stay empty: ConjoinVotes of an empty vector is
  // kYes, so the round's decision alone settles its fate — exactly the
  // pre-refactor unbatched behavior. Its touched set is the round's.
  round.members.push_back(
      BatchMember{std::move(pending), round.partitions, {}, started});
  StartRound(std::move(round), /*resumed=*/false);
}

sim::Time Database::WindowFor(const SetController& controller) const {
  if (!AdaptiveEnabled()) return options_.batch_window;
  sim::Time max_window = options_.batch_window_max;
  if (controller.ewma_gap < 0) {
    // No arrival history yet: fall back to the fixed window as the prior.
    return std::min(std::max<sim::Time>(options_.batch_window, 0), max_window);
  }
  // A set whose smoothed arrival gap exceeds the widest allowed window is
  // cold: no second member would arrive before any feasible flush, so it
  // pays no wait at all (a zero window still groups same-instant arrivals
  // — the flush timer runs after every Execute already queued at the
  // opening instant).
  if (controller.ewma_gap >= max_window) return 0;
  // Hot set: size the window to gather up to batch_max members at the
  // observed rate, then shrink it by the smoothed conflict share — a wide
  // window makes every member hold its prepared locks longer, which is
  // exactly what amplifies contention when the set is already conflicted.
  sim::Time window =
      controller.ewma_gap * static_cast<sim::Time>(options_.batch_max - 1);
  window = window * (1000 - controller.ewma_conflict_permille) / 1000;
  return std::min(std::max<sim::Time>(window, 0), max_window);
}

void Database::EnqueueInBatch(PendingTx pending, std::vector<int> touched,
                              std::vector<commit::Vote> votes,
                              sim::Time started) {
  // A member whose own vote conjunction is already No is doomed whatever
  // the round decides, and the control plane learned that while collecting
  // votes — so its prepared state (exclusive locks at the partitions that
  // voted Yes) is dropped now instead of being held for up to a full
  // window, where it would amplify contention for every later arrival.
  // The member still rides the round: its votes join the disjunction and
  // its abort is delivered at the decide instant like every other
  // member's, matching the unbatched path where a doomed transaction also
  // learns its fate only when the protocol decides. (Finish is idempotent,
  // so the second Finish at the decide instant is a no-op.)
  if (commit::ConjoinVotes(votes) == commit::Vote::kNo) {
    FinishPartitions(pending.tx.id, touched, commit::Decision::kAbort,
                     started);
  }

  sim::Time now = sim_.control()->Now();
  SetController* controller = nullptr;
  if (AdaptiveEnabled()) {
    // Observe the arrival for this member's own set (even when it then
    // joins a superset round): the gap EWMA describes how often this exact
    // set shows up, which is what sizes its future windows.
    controller = &controllers_[touched];
    if (controller->last_arrival >= 0) {
      sim::Time gap = now - controller->last_arrival;
      controller->ewma_gap = controller->ewma_gap < 0
                                 ? gap
                                 : (3 * controller->ewma_gap + gap) / 4;
    }
    controller->last_arrival = now;
  }

  // Exact-set open batch wins; otherwise, with cross-set admission on, the
  // first open round in canonical (ordered-map) order whose partition set
  // strictly contains this member's joins it — the member's votes are
  // re-aligned to the round's width, kYes at untouched partitions.
  auto it = open_batches_.find(touched);
  if (it == open_batches_.end() && options_.batch_cross_set) {
    for (auto cand = open_batches_.begin(); cand != open_batches_.end();
         ++cand) {
      if (cand->first.size() <= touched.size()) continue;
      if (!std::includes(cand->first.begin(), cand->first.end(),
                         touched.begin(), touched.end())) {
        continue;
      }
      votes = commit::AlignVotesToSuperset(touched, votes, cand->first);
      ++batch_stats_.cross_set_joins;
      it = cand;
      break;
    }
  }

  if (it == open_batches_.end()) {
    it = open_batches_.try_emplace(touched).first;
    Batch& batch = it->second;
    batch.id = next_batch_id_++;
    batch.partitions = touched;
    batch.deadline =
        now + (controller ? WindowFor(*controller) : options_.batch_window);
    // Round merging: any open batch over a strict subset of this set folds
    // into this wider round before its timer is armed, and may pull the
    // deadline earlier than the window above.
    if (options_.batch_round_merge) AbsorbSubsetBatches(&batch);
    // Window flush: a cancellable control event at the deadline. Every
    // other way a batch closes (size flush, round merge, coordinator crash)
    // cancels it, so the timer only ever fires on its own open batch.
    batch.timer = sim_.control()->ScheduleCancellableAt(
        batch.deadline, sim::EventClass::kControl,
        [this, key = touched, id = batch.id]() {
          auto it = open_batches_.find(key);
          FC_CHECK(it != open_batches_.end() && it->second.id == id)
              << "window flush timer of batch " << id
              << " fired after its batch closed: a lost cancel";
          ++batch_stats_.window_flushes;
          Batch closed = std::move(it->second);
          open_batches_.erase(it);
          FlushBatch(std::move(closed));
        });
  }
  Batch& batch = it->second;
  batch.members.push_back(BatchMember{std::move(pending), std::move(touched),
                                      std::move(votes), started});
  if (static_cast<int>(batch.members.size()) >= options_.batch_max) {
    ++batch_stats_.size_flushes;
    sim_.control()->Cancel(batch.timer);
    Batch closed = std::move(batch);
    open_batches_.erase(it);
    FlushBatch(std::move(closed));
  }
}

void Database::AbsorbSubsetBatches(Batch* super) {
  for (auto cand = open_batches_.begin(); cand != open_batches_.end();) {
    const std::vector<int>& set = cand->first;
    // Strict subsets only; the equal set cannot appear (the caller found
    // no open batch for it — that is why `super` is being created).
    if (set.size() >= super->partitions.size() ||
        !std::includes(super->partitions.begin(), super->partitions.end(),
                       set.begin(), set.end())) {
      ++cand;
      continue;
    }
    Batch& sub = cand->second;
    sim_.control()->Cancel(sub.timer);
    ++batch_stats_.merged_rounds;
    batch_stats_.merge_absorbed += static_cast<int64_t>(sub.members.size());
    // Never delay an absorbed member past its original flush promise: the
    // merged round flushes at the earliest deadline of everything in it.
    super->deadline = std::min(super->deadline, sub.deadline);
    for (BatchMember& member : sub.members) {
      // The member's votes are aligned with its old round's (sub)set —
      // its own set, or already padded once by a cross-set admission.
      // Pad with kYes up to the superset width; its `touched` set (and so
      // its conjunction and its Finish fan-out) is unchanged.
      member.votes =
          commit::AlignVotesToSuperset(set, member.votes, super->partitions);
      super->members.push_back(std::move(member));
    }
    cand = open_batches_.erase(cand);
  }
}

void Database::FlushBatch(Batch batch) {
  FC_CHECK(!batch.members.empty()) << "flush of an empty batch";
  ++batch_stats_.rounds;
  batch_stats_.members += static_cast<int64_t>(batch.members.size());
  batch_stats_.max_round_size =
      std::max(batch_stats_.max_round_size,
               static_cast<int64_t>(batch.members.size()));
  if (batch.members.size() > 1) {
    batch_stats_.batched_txs += static_cast<int64_t>(batch.members.size());
  }
  // The round's vote at participant j is the disjunction of the members'
  // votes there: the participant can deliver the round's outcome as long
  // as it prepared at least one member. (A No at every participant only
  // happens when every member conflicted there, in which case no member
  // has an all-Yes conjunction and a round-level abort loses nothing.)
  std::vector<commit::Vote> round_votes(batch.partitions.size(),
                                        commit::Vote::kNo);
  for (const BatchMember& member : batch.members) {
    commit::DisjoinVotesInto(&round_votes, member.votes);
  }

  RoundState round;
  round.partitions = std::move(batch.partitions);
  round.round_votes = std::move(round_votes);
  round.members = std::move(batch.members);
  round.from_batch = true;
  StartRound(std::move(round), /*resumed=*/false);
}

void Database::StartRound(RoundState round, bool resumed) {
  sim::Time now = sim_.control()->Now();
  // Logless one-phase fast path (geo co-coordinator mode): a round whose
  // partitions all live in one region never exposes a decision outside
  // that region before it completes, so it skips the commit log entirely
  // — no slot, no replication, no durability wait. Its slot stays -1: a
  // coordinator crash mid-round presumes abort and resubmits, which is
  // exactly the unlogged-round recovery contract.
  const bool logless =
      GeoChoreographyEnabled() && RegionSpanOf(round.partitions).span == 1;
  if (!resumed) {
    round.id = next_round_id_++;
    if (LogEnabled() && !logless) {
      // Append the round's votes to the log and start the accept phase
      // replicating immediately: it overlaps the commit protocol's own
      // message delays, so the crash-free cost is only the decide-phase
      // quorum wait at the end.
      round.slot = log_->Append(static_cast<int>(round.partitions.size()),
                                static_cast<int64_t>(round.members.size()),
                                now);
      ScheduleReplication(round.slot, CommitLog::Phase::kAccept, now);
    }
  }
  if (TrackingRounds()) rounds_[round.id] = round;
  if (!resumed && MaybeCrashCoordinator(CrashPoint::kAfterAccept, now)) {
    // The votes are (replicating to) the log but the instance never
    // starts: recovery finds the slot undecided and re-decides it.
    return;
  }

  if (GeoChoreographyEnabled()) {
    RunGeoRound(std::move(round), resumed, now);
    return;
  }

  // The lead (first-enqueued) member's id places the round and keys its
  // completion effect — ids join exactly one round per attempt, so the
  // (time, key) pair stays unique.
  TxId lead = round.members.front().pending.tx.id;
  int shard = ShardOf(lead);
  // The epoch fences the completion effect: a round that decides into a
  // later epoch was already settled by recovery, so its effect only
  // returns the instance to the pool.
  int64_t epoch = coordinator_epoch_;
  std::vector<commit::Vote> votes = round.round_votes;
  // Geo baseline (spread coordination, no co-coordinators): home each
  // cluster process in its partition's region, so the instance's own
  // protocol messages pay the WAN delays.
  std::vector<int> regions;
  if (GeoEnabled()) {
    regions.reserve(round.partitions.size());
    for (int p : round.partitions) regions.push_back(plane_.RegionOf(p));
  }
  CommitInstance* instance = pool_.Acquire(
      shard, sim_.shard(shard), std::move(votes),
      [this, shard, lead, epoch, resumed, started = now,
       round = std::move(round)](CommitInstance* done_instance,
                                 commit::Decision decision) mutable {
        // Runs on the shard (possibly a worker thread) at the decide
        // instant: snapshot the instance-local results here — after Release
        // the per-epoch counters belong to the next incarnation — and defer
        // everything that touches shared state to a canonical-order
        // completion effect on the control plane.
        int64_t messages = done_instance->messages();
        int64_t cross_messages = done_instance->cross_messages();
        sim::Time finished = done_instance->finish_time();
        sim_.PostEffect(
            shard, finished, static_cast<uint64_t>(lead),
            [this, done_instance, messages, cross_messages, decision, epoch,
             resumed, started, round = std::move(round), finished]() mutable {
              pool_.Release(done_instance);
              CompleteRound(std::move(round), decision, messages,
                            cross_messages, started, finished, epoch, resumed);
            });
      },
      std::move(regions));
  instance->Start();
}

void Database::CompleteRound(RoundState round, commit::Decision decision,
                             int64_t messages, int64_t cross_messages,
                             sim::Time started_at, sim::Time finished_at,
                             int64_t epoch, bool resumed) {
  if (epoch != coordinator_epoch_) {
    // Decided into a dead epoch: the round's fate is recovery's to settle
    // (it is still in the round table).
    recovery_stats_.lost_round_messages += messages;
    return;
  }
  // One protocol round's messages, however many members it carried — the
  // amortization batching exists for.
  stats_.commit_messages += messages;
  if (resumed) {
    // Replay determinism: a re-decided round must land on the unique
    // failure-free decision its logged votes imply.
    FC_CHECK(decision == commit::DecideFromVotes(round.round_votes))
        << "recovery replay divergence: round " << round.id << " re-decided "
        << commit::ToString(decision) << " against its logged votes";
  }
  if (GeoEnabled()) {
    RecordGeoRound(round, cross_messages, started_at, finished_at);
  }
  // round.slot >= 0 excludes the geo logless one-phase rounds, which never
  // appended a slot; every other logged round has one.
  if (LogEnabled() && round.slot >= 0) {
    log_->RecordDecision(round.slot, decision, finished_at);
    ScheduleReplication(round.slot, CommitLog::Phase::kDecide, finished_at);
  }
  if (MaybeCrashCoordinator(CrashPoint::kAfterDecide, finished_at)) {
    // Decision logged (or lost with the unlogged round) but never
    // delivered: recovery redoes or presumes abort.
    return;
  }
  if (LogEnabled() && round.slot >= 0) {
    // Expose the decision only once it is durable: park the delivery on
    // the slot's quorum. Durability of the accept phase is required too —
    // a decision durable before its votes would let recovery re-decide
    // from nothing.
    int64_t slot = round.slot;
    durable_waiters_[slot] = [this, round = std::move(round),
                              decision]() mutable {
      DeliverRoundDecision(round, decision, sim_.control()->Now());
    };
    MaybeCompleteSlot(slot);
    return;
  }
  DeliverRoundDecision(round, decision, finished_at);
}

Database::RegionSpan Database::RegionSpanOf(
    const std::vector<int>& partitions) {
  if (!GeoEnabled()) return RegionSpan{1, 0, 0};
  std::fill(region_scratch_.begin(), region_scratch_.end(), 0);
  RegionSpan result{0, options_.num_regions, 0};
  for (int p : partitions) {
    int region = plane_.RegionOf(p);
    char& seen = region_scratch_[static_cast<size_t>(region)];
    if (seen == 0) {
      seen = 1;
      ++result.span;
      result.min_region = std::min(result.min_region, region);
      result.max_region = std::max(result.max_region, region);
    }
  }
  return result;
}

void Database::RunGeoRound(RoundState round, bool resumed, sim::Time now) {
  int n = static_cast<int>(round.partitions.size());
  const auto [span, min_region, max_region] = RegionSpanOf(round.partitions);
  // Gather and scatter are intra-DC hops a round only pays when some
  // co-coordinator has local company (n > span: a region holds >= 2
  // touched partitions); each costs one unit because every region gathers
  // in parallel. The all-to-all aggregate exchange is the single
  // cross-region hop on the critical path, bounded by the farthest
  // touched pair — which under the laddered topology is (min, max).
  sim::Time hop = n > span ? options_.unit : 0;
  sim::Time exchange =
      span > 1 ? geo_topology_.CrossDelayBetween(min_region, max_region) : 0;
  sim::Time finished = now + hop + exchange + hop;
  // Vote gathers and decision scatters between each co-coordinator and
  // its local partitions, plus the co-coordinators' aggregate exchange.
  int64_t cross_messages =
      span > 1 ? static_cast<int64_t>(span) * (span - 1) : 0;
  int64_t messages = 2 * static_cast<int64_t>(n - span) + cross_messages;
  // Every co-coordinator applies the vote algebra to the same full vote
  // vector, so each region reaches the decision locally — no second
  // cross-region round. This is the same verdict a protocol instance
  // reaches in a failure-free run (the resumed-round FC_CHECK in
  // CompleteRound pins exactly that equivalence).
  commit::Decision decision = commit::DecideFromVotes(round.round_votes);
  int64_t epoch = coordinator_epoch_;
  sim_.control()->ScheduleAt(
      finished, sim::EventClass::kDelivery,
      [this, round = std::move(round), decision, messages, cross_messages,
       now, finished, epoch, resumed]() mutable {
        CompleteRound(std::move(round), decision, messages, cross_messages,
                      now, finished, epoch, resumed);
      });
}

void Database::RecordGeoRound(const RoundState& round, int64_t cross_messages,
                              sim::Time started_at, sim::Time finished_at) {
  int span = RegionSpanOf(round.partitions).span;
  geo_stats_.cross_region_messages += cross_messages;
  if (GeoChoreographyEnabled()) {
    ++geo_stats_.co_coordinator_rounds;
    // A single-region choreography round is by construction the logless
    // one-phase path (StartRound never appended a slot for it).
    if (span == 1) ++geo_stats_.one_phase_rounds;
  }
  if (span <= 1) {
    ++geo_stats_.single_region_rounds;
    return;
  }
  ++geo_stats_.multi_region_rounds;
  sim::Time latency = finished_at - started_at;
  geo_stats_.multi_region_latency.Record(latency);
  // Critical-path cross-region hops, nearest integer in closest-pair
  // cross delays: exact while intra-DC hops stay well under half a cross
  // delay (the 30-100x WAN regime this plane models).
  sim::Time cross = CrossTicksMin();
  geo_stats_.cross_region_delays += (latency + cross / 2) / cross;
}

void Database::DeliverRoundDecision(RoundState& round,
                                    commit::Decision decision,
                                    sim::Time finished_at) {
  int64_t aborted_members = 0;
  for (BatchMember& member : round.members) {
    // A cross-set joiner's padded kYes votes leave its own conjunction
    // unchanged, so this test reads the member's real fate for every
    // admission path (and an unbatched member's empty votes conjoin to
    // kYes: the round's decision is its own).
    commit::Decision member_decision =
        (decision == commit::Decision::kCommit &&
         commit::ConjoinVotes(member.votes) == commit::Vote::kYes)
            ? commit::Decision::kCommit
            : commit::Decision::kAbort;
    if (member_decision != commit::Decision::kCommit) ++aborted_members;
    FinishTx(member.pending, member.touched, member_decision, member.started,
             finished_at);
  }
  if (round.from_batch && AdaptiveEnabled()) {
    // Feed the round's aborted-member share back into the set's controller
    // (this runs in canonical order on the control plane, so the EWMA
    // trajectory is placement invariant).
    SetController& controller = controllers_[round.partitions];
    int64_t sample = 1000 * aborted_members /
                     static_cast<int64_t>(round.members.size());
    controller.ewma_conflict_permille =
        controller.rounds_observed == 0
            ? sample
            : (3 * controller.ewma_conflict_permille + sample) / 4;
    ++controller.rounds_observed;
  }
  if (LogEnabled() && round.slot >= 0) {
    log_->MarkExecuted(round.slot);
    log_->FreeSlots();
  }
  if (TrackingRounds()) rounds_.erase(round.id);
}

void Database::ScheduleReplication(int64_t slot, CommitLog::Phase phase,
                                   sim::Time base) {
  for (int r = 0; r < log_->replicas(); ++r) {
    sim_.control()->ScheduleAt(
        base + log_->AckDelay(slot, phase, r), sim::EventClass::kDelivery,
        [this, slot, phase, r] { OnLogAck(slot, phase, r); });
  }
}

void Database::OnLogAck(int64_t slot, CommitLog::Phase phase, int replica) {
  switch (log_->OnReplicaAck(slot, phase, replica)) {
    case CommitLog::AckOutcome::kFastQuorum:
      if (log_->MarkDurable(slot, phase, /*fast_path=*/true)) {
        MaybeCompleteSlot(slot);
      }
      break;
    case CommitLog::AckOutcome::kSlowQuorum:
      // Majority reached: the slow path commits the chosen record at the
      // majority in one more round trip — unless unanimity lands first
      // and the fast path wins the race (MarkDurable settles it).
      sim_.control()->ScheduleAfter(
          2 * options_.unit, sim::EventClass::kDelivery, [this, slot, phase] {
            if (log_->MarkDurable(slot, phase, /*fast_path=*/false)) {
              MaybeCompleteSlot(slot);
            }
          });
      break;
    case CommitLog::AckOutcome::kNoQuorum:
    case CommitLog::AckOutcome::kStale:
      break;
  }
}

void Database::MaybeCompleteSlot(int64_t slot) {
  // While down, waiters are gone (CrashCoordinator cleared them) and any
  // straggling ack must not deliver anything: recovery redoes the slot.
  if (down_) return;
  auto it = durable_waiters_.find(slot);
  if (it == durable_waiters_.end()) return;
  const CommitLog::Slot* record = log_->Get(slot);
  FC_CHECK(record != nullptr) << "durable waiter on freed slot " << slot;
  if (!record->accept_durable || !record->decide_durable) return;
  auto deliver = std::move(it->second);
  durable_waiters_.erase(it);
  deliver();
}

bool Database::MaybeCrashCoordinator(CrashPoint point, sim::Time at) {
  if (crash_countdown_ <= 0 || options_.fault_plan.crash_point != point) {
    return false;
  }
  if (--crash_countdown_ > 0) return false;
  CrashCoordinator(at);
  return true;
}

void Database::CrashCoordinator(sim::Time at) {
  FC_CHECK(!down_) << "coordinator crashed while already down";
  down_ = true;
  crash_time_ = at;
  ++coordinator_epoch_;
  ++recovery_stats_.coordinator_crashes;
  recovery_stats_.last_crash_time = at;
  // Open batches are volatile coordinator state: their window timers die
  // with the crash and their members become unlogged in-flight rounds for
  // recovery's presumed-abort sweep.
  for (auto& entry : open_batches_) {
    Batch& batch = entry.second;
    sim_.control()->Cancel(batch.timer);
    RoundState round;
    round.id = next_round_id_++;
    round.partitions = std::move(batch.partitions);
    round.members = std::move(batch.members);
    rounds_.emplace(round.id, std::move(round));
  }
  open_batches_.clear();
  // Parked delivery continuations are volatile too; their slots hold
  // logged decisions, which recovery redoes from the log itself.
  durable_waiters_.clear();
  sim_.control()->ScheduleAt(
      at + options_.fault_plan.coordinator_restart_delay,
      sim::EventClass::kCrash, [this] { RecoverCoordinator(); });
}

void Database::RecoverCoordinator() {
  FC_CHECK(down_) << "recovery of a live coordinator";
  sim::Time now = sim_.control()->Now();
  down_ = false;
  ++recovery_stats_.recoveries;
  recovery_stats_.last_restart_time = now;
  recovery_stats_.unavailability_ticks += now - crash_time_;
  // Replay the round table in formation order against the recovered log.
  // Three classes: decision logged -> redo the finishes; votes logged but
  // undecided -> re-decide through a fresh instance; nothing durable ->
  // presumed abort, release locks, resubmit the members.
  std::map<int64_t, RoundState> lost;
  lost.swap(rounds_);
  for (auto& entry : lost) {
    RoundState& round = entry.second;
    const CommitLog::Slot* slot =
        round.slot >= 0 ? log_->Get(round.slot) : nullptr;
    FC_CHECK(round.slot < 0 || slot != nullptr)
        << "in-flight round " << round.id << " lost its log slot "
        << round.slot;
    if (slot != nullptr && slot->decision != commit::Decision::kNone) {
      // Whether the decision's quorum completed is immaterial: the record
      // survived in the recovered log, and nothing contradicting it was
      // ever exposed.
      commit::Decision decision = slot->decision;
      ++recovery_stats_.redo_rounds;
      DeliverRoundDecision(round, decision, now);
    } else if (slot != nullptr) {
      ++recovery_stats_.redecide_rounds;
      StartRound(std::move(round), /*resumed=*/true);
    } else {
      ++recovery_stats_.presumed_aborts;
      for (BatchMember& member : round.members) {
        // Release whatever the member prepared (Finish is idempotent at
        // participants that never prepared it), then re-execute with the
        // same attempt number — the crash was not the member's conflict.
        FinishPartitions(member.pending.tx.id, member.touched,
                         commit::Decision::kAbort, now);
        ++recovery_stats_.resubmissions;
        Resubmit(std::move(member.pending), now);
      }
    }
  }
  if (log_ != nullptr) log_->FreeSlots();
  // Re-execute everything that arrived during the outage, in arrival
  // order, after the resubmissions above (same-instant control events run
  // in insertion order).
  std::vector<PendingTx> parked;
  parked.swap(parked_);
  for (PendingTx& pending : parked) Resubmit(std::move(pending), now);
}

void Database::Resubmit(PendingTx pending, sim::Time at) {
  sim_.control()->ScheduleAt(at, sim::EventClass::kControl,
                             [this, pending = std::move(pending)]() mutable {
                               Execute(std::move(pending));
                             });
}

void Database::FinishTx(const PendingTx& pending,
                        const std::vector<int>& touched,
                        commit::Decision decision, sim::Time started,
                        sim::Time finished_at) {
  // The CSN authority: every commit is stamped here, in canonical
  // control-plane order, so the sequence — and every snapshot derived
  // from it — is identical on any shard/thread placement.
  int64_t csn =
      decision == commit::Decision::kCommit ? ++last_csn_ : 0;
  FinishPartitions(pending.tx.id, touched, decision, finished_at, csn);
  if (decision == commit::Decision::kCommit) {
    ++stats_.committed;
    if (touched.size() > 1) {
      stats_.latency.Record(finished_at - started);
      if (!IsReadOnly(pending.tx)) {
        stats_.write_latency.Record(finished_at - started);
      }
    }
    if (pending.on_complete) pending.on_complete(pending.tx, decision);
    --inflight_;
    return;
  }
  // Abort: bucket the attempt by the concurrency control that refused it
  // (shed arrivals never reach FinishTx, so they stay out of both), then
  // retry with linear backoff or give up. Counted here — a canonical-order
  // control-plane site — so the breakdown is placement invariant like
  // every other stat.
  if (options_.concurrency == ConcurrencyMode::kOCC) {
    ++stats_.abort_validation_failures;
  } else {
    ++stats_.abort_lock_conflicts;
  }
  if (pending.attempt >= options_.max_attempts) {
    ++stats_.aborted;
    if (pending.on_complete) pending.on_complete(pending.tx, decision);
    --inflight_;
    return;
  }
  ++stats_.retries;
  PendingTx retry{pending.tx, pending.attempt + 1, pending.on_complete};
  sim::Time backoff =
      options_.unit * kRetryBackoffUnits * pending.attempt +
      static_cast<sim::Time>(rng_.UniformInt(1, options_.unit));
  sim_.control()->ScheduleAt(finished_at + backoff, sim::EventClass::kControl,
                             [this, retry = std::move(retry)]() mutable {
                               Execute(std::move(retry));
                             });
}

const DatabaseStats& Database::Drain() {
  sim_.Run();
  // The last decides' finish tasks have no later prepare to force a
  // barrier; drain them so the run ends with every lock released and
  // every staged write applied.
  FlushPartitionWork();
  FC_CHECK(inflight_ == 0) << "transactions still pending after drain";
  FC_CHECK(open_batches_.empty())
      << "open batches after drain: a window flush event was lost";
  FC_CHECK(inflight_key_hashes_.empty() && busy_key_counts_.empty())
      << "conflict-lookahead tracker not empty after drain";
  FC_CHECK(pending_reads_.empty())
      << "snapshot reads still pending after drain";
  FC_CHECK(snapshot_claims_.empty())
      << "snapshot CSN claims leaked after drain";
  FC_CHECK(!down_) << "coordinator still down after drain";
  FC_CHECK(rounds_.empty()) << "in-flight rounds leaked after drain";
  FC_CHECK(parked_.empty()) << "parked transactions leaked after drain";
  FC_CHECK(durable_waiters_.empty())
      << "decision-durability waiters leaked after drain";
  stats_.makespan = sim_.Now();
  return stats_;
}

commit::Decision Database::Execute(Transaction tx) {
  commit::Decision decision = commit::Decision::kNone;
  Submit(std::move(tx), sim_.Now(),
         [&decision](const Transaction&, commit::Decision d) { decision = d; });
  Drain();
  FC_CHECK(decision != commit::Decision::kNone)
      << "submitted transaction never reported a decision";
  return decision;
}

int64_t Database::TrimPool() {
  FC_CHECK(sim_.idle())
      << "TrimPool between drains only: pending events may reference "
         "pooled instances";
  return pool_.Trim();
}

int64_t Database::GetInt(const Key& key) {
  FlushPartitionWork();
  return plane_.partition(PartitionOf(key)).store().GetInt(key);
}

void Database::LoadInt(const Key& key, int64_t value) {
  FlushPartitionWork();
  plane_.partition(PartitionOf(key)).store().Put(key, std::to_string(value));
}

int64_t Database::SumInts() {
  FlushPartitionWork();
  int64_t sum = 0;
  for (int p = 0; p < plane_.num_partitions(); ++p) {
    sum += plane_.partition(p).store().SumInts();
  }
  return sum;
}

int64_t Database::GetIntAtSnapshot(const Key& key, int64_t snapshot_csn) {
  FlushPartitionWork();
  return plane_.partition(PartitionOf(key))
      .store()
      .GetIntAtSnapshot(key, snapshot_csn);
}

int64_t Database::TotalVersions() {
  FlushPartitionWork();
  int64_t total = 0;
  for (int p = 0; p < plane_.num_partitions(); ++p) {
    total += plane_.partition(p).store().total_versions();
  }
  return total;
}

int64_t Database::TruncateVersions() {
  FlushPartitionWork();
  int64_t watermark = Watermark();
  int64_t dropped = 0;
  for (int p = 0; p < plane_.num_partitions(); ++p) {
    dropped += plane_.partition(p).store().Truncate(watermark);
  }
  return dropped;
}

}  // namespace fastcommit::db
