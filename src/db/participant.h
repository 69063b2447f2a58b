#ifndef FASTCOMMIT_DB_PARTICIPANT_H_
#define FASTCOMMIT_DB_PARTICIPANT_H_

#include <unordered_map>
#include <vector>

#include "commit/commit_protocol.h"
#include "db/kv_store.h"
#include "db/lock_manager.h"
#include "db/transaction.h"

namespace fastcommit::db {

/// One partition (database node): storage + concurrency control + staged
/// writes. The vote it returns from Prepare is exactly the paper's "local
/// faith of the transaction": yes if the transaction is locally
/// conflict-free, no otherwise. Both modes decide "conflict-free" against
/// one no-wait lock table (LockManager); they differ only in what a read
/// does there:
///   - ConcurrencyMode::k2PL (default): a read takes a shared lock, so
///     readers block writers until they finish;
///   - ConcurrencyMode::kOCC: a read takes nothing and only checks that no
///     other transaction holds the key exclusively (an in-flight writer),
///     so readers are invisible to each other and to later writers.
/// Writes take exclusive locks in both modes, held until Finish. Either
/// way the commit protocols upstream run unchanged on the votes.
class Participant {
 public:
  explicit Participant(int partition_id,
                       ConcurrencyMode mode = ConcurrencyMode::k2PL)
      : partition_id_(partition_id), mode_(mode) {}
  Participant(const Participant&) = delete;
  Participant& operator=(const Participant&) = delete;

  /// Attempts to execute the transaction's local ops under the configured
  /// concurrency mode in one pass over `local_ops`: writes take exclusive
  /// locks, reads take shared locks (2PL) or only probe for another
  /// transaction's exclusive lock (OCC). Stages the write ops and returns
  /// the partition's vote. On a "no" vote every lock the transaction took
  /// here is dropped immediately. Staged results are per-transaction, so
  /// any number of members of one batched commit round can be prepared
  /// here concurrently and finished individually with different decisions.
  commit::Vote Prepare(TxId tx, const std::vector<Op>& local_ops);

  /// Applies (commit) or discards (abort) the staged writes and releases
  /// the transaction's locks. Safe and idempotent for transactions never
  /// prepared here; under OCC a read-only transaction left nothing behind,
  /// so its Finish finds nothing to do (the read-only fast path). A commit
  /// applies its staged writes as versions at `csn` (the control plane's
  /// commit sequence number; 0 = the pre-MVCC head overwrite, kept for
  /// direct test callers), and the touched chains are pruned to
  /// `gc_watermark` — the minimum CSN a live snapshot reader can still
  /// demand — so version memory stays bounded without sweeps.
  void Finish(TxId tx, commit::Decision decision, int64_t csn = 0,
              int64_t gc_watermark = 0);

  /// The lock-free read plane: serves every kGet of `local_ops` from the
  /// newest version <= `snapshot_csn`, appending one Value per read op to
  /// `*out` (absent keys read as an empty Value), each copied once
  /// straight from the stored version (KvStore::FindAtSnapshot). Touches
  /// no LockManager state and mutates nothing — a pure chain lookup, in
  /// either concurrency mode. Drained inside the partition FIFO (see
  /// PartitionPlane::EnqueueSnapshotRead) so every commit with CSN <=
  /// snapshot has applied before the read runs.
  void ReadAtSnapshot(int64_t snapshot_csn, const std::vector<Op>& local_ops,
                      std::vector<Value>* out) const;

  KvStore& store() { return store_; }
  const KvStore& store() const { return store_; }
  LockManager& locks() { return locks_; }
  const LockManager& locks() const { return locks_; }
  int partition_id() const { return partition_id_; }
  ConcurrencyMode mode() const { return mode_; }

  /// Debug invariant sweep, FC_CHECKs on violation, the same in both
  /// modes: the lock manager's bookkeeping is internally consistent (see
  /// LockManager::CheckInvariants); every staged write's key is still
  /// exclusive-locked by the staging transaction — a staged entry whose
  /// lock was released would let a concurrent prepare write under it; and
  /// — the other direction — no exclusive lock survives without a live
  /// owner (a staged write naming that key), so an abort that forgot to
  /// unlock dies here instead of wedging every later writer of the key.
  /// Called at partition-plane flush barriers when
  /// Database::Options::check_invariants is set.
  void CheckInvariants() const;

  int64_t prepares() const { return prepares_; }
  int64_t conflicts() const { return conflicts_; }

 private:
  /// Stages the write ops of `local_ops` for `tx` (no-op for read-only op
  /// sets).
  void StageWrites(TxId tx, const std::vector<Op>& local_ops);

  int partition_id_;
  ConcurrencyMode mode_;
  KvStore store_;
  LockManager locks_;
  std::unordered_map<TxId, std::vector<Op>> staged_;
  int64_t prepares_ = 0;
  int64_t conflicts_ = 0;
};

}  // namespace fastcommit::db

#endif  // FASTCOMMIT_DB_PARTICIPANT_H_
