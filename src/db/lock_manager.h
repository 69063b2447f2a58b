#ifndef FASTCOMMIT_DB_LOCK_MANAGER_H_
#define FASTCOMMIT_DB_LOCK_MANAGER_H_

#include <cstddef>
#include <functional>
#include <unordered_map>
#include <vector>

#include "db/transaction.h"

namespace fastcommit::db {

/// Per-key shared/exclusive locks with no-wait conflict handling: a
/// transaction that cannot acquire a lock is voted "no" by the partition
/// (Helios-style conflict detection — the paper's motivating execution
/// model), leaving deadlock avoidance to abort-and-retry. Both concurrency
/// modes share it: 2PL takes shared locks for reads, OCC only probes
/// ExclusiveOwner for them; writes lock exclusively in both.
class LockManager {
 public:
  LockManager() = default;

  /// Acquire; returns false on conflict (state unchanged on failure).
  bool TryLockShared(const Key& key, TxId tx);
  bool TryLockExclusive(const Key& key, TxId tx);

  /// Releases every lock held by `tx`.
  void ReleaseAll(TxId tx);

  /// Diagnostics.
  int64_t held_locks() const;
  /// Keys with at least one holder (a released key's entry is erased, so
  /// this is 0 whenever no transaction holds anything).
  size_t size() const { return locks_.size(); }
  /// Locks held by one transaction (0 when it holds none) — the "no lock
  /// held by a finished transaction" probe of tests/lock_invariant_test.cc.
  int64_t held_by(TxId tx) const;
  bool HoldsExclusive(const Key& key, TxId tx) const;
  /// The transaction holding `key` exclusively, -1 when none. A lookup
  /// that never creates an entry (the OCC read probe).
  TxId ExclusiveOwner(const Key& key) const;
  bool HoldsShared(const Key& key, TxId tx) const;

  /// Visits every (key, holder) pair once per holder, in unspecified
  /// order. Debug/invariant use only (the conflict-lookahead tracker
  /// cross-check in Database sweeps this at flush barriers); O(held
  /// locks), allocation-free.
  void ForEachHeldKey(
      const std::function<void(const Key& key, TxId tx)>& fn) const;

  /// Debug invariant sweep, FC_CHECKs on violation:
  ///   - no key is both exclusive-owned and shared-owned (the
  ///     shared/exclusive coexistence ban, including after an upgrade);
  ///   - no empty lock entries linger (ReleaseAll must erase them);
  ///   - every shared-owner list is sorted and duplicate-free (the
  ///     sorted-vector representation's own contract);
  ///   - held_ and the per-key owner sets agree exactly in both
  ///     directions, with no duplicate held_ entries (the upgrade path
  ///     must not double-record a key it re-acquired exclusively).
  /// O(held locks); called at partition-plane flush barriers when enabled.
  void CheckInvariants() const;

 private:
  struct LockState {
    TxId exclusive_owner = -1;
    /// Shared owners as a small sorted vector: reader fan-in per key is a
    /// handful of transactions, where binary-searched contiguous storage
    /// beats a node-per-owner std::set on every operation the hot path
    /// runs (membership, ordered insert, erase) and on allocation count.
    /// Sorted order also keeps iteration deterministic, as the set's was.
    std::vector<TxId> shared_owners;
  };

  /// Released transactions' held_ vectors kept for reuse, at most this
  /// many (a bound, not a target: in-flight transactions are few).
  static constexpr size_t kMaxSpareHeld = 64;

  /// True when held_[tx] records `key` (linear in that transaction's held
  /// set; CheckInvariants-only).
  bool HeldRecorded(const Key& key, TxId tx) const;
  /// Appends `key` to held_[tx], taking a spare vector for a new record.
  void Record(TxId tx, const Key& key);

  std::unordered_map<Key, LockState> locks_;
  std::unordered_map<TxId, std::vector<Key>> held_;
  std::vector<std::vector<Key>> spare_held_;
};

}  // namespace fastcommit::db

#endif  // FASTCOMMIT_DB_LOCK_MANAGER_H_
