#ifndef FASTCOMMIT_DB_KV_STORE_H_
#define FASTCOMMIT_DB_KV_STORE_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "db/transaction.h"

namespace fastcommit::db {

/// In-memory multi-version key-value storage for one partition. Each key
/// holds a *version chain* — (commit CSN, value) pairs in strictly
/// increasing CSN order — so a snapshot reader at CSN c can be served the
/// newest version <= c with no locks and no coordination, while writers
/// keep appending at their commit CSNs (the csn_log design the ROADMAP's
/// snapshot-reads item points at). Values are opaque bytes; AddInt
/// provides the numeric read-modify-write used by the bank workload.
///
/// Non-transactional callers (dataset loads, tests) use Put/AddInt, which
/// write at the chain's current head: behavior is exactly the old
/// single-value map. Transactional commits go through Apply(op, csn,
/// gc_watermark), which appends a version at the commit CSN and prunes the
/// touched chain down to the GC watermark — the minimum CSN any live
/// snapshot reader can still demand (Database tracks it) — so memory stays
/// bounded at O(keys + versions above the watermark) without any sweep.
///
/// Layout: one flat entry per key holds the key, the newest version inline
/// (the head) and, only while a reader below the head still needs them,
/// the older versions in increasing CSN order — the chain is `older +
/// [head]`, and a key whose history is covered by the watermark is one
/// entry with an empty `older`. Entries live densely in fixed-size chunks
/// (growth never moves them) and are found through an open-addressed,
/// linearly probed index of 64-bit slots, each holding a 32-bit hash tag
/// and the entry's position; a tag match is confirmed by comparing the
/// full key. A lookup is one index probe plus one entry. Erase
/// backward-shifts the probe cluster and moves the last entry into the
/// hole. Iteration order is unspecified; only order-free folds use it.
class KvStore {
 public:
  KvStore() = default;
  /// Deep copy (tests fork stores to try both watermark regimes).
  KvStore(const KvStore& other);
  KvStore& operator=(const KvStore& other);
  /// Moves leave the source empty.
  KvStore(KvStore&& other) noexcept;
  KvStore& operator=(KvStore&& other) noexcept;

  /// Newest value of `key` (the chain head), regardless of CSN.
  std::optional<Value> Get(const Key& key) const;
  /// Newest value with CSN <= `snapshot_csn` — the lock-free snapshot
  /// read. std::nullopt when the key did not exist at that snapshot
  /// (never written, or first written at a later CSN).
  std::optional<Value> GetAtSnapshot(const Key& key,
                                     int64_t snapshot_csn) const;
  /// The same lookup without a copy: the stored value of that version, or
  /// nullptr when the key did not exist at the snapshot. Valid until the
  /// store is next mutated.
  const Value* FindAtSnapshot(const Key& key, int64_t snapshot_csn) const;

  /// Non-transactional store: overwrites the chain head in place (chains
  /// start at CSN 0), preserving the pre-MVCC overwrite semantics for
  /// dataset loads and direct-store tests.
  void Put(const Key& key, Value value);
  bool Erase(const Key& key);

  /// Applies one committed transaction op at commit CSN `csn`: kPut stores,
  /// kAdd adjusts the newest value, kGet is a no-op (reads mutate
  /// nothing). A second op of the same transaction on the same key updates
  /// the same version in place — the chain gains exactly one version per
  /// (key, commit). After writing, the touched chain is pruned to
  /// `gc_watermark` (see Truncate); pass 0 to keep everything. When the
  /// watermark is at or above `csn` (no live reader below the commit) the
  /// new version overwrites the head and drops the older versions: one
  /// index probe, one entry touched. The single write-application site
  /// both concurrency modes' Finish paths share, so commit semantics
  /// cannot drift between them.
  void Apply(const Op& op, int64_t csn = 0, int64_t gc_watermark = 0);

  /// Interprets the newest value (or 0 if absent) as an int64, adds
  /// `delta` and stores the result at the chain head (non-transactional,
  /// like Put). Returns the new value.
  int64_t AddInt(const Key& key, int64_t delta);

  /// Numeric read of the newest value; 0 if absent or non-numeric.
  int64_t GetInt(const Key& key) const;
  /// Numeric read at a snapshot; 0 if absent there.
  int64_t GetIntAtSnapshot(const Key& key, int64_t snapshot_csn) const;

  size_t size() const { return size_; }
  /// Total versions over all chains (>= size(); the GC tests watch it).
  int64_t total_versions() const { return total_versions_; }
  /// Versions of one key's chain (0 when absent).
  int64_t versions(const Key& key) const;

  /// GC pass: for every chain, drops all versions older than the newest
  /// version with CSN <= `watermark` — that one version stays as the base
  /// any snapshot >= watermark still resolves to, so no version visible to
  /// a reader at or above the watermark is ever removed. Returns versions
  /// dropped. O(store); Apply's per-chain pruning keeps steady-state
  /// memory bounded without this, but explicit barriers (and tests) can
  /// force a full pass.
  int64_t Truncate(int64_t watermark);

  /// Sum of all numeric chain-head values (invariant checks in the bank
  /// example).
  int64_t SumInts() const;

  /// FC_CHECKs chain invariants — strictly increasing CSNs within every
  /// chain and the version counter consistent — and index invariants:
  /// every entry is found through the index at its own position, and the
  /// index holds exactly size() occupied slots. Swept at partition-plane
  /// flush barriers under Database check_invariants.
  void CheckInvariants() const;

 private:
  struct Version {
    int64_t csn = 0;
    Value value;
  };
  struct Entry {
    Key key;
    Version head;                // newest version
    std::vector<Version> older;  // earlier versions, increasing CSN
  };

  static constexpr uint32_t kChunkShift = 9;
  static constexpr uint32_t kChunkSize = uint32_t{1} << kChunkShift;

  static uint32_t Tag(const Key& key);
  static uint64_t Slot(uint32_t tag, uint32_t pos) {
    return (uint64_t{tag} << 32) | (uint64_t{pos} + 1);
  }
  static uint32_t TagOf(uint64_t slot) {
    return static_cast<uint32_t>(slot >> 32);
  }
  static uint32_t PosOf(uint64_t slot) {
    return static_cast<uint32_t>(slot) - 1;
  }
  Entry& entry(uint32_t pos) {
    return chunks_[pos >> kChunkShift][pos & (kChunkSize - 1)];
  }
  const Entry& entry(uint32_t pos) const {
    return chunks_[pos >> kChunkShift][pos & (kChunkSize - 1)];
  }
  /// Index slot holding `key` (hash tag `tag`), or the empty slot that
  /// ends its probe sequence when absent. The index must be non-empty.
  size_t Probe(const Key& key, uint32_t tag) const;
  const Entry* Find(const Key& key) const;
  /// The entry of `key`, appended (empty, head at CSN 0, not yet counted
  /// in total_versions_) when absent; `*inserted` says which.
  Entry& FindOrInsert(const Key& key, bool* inserted);
  /// Doubles the index (minimum 16 slots), re-placing slots by their tags.
  void Grow();
  /// Prunes one chain to `watermark` (see Truncate); returns drops.
  static int64_t PruneEntry(Entry& e, int64_t watermark);

  std::vector<std::unique_ptr<Entry[]>> chunks_;  // kChunkSize entries each
  uint32_t size_ = 0;                             // entries in use
  // Power-of-two slots, load <= 1/2: (tag << 32) | (entry position + 1),
  // 0 = empty. A slot's home is tag & (size - 1).
  std::vector<uint64_t> index_;
  int64_t total_versions_ = 0;
};

}  // namespace fastcommit::db

#endif  // FASTCOMMIT_DB_KV_STORE_H_
