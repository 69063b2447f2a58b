// Snapshot reads and CSN-stamped MVCC storage: KvStore version-chain unit
// tests (snapshot resolution, in-place same-commit updates, watermark
// pruning), Participant::ReadAtSnapshot semantics, and Database-level
// gates — the stable-prefix invariant (a snapshot at CSN S reads exactly
// the first S commits), read-your-writes, the zero-footprint guarantee
// (no locks, no votes, no protocol messages, no pooled instances for
// read-only traffic in either concurrency mode), version GC staying
// bounded, and bitwise placement determinism of both DatabaseStats and
// the read-result fingerprint across shard/thread grids and the inline
// path.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "commit/commit_protocol.h"
#include "db/database.h"
#include "db/kv_store.h"
#include "db/participant.h"
#include "db/traffic.h"
#include "db/transaction.h"
#include "db/workload.h"
#include "sim/rng.h"

namespace fastcommit::db {
namespace {

TEST(KvStoreMvccTest, SnapshotResolvesNewestVersionAtOrBelow) {
  KvStore store;
  store.Apply(Transaction::Put("k", "v1"), /*csn=*/1);
  store.Apply(Transaction::Put("k", "v3"), /*csn=*/3);
  EXPECT_EQ(store.GetAtSnapshot("k", 0), std::nullopt);  // not yet written
  EXPECT_EQ(store.GetAtSnapshot("k", 1), "v1");
  EXPECT_EQ(store.GetAtSnapshot("k", 2), "v1");  // between versions: older
  EXPECT_EQ(store.GetAtSnapshot("k", 3), "v3");
  EXPECT_EQ(store.GetAtSnapshot("k", 99), "v3");
  EXPECT_EQ(store.Get("k"), "v3");  // head read ignores CSNs
  EXPECT_EQ(store.versions("k"), 2);
  store.CheckInvariants();
}

TEST(KvStoreMvccTest, SameCommitOpsShareOneVersion) {
  KvStore store;
  store.Apply(Transaction::Add("k", 2), /*csn=*/5);
  store.Apply(Transaction::Add("k", 3), /*csn=*/5);  // same commit: in place
  EXPECT_EQ(store.GetIntAtSnapshot("k", 5), 5);
  EXPECT_EQ(store.versions("k"), 1);
  store.CheckInvariants();
}

TEST(KvStoreMvccTest, NonTransactionalPutKeepsOverwriteSemantics) {
  KvStore store;
  store.Put("k", "a");
  store.Put("k", "b");  // pre-MVCC behavior: head overwritten, one version
  EXPECT_EQ(store.Get("k"), "b");
  EXPECT_EQ(store.versions("k"), 1);
  EXPECT_EQ(store.total_versions(), 1);
  store.CheckInvariants();
}

TEST(KvStoreMvccTest, TruncateKeepsTheWatermarkBase) {
  KvStore store;
  for (int64_t csn = 1; csn <= 5; ++csn) {
    store.Apply(Transaction::Put("k", "v" + std::to_string(csn)), csn);
  }
  ASSERT_EQ(store.versions("k"), 5);
  // Watermark 3: versions 1 and 2 die, but version 3 must survive as the
  // base every snapshot in [3, 4) still resolves to.
  EXPECT_EQ(store.Truncate(3), 2);
  EXPECT_EQ(store.versions("k"), 3);
  EXPECT_EQ(store.GetAtSnapshot("k", 3), "v3");
  EXPECT_EQ(store.GetAtSnapshot("k", 4), "v4");
  // A snapshot below the watermark is by definition no longer live; its
  // history is gone and the read correctly resolves to nothing.
  EXPECT_EQ(store.GetAtSnapshot("k", 2), std::nullopt);
  store.CheckInvariants();
}

TEST(KvStoreMvccTest, ApplyPrunesTheTouchedChainIncrementally) {
  KvStore store;
  store.Apply(Transaction::Put("k", "v1"), /*csn=*/1);
  store.Apply(Transaction::Put("k", "v2"), /*csn=*/2, /*gc_watermark=*/0);
  EXPECT_EQ(store.versions("k"), 2);  // watermark 0 keeps everything
  // A commit at CSN 3 whose watermark already passed 2 prunes v1 on the
  // way through — no sweep needed.
  store.Apply(Transaction::Put("k", "v3"), /*csn=*/3, /*gc_watermark=*/2);
  EXPECT_EQ(store.versions("k"), 2);  // v2 (base at 2) + v3
  EXPECT_EQ(store.GetAtSnapshot("k", 2), "v2");
  store.CheckInvariants();
}

TEST(KvStoreMvccTest, ApplyAtCoveringWatermarkCollapsesTheChain) {
  KvStore store;
  store.Put("other", "x");
  for (int64_t csn = 1; csn <= 4; ++csn) {
    store.Apply(Transaction::Put("k", "v" + std::to_string(csn)), csn);
    store.CheckInvariants();
  }
  ASSERT_EQ(store.versions("k"), 4);
  ASSERT_EQ(store.total_versions(), 5);
  // No reader below CSN 5: the new version is the only one left, and the
  // counter drops by the three versions that vanished.
  store.Apply(Transaction::Put("k", "v5"), /*csn=*/5, /*gc_watermark=*/5);
  store.CheckInvariants();
  EXPECT_EQ(store.versions("k"), 1);
  EXPECT_EQ(store.total_versions(), 2);
  EXPECT_EQ(store.Get("k"), "v5");
  EXPECT_EQ(store.GetAtSnapshot("k", 5), "v5");
  EXPECT_EQ(store.GetAtSnapshot("k", 4), std::nullopt);
  // A watermark strictly above the CSN collapses a kAdd the same way.
  store.Apply(Transaction::Put("k", "10"), /*csn=*/6);
  store.Apply(Transaction::Add("k", 5), /*csn=*/7, /*gc_watermark=*/9);
  store.CheckInvariants();
  EXPECT_EQ(store.versions("k"), 1);
  EXPECT_EQ(store.total_versions(), 2);
  EXPECT_EQ(store.GetIntAtSnapshot("k", 7), 15);
}

TEST(KvStoreMvccTest, ApplyBelowTheCsnKeepsTheReadersBase) {
  KvStore store;
  store.Apply(Transaction::Put("k", "v1"), /*csn=*/1);
  store.Apply(Transaction::Put("k", "v2"), /*csn=*/2);
  store.CheckInvariants();
  // A live reader at CSN 2 holds the watermark there: v2 stays readable as
  // its base, only v1 (below the base) may go.
  store.Apply(Transaction::Put("k", "v3"), /*csn=*/3, /*gc_watermark=*/2);
  store.CheckInvariants();
  EXPECT_EQ(store.versions("k"), 2);
  EXPECT_EQ(store.total_versions(), 2);
  EXPECT_EQ(store.GetAtSnapshot("k", 2), "v2");
  EXPECT_EQ(store.GetAtSnapshot("k", 3), "v3");
  // The kAdd base is the head, not the reader's version.
  store.Apply(Transaction::Put("n", "100"), /*csn=*/3);
  store.Apply(Transaction::Add("n", 7), /*csn=*/4, /*gc_watermark=*/3);
  store.CheckInvariants();
  EXPECT_EQ(store.GetIntAtSnapshot("n", 3), 100);
  EXPECT_EQ(store.GetIntAtSnapshot("n", 4), 107);
  EXPECT_EQ(store.versions("n"), 2);
}

TEST(KvStoreMvccTest, SameCommitAddsStackIntoOneVersion) {
  KvStore store;
  store.Apply(Transaction::Put("k", "10"), /*csn=*/1);
  store.Apply(Transaction::Put("k", "20"), /*csn=*/2);
  store.CheckInvariants();
  // Both watermark regimes: a live reader (1) and none (3 >= CSN).
  for (int64_t watermark : {int64_t{1}, int64_t{3}}) {
    KvStore copy = store;
    copy.Apply(Transaction::Add("k", 4), /*csn=*/3, watermark);
    copy.CheckInvariants();
    copy.Apply(Transaction::Add("k", -1), /*csn=*/3, watermark);
    copy.CheckInvariants();
    EXPECT_EQ(copy.Get("k"), "23") << "watermark " << watermark;
    EXPECT_EQ(copy.GetIntAtSnapshot("k", 2), watermark < 2 ? 20 : 0);
    EXPECT_EQ(copy.versions("k"), watermark < 2 ? 3 : 1);
    EXPECT_EQ(copy.total_versions(), copy.versions("k"));
  }
}

TEST(KvStoreMvccTest, AddOnAnAbsentKeyCreatesItAtTheCommitCsn) {
  KvStore store;
  store.Apply(Transaction::Add("fresh", -42), /*csn=*/8, /*gc_watermark=*/8);
  store.CheckInvariants();
  EXPECT_EQ(store.size(), 1u);
  EXPECT_EQ(store.versions("fresh"), 1);
  EXPECT_EQ(store.total_versions(), 1);
  EXPECT_EQ(store.GetInt("fresh"), -42);
  EXPECT_EQ(store.GetAtSnapshot("fresh", 7), std::nullopt);  // born at 8
  EXPECT_EQ(store.GetIntAtSnapshot("fresh", 8), -42);
  // A read op creates nothing.
  store.Apply(Transaction::Get("ghost"), /*csn=*/9, /*gc_watermark=*/9);
  EXPECT_EQ(store.size(), 1u);
  EXPECT_EQ(store.versions("ghost"), 0);
  store.CheckInvariants();
}

// Reference model of the documented chain semantics, written the obvious
// way: per key, (CSN, value) pairs in strictly increasing CSN order; a
// commit appends (or updates its own version in place) and then prunes to
// the watermark.
class ReferenceStore {
 public:
  using Chain = std::vector<std::pair<int64_t, Value>>;

  void Put(const Key& key, Value value) {
    Chain& chain = map_[key];
    if (chain.empty()) {
      chain.emplace_back(0, std::move(value));
    } else {
      chain.back().second = std::move(value);
    }
  }

  bool Erase(const Key& key) { return map_.erase(key) > 0; }

  void Apply(const Op& op, int64_t csn, int64_t gc_watermark) {
    if (op.type == Op::Type::kGet) return;
    Chain& chain = map_[op.key];
    Value value = op.value;
    if (op.type == Op::Type::kAdd) {
      int64_t base = chain.empty() ? 0 : ParseInt(chain.back().second);
      value = std::to_string(base + op.delta);
    }
    if (!chain.empty() && chain.back().first >= csn) {
      chain.back().second = value;
    } else {
      chain.emplace_back(csn, value);
    }
    if (gc_watermark > 0) Prune(chain, gc_watermark);
  }

  int64_t Truncate(int64_t watermark) {
    int64_t dropped = 0;
    for (auto& [key, chain] : map_) dropped += Prune(chain, watermark);
    return dropped;
  }

  std::optional<Value> Get(const Key& key) const {
    auto it = map_.find(key);
    if (it == map_.end()) return std::nullopt;
    return it->second.back().second;
  }

  std::optional<Value> GetAtSnapshot(const Key& key, int64_t csn) const {
    auto it = map_.find(key);
    if (it == map_.end()) return std::nullopt;
    std::optional<Value> newest;
    for (const auto& [version_csn, value] : it->second) {
      if (version_csn <= csn) newest = value;
    }
    return newest;
  }

  int64_t versions(const Key& key) const {
    auto it = map_.find(key);
    return it == map_.end() ? 0 : static_cast<int64_t>(it->second.size());
  }

  int64_t total_versions() const {
    int64_t total = 0;
    for (const auto& [key, chain] : map_) {
      total += static_cast<int64_t>(chain.size());
    }
    return total;
  }

  size_t size() const { return map_.size(); }

  int64_t SumInts() const {
    int64_t sum = 0;
    for (const auto& [key, chain] : map_) sum += ParseInt(chain.back().second);
    return sum;
  }

 private:
  static int64_t ParseInt(const Value& value) {
    return std::strtoll(value.c_str(), nullptr, 10);
  }

  // Drops every version older than the newest one at or below the
  // watermark.
  static int64_t Prune(Chain& chain, int64_t watermark) {
    size_t base = 0;
    for (size_t i = 0; i < chain.size(); ++i) {
      if (chain[i].first <= watermark) base = i;
    }
    chain.erase(chain.begin(), chain.begin() + static_cast<ptrdiff_t>(base));
    return static_cast<int64_t>(base);
  }

  std::map<Key, Chain> map_;
};

// Compares one key's every observable (head, versions, every snapshot from
// 0 to just past `csn`) between the store and the reference.
void ExpectSameKey(const KvStore& store, const ReferenceStore& ref,
                   const Key& key, int64_t csn, int64_t step) {
  ASSERT_EQ(store.Get(key), ref.Get(key)) << key << " at step " << step;
  ASSERT_EQ(store.versions(key), ref.versions(key))
      << key << " at step " << step;
  std::vector<int64_t> snapshots = {0};
  for (int64_t s = std::max<int64_t>(1, csn - 8); s <= csn + 1; ++s) {
    snapshots.push_back(s);
  }
  for (int64_t snapshot : snapshots) {
    ASSERT_EQ(store.GetAtSnapshot(key, snapshot),
              ref.GetAtSnapshot(key, snapshot))
        << key << " @" << snapshot << " at step " << step;
  }
}

TEST(KvStoreMvccTest, MatchesAReferenceModelOverRandomOperations) {
  // Rounds of growing key counts, each from an empty store, so the index
  // grows from its minimum every round and the larger rounds grow past
  // the 512-entry chunk boundary. Erases hit keys inside probe clusters
  // and move the last entry into the hole.
  sim::Rng rng(20170725);
  int64_t step = 0;
  for (int64_t keys : {40, 250, 600, 900}) {
    KvStore store;
    ReferenceStore ref;
    int64_t csn = 0;
    for (int i = 0; i < 6000; ++i, ++step) {
      Key key = "key-" + std::to_string(rng.UniformInt(0, keys - 1));
      int64_t roll = rng.UniformInt(0, 99);
      if (roll < 12) {
        Value value = std::to_string(rng.UniformInt(-50, 50));
        store.Put(key, value);
        ref.Put(key, value);
      } else if (roll < 30) {
        ASSERT_EQ(store.Erase(key), ref.Erase(key)) << key;
      } else if (roll < 32) {
        int64_t watermark = rng.UniformInt(0, csn);
        ASSERT_EQ(store.Truncate(watermark), ref.Truncate(watermark));
      } else {
        // A committed op: a new commit most of the time, else a second op
        // of the current one; the watermark trails the CSN by 0-4, or is 0
        // (keep every version).
        if (csn == 0 || rng.UniformInt(0, 3) > 0) ++csn;
        int64_t kind = rng.UniformInt(0, 9);
        Op op = Transaction::Get(key);
        if (kind < 3) {
          op = Transaction::Put(key, std::to_string(kind));
        } else if (kind < 9) {
          op = Transaction::Add(key, rng.UniformInt(-9, 9));
        }
        int64_t watermark = std::max<int64_t>(0, csn - rng.UniformInt(0, 4));
        if (rng.UniformInt(0, 5) == 0) watermark = 0;
        store.Apply(op, csn, watermark);
        ref.Apply(op, csn, watermark);
      }
      store.CheckInvariants();
      ASSERT_EQ(store.size(), ref.size()) << "step " << step;
      ASSERT_EQ(store.total_versions(), ref.total_versions())
          << "step " << step;
      ASSERT_EQ(store.SumInts(), ref.SumInts()) << "step " << step;
      ASSERT_NO_FATAL_FAILURE(ExpectSameKey(store, ref, key, csn, step));
      Key other = "key-" + std::to_string(rng.UniformInt(0, keys - 1));
      ASSERT_NO_FATAL_FAILURE(ExpectSameKey(store, ref, other, csn, step));
      if (i % 500 == 499) {
        for (int64_t k = 0; k < keys; ++k) {
          Key swept = "key-" + std::to_string(k);
          ASSERT_NO_FATAL_FAILURE(ExpectSameKey(store, ref, swept, csn, step));
        }
      }
    }
  }
}

TEST(ParticipantSnapshotTest, ReadAtSnapshotTouchesNoConcurrencyState) {
  Participant p(0, ConcurrencyMode::k2PL);
  p.Finish(7, commit::Decision::kCommit);  // no-op warmup
  p.store().Put("a", "1");
  // A writer holds an exclusive lock on "a"; the snapshot read must not
  // block, conflict, or even notice.
  ASSERT_EQ(p.Prepare(1, {Transaction::Put("a", "2")}), commit::Vote::kYes);
  std::vector<Value> values;
  p.ReadAtSnapshot(/*snapshot_csn=*/0, {Transaction::Get("a")}, &values);
  ASSERT_EQ(values.size(), 1u);
  EXPECT_EQ(values[0], "1");  // uncommitted staged write invisible
  p.Finish(1, commit::Decision::kCommit);
  p.CheckInvariants();
}

TEST(ParticipantSnapshotTest, AbsentKeysReadAsEmptyValues) {
  Participant p(0, ConcurrencyMode::kOCC);
  std::vector<Value> values;
  p.ReadAtSnapshot(0, {Transaction::Get("missing"), Transaction::Get("x")},
                   &values);
  ASSERT_EQ(values.size(), 2u);
  EXPECT_EQ(values[0], "");
  EXPECT_EQ(values[1], "");
  EXPECT_EQ(p.prepares(), 0);  // reads are not prepares
}

Database::Options SnapshotOptions(ConcurrencyMode mode = ConcurrencyMode::k2PL) {
  Database::Options options;
  options.num_partitions = 4;
  options.concurrency = mode;
  options.snapshot_reads = true;
  options.check_invariants = true;
  return options;
}

// Every committed write increments "ctr", so the CSN sequence counts those
// commits exactly: a snapshot read at CSN S must observe ctr == S — the
// stable-prefix invariant, asserted for every interleaved read while
// writers keep committing around it.
TEST(DatabaseSnapshotTest, SnapshotReadsObserveExactlyTheStablePrefix) {
  Database database(SnapshotOptions());
  int64_t observed_reads = 0;
  database.set_snapshot_read_observer(
      [&](const Transaction& tx, int64_t snapshot_csn,
          const std::vector<Value>& values) {
        ASSERT_EQ(values.size(), tx.ops.size());
        int64_t ctr = values[0].empty() ? 0 : std::stoll(values[0]);
        EXPECT_EQ(ctr, snapshot_csn)
            << "snapshot read of tx " << tx.id << " at CSN " << snapshot_csn;
        ++observed_reads;
      });
  const int kWriters = 40;
  sim::Time at = 0;
  for (int i = 0; i < kWriters; ++i) {
    Transaction w;
    w.id = i + 1;
    w.ops.push_back(Transaction::Add("ctr", 1));
    database.Submit(std::move(w), at);
    Transaction r;
    r.id = 1000 + i;
    r.ops.push_back(Transaction::Get("ctr"));
    database.Submit(std::move(r), at + 3);
    at += 7;
  }
  const DatabaseStats& stats = database.Drain();
  EXPECT_EQ(stats.committed, kWriters);
  EXPECT_EQ(stats.read_only_committed, kWriters);
  EXPECT_EQ(stats.snapshot_reads_served, kWriters);
  EXPECT_EQ(observed_reads, kWriters);
  EXPECT_EQ(database.stable_csn(), kWriters);
}

TEST(DatabaseSnapshotTest, ReadYourWritesAcrossPartitions) {
  Database database(SnapshotOptions());
  // A multi-partition commit, then a snapshot read submitted strictly
  // after its decide instant: the read's snapshot CSN covers the commit,
  // so it must see both keys.
  Transaction w;
  w.id = 1;
  w.ops.push_back(Transaction::Put("alpha", "1"));
  w.ops.push_back(Transaction::Put("beta", "2"));
  database.Submit(std::move(w), 0);
  database.Drain();
  ASSERT_EQ(database.stable_csn(), 1);

  std::vector<Value> seen;
  database.set_snapshot_read_observer(
      [&](const Transaction&, int64_t, const std::vector<Value>& values) {
        seen = values;
      });
  Transaction r;
  r.id = 2;
  r.ops.push_back(Transaction::Get("alpha"));
  r.ops.push_back(Transaction::Get("beta"));
  r.ops.push_back(Transaction::Get("gamma"));  // never written
  database.Submit(std::move(r), database.Now());
  database.Drain();
  ASSERT_EQ(seen.size(), 3u);
  EXPECT_EQ(seen[0], "1");
  EXPECT_EQ(seen[1], "2");
  EXPECT_EQ(seen[2], "");  // absent at every snapshot
  EXPECT_EQ(database.GetIntAtSnapshot("alpha", 0), 0);  // before the commit
  EXPECT_EQ(database.GetIntAtSnapshot("alpha", 1), 1);
}

void ExpectZeroFootprint(ConcurrencyMode mode) {
  Database database(SnapshotOptions(mode));
  for (int k = 0; k < 16; ++k) database.LoadInt(ItemKey(k), k);
  const int kReads = 50;
  sim::Time at = 0;
  for (int i = 0; i < kReads; ++i) {
    Transaction r;
    r.id = i + 1;
    for (int k = 0; k < 4; ++k) {
      r.ops.push_back(Transaction::Get(ItemKey((i + k) % 16)));
    }
    database.Submit(std::move(r), at);
    at += 5;
  }
  const DatabaseStats& stats = database.Drain();
  // The whole point of the plane: read-only traffic commits without the
  // commit protocol — no messages, no pooled instances, no votes — and
  // without concurrency control — no prepares, no locks, no versions.
  EXPECT_EQ(stats.read_only_committed, kReads);
  EXPECT_EQ(stats.snapshot_reads_served, kReads * 4);
  EXPECT_EQ(stats.committed, 0);
  EXPECT_EQ(stats.commit_messages, 0);
  EXPECT_EQ(database.pool_stats().created, 0);
  for (int p = 0; p < database.num_partitions(); ++p) {
    EXPECT_EQ(database.partition(p).prepares(), 0);
    EXPECT_EQ(database.partition(p).locks().held_locks(), 0);
    EXPECT_EQ(database.partition(p).locks().size(), 0u);
  }
}

TEST(DatabaseSnapshotTest, ReadOnlyTrafficLeavesZeroFootprintUnder2pl) {
  ExpectZeroFootprint(ConcurrencyMode::k2PL);
}

TEST(DatabaseSnapshotTest, ReadOnlyTrafficLeavesZeroFootprintUnderOcc) {
  // Both modes share one read plane — IsReadOnly routes around
  // Participant::Prepare entirely, so not even an OCC read probe is made.
  ExpectZeroFootprint(ConcurrencyMode::kOCC);
}

TEST(DatabaseSnapshotTest, VersionChainsStayBoundedByIncrementalGc) {
  Database database(SnapshotOptions());
  // 200 commits hammering 4 keys with no snapshot readers in flight: the
  // per-commit watermark pruning must keep every chain at one version, so
  // MVCC storage costs O(keys), not O(commits).
  sim::Time at = 0;
  for (int i = 0; i < 200; ++i) {
    Transaction w;
    w.id = i + 1;
    w.ops.push_back(Transaction::Add(ItemKey(i % 4), 1));
    database.Submit(std::move(w), at);
    at += 11;
  }
  database.Drain();
  EXPECT_EQ(database.TotalVersions(), 4);
  EXPECT_EQ(database.TruncateVersions(), 0);  // nothing left to drop
  EXPECT_EQ(database.SumInts(), 200);
}

TEST(DatabaseSnapshotTest, SnapshotOffKeepsStatsBitwiseIdentical) {
  // The compatibility gate: with snapshot_reads off, read-only
  // transactions ride the locked path and every stat matches a build that
  // never had the feature — same committed count, zero new buckets.
  auto run = [](bool snapshot) {
    Database::Options options;
    options.num_partitions = 4;
    options.snapshot_reads = snapshot;
    Database database(options);
    sim::Time at = 0;
    for (int i = 0; i < 30; ++i) {
      Transaction w;
      w.id = i + 1;
      AppendReadModifyWriteOps(&w, ItemKey(i % 8));
      database.Submit(std::move(w), at);
      at += 13;
    }
    return database.Drain();
  };
  DatabaseStats off = run(false);
  DatabaseStats on = run(true);
  // The workload has no read-only transactions, so the flag changes
  // nothing at all — and the off run must keep the new buckets at zero.
  EXPECT_EQ(off, on);
  EXPECT_EQ(off.read_only_committed, 0);
  EXPECT_EQ(off.snapshot_reads_served, 0);
}

struct PlacementResult {
  DatabaseStats stats;
  uint64_t fingerprint = 0;
  int64_t sum = 0;
};

PlacementResult RunPlacement(ConcurrencyMode mode, int shards, int threads,
                             bool partition_parallel, bool lookahead) {
  Database::Options options;
  options.num_partitions = 8;
  options.concurrency = mode;
  options.snapshot_reads = true;
  options.num_shards = shards;
  options.num_threads = threads;
  options.partition_parallel = partition_parallel;
  options.conflict_lookahead = lookahead;
  options.check_invariants = true;
  options.max_inflight = 64;
  Database database(options);

  TrafficOptions traffic;
  traffic.process = ArrivalProcess::kPoisson;
  traffic.mean_gap = 12.0;
  traffic.num_arrivals = 400;
  traffic.num_keys = 64;
  traffic.shape = TxShape::kTransferPair;
  traffic.read_fraction = 0.5;
  traffic.reads_per_tx = 3;
  traffic.zipf_exponent = 0.9;
  traffic.seed = 42;
  TrafficEngine engine(traffic);
  database.SubmitArrivals(&engine);

  PlacementResult result;
  result.stats = database.Drain();
  result.fingerprint = database.read_fingerprint();
  result.sum = database.SumInts();
  return result;
}

void ExpectPlacementInvariant(ConcurrencyMode mode) {
  PlacementResult reference =
      RunPlacement(mode, /*shards=*/1, /*threads=*/1,
                   /*partition_parallel=*/false, /*lookahead=*/false);
  EXPECT_GT(reference.stats.read_only_committed, 0);
  EXPECT_GT(reference.stats.committed, 0);
  for (int shards : {1, 2, 8}) {
    for (int threads : {1, 4}) {
      for (bool lookahead : {false, true}) {
        PlacementResult placed =
            RunPlacement(mode, shards, threads,
                         /*partition_parallel=*/true, lookahead);
        // Stats AND the read-result fingerprint: every snapshot read
        // returned bitwise the same values in the same order, whatever
        // the placement or barrier schedule.
        EXPECT_EQ(placed.stats, reference.stats)
            << "shards=" << shards << " threads=" << threads
            << " lookahead=" << lookahead;
        EXPECT_EQ(placed.fingerprint, reference.fingerprint)
            << "shards=" << shards << " threads=" << threads
            << " lookahead=" << lookahead;
        EXPECT_EQ(placed.sum, reference.sum);
      }
    }
  }
}

TEST(DatabaseSnapshotTest, PlacementDeterminismUnder2pl) {
  ExpectPlacementInvariant(ConcurrencyMode::k2PL);
}

TEST(DatabaseSnapshotTest, PlacementDeterminismUnderOcc) {
  ExpectPlacementInvariant(ConcurrencyMode::kOCC);
}

TEST(DatabaseSnapshotTest, OutcomeBucketsPartitionEverySubmission) {
  // committed + aborted + shed + read_only_committed == offered for a pure
  // open-loop run — the accounting invariant the fuzz harness sweeps.
  Database::Options options;
  options.num_partitions = 4;
  options.snapshot_reads = true;
  options.max_inflight = 8;
  Database database(options);
  TrafficOptions traffic;
  traffic.mean_gap = 2.0;  // saturating: some arrivals must shed
  traffic.num_arrivals = 300;
  traffic.num_keys = 16;
  traffic.read_fraction = 0.6;
  traffic.seed = 7;
  TrafficEngine engine(traffic);
  database.SubmitArrivals(&engine);
  const DatabaseStats& stats = database.Drain();
  EXPECT_EQ(stats.offered, 300);
  EXPECT_EQ(stats.committed + stats.aborted + stats.shed +
                stats.read_only_committed,
            300);
}

}  // namespace
}  // namespace fastcommit::db
