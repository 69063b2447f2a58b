// Tests of the transactional KV substrate: storage, locks, participants,
// end-to-end transactions over each commit protocol, invariants under
// contention.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "db/database.h"
#include "db/kv_store.h"
#include "db/lock_manager.h"
#include "db/participant.h"
#include "db/workload.h"

namespace fastcommit::db {
namespace {

// -------------------------------------------------------------- KvStore --

TEST(KvStoreTest, PutGetErase) {
  KvStore store;
  EXPECT_FALSE(store.Get("a").has_value());
  store.Put("a", "1");
  EXPECT_EQ(store.Get("a"), "1");
  store.Put("a", "2");
  EXPECT_EQ(store.Get("a"), "2");
  EXPECT_TRUE(store.Erase("a"));
  EXPECT_FALSE(store.Erase("a"));
  EXPECT_EQ(store.size(), 0u);
}

TEST(KvStoreTest, AddIntArithmetic) {
  KvStore store;
  EXPECT_EQ(store.AddInt("x", 5), 5);
  EXPECT_EQ(store.AddInt("x", -2), 3);
  EXPECT_EQ(store.GetInt("x"), 3);
  EXPECT_EQ(store.GetInt("missing"), 0);
  store.Put("y", "40");
  EXPECT_EQ(store.SumInts(), 43);
}

TEST(KvStoreTest, EraseThenReinsert) {
  KvStore store;
  store.Put("a", "1");
  store.Put("b", "2");
  store.Put("c", "3");
  EXPECT_TRUE(store.Erase("b"));
  store.CheckInvariants();
  EXPECT_FALSE(store.Get("b").has_value());
  EXPECT_EQ(store.versions("b"), 0);
  store.Apply(Transaction::Add("b", 7), /*csn=*/4);
  store.CheckInvariants();
  EXPECT_EQ(store.Get("b"), "7");  // the erased value is not the base
  EXPECT_FALSE(store.GetAtSnapshot("b", 3).has_value());
  EXPECT_EQ(store.Get("a"), "1");
  EXPECT_EQ(store.Get("c"), "3");
  EXPECT_EQ(store.size(), 3u);
  EXPECT_EQ(store.total_versions(), 3);
  EXPECT_EQ(store.SumInts(), 11);
}

TEST(KvStoreTest, EraseFirstAndLastEntries) {
  // 513 keys: the last one opens a second entry chunk.
  KvStore store;
  const int kKeys = 513;
  for (int i = 0; i < kKeys; ++i) store.Put("k" + std::to_string(i), "1");
  store.Apply(Transaction::Add("k0", 1), /*csn=*/1);  // two versions
  store.CheckInvariants();
  EXPECT_EQ(store.total_versions(), kKeys + 1);

  EXPECT_TRUE(store.Erase("k" + std::to_string(kKeys - 1)));  // last
  store.CheckInvariants();
  EXPECT_TRUE(store.Erase("k0"));  // first: the last entry moves into it
  store.CheckInvariants();
  EXPECT_EQ(store.size(), static_cast<size_t>(kKeys - 2));
  EXPECT_EQ(store.total_versions(), kKeys - 2);
  EXPECT_FALSE(store.Get("k0").has_value());
  EXPECT_FALSE(store.Get("k" + std::to_string(kKeys - 1)).has_value());
  for (int i = 1; i < kKeys - 1; ++i) {
    EXPECT_EQ(store.Get("k" + std::to_string(i)), "1") << i;
  }
  EXPECT_EQ(store.SumInts(), kKeys - 2);

  // Emptying the store and refilling it reuses everything.
  for (int i = 1; i < kKeys - 1; ++i) {
    EXPECT_TRUE(store.Erase("k" + std::to_string(i))) << i;
  }
  store.CheckInvariants();
  EXPECT_EQ(store.size(), 0u);
  EXPECT_EQ(store.total_versions(), 0);
  store.Put("k0", "5");
  store.CheckInvariants();
  EXPECT_EQ(store.Get("k0"), "5");
  EXPECT_EQ(store.size(), 1u);
}

TEST(KvStoreTest, CopyMutatesIndependentlyOfItsSource) {
  KvStore source;
  for (int i = 0; i < 600; ++i) source.Put("k" + std::to_string(i), "1");
  source.Apply(Transaction::Put("k1", "2"), /*csn=*/1);

  KvStore copy = source;
  copy.CheckInvariants();
  copy.Put("k0", "9");
  copy.Apply(Transaction::Add("k1", 5), /*csn=*/2);
  EXPECT_TRUE(copy.Erase("k2"));
  copy.Put("fresh", "4");
  copy.CheckInvariants();

  source.CheckInvariants();
  EXPECT_EQ(source.Get("k0"), "1");
  EXPECT_EQ(source.Get("k1"), "2");
  EXPECT_EQ(source.versions("k1"), 2);
  EXPECT_EQ(source.Get("k2"), "1");
  EXPECT_FALSE(source.Get("fresh").has_value());
  EXPECT_EQ(source.size(), 600u);
  EXPECT_EQ(source.total_versions(), 601);

  EXPECT_EQ(copy.Get("k0"), "9");
  EXPECT_EQ(copy.Get("k1"), "7");
  EXPECT_EQ(copy.GetAtSnapshot("k1", 1), "2");
  EXPECT_FALSE(copy.Get("k2").has_value());
  EXPECT_EQ(copy.Get("fresh"), "4");
  EXPECT_EQ(copy.size(), 600u);
  EXPECT_EQ(copy.total_versions(), 602);

  // Assignment copies too, and later source writes stay out of it.
  KvStore assigned;
  assigned.Put("gone", "1");
  assigned = source;
  source.Put("k3", "8");
  assigned.CheckInvariants();
  EXPECT_FALSE(assigned.Get("gone").has_value());
  EXPECT_EQ(assigned.Get("k3"), "1");
  EXPECT_EQ(assigned.size(), 600u);

  // A move takes everything and leaves the source empty and usable.
  KvStore moved = std::move(assigned);
  EXPECT_EQ(moved.Get("k3"), "1");
  EXPECT_EQ(moved.size(), 600u);
  moved.CheckInvariants();
  EXPECT_EQ(assigned.size(), 0u);  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(assigned.total_versions(), 0);
  assigned.Put("again", "1");
  assigned.CheckInvariants();
  EXPECT_EQ(assigned.Get("again"), "1");
}

// Everything a reader can observe of `a` and `b` over `keys`, compared:
// size, version count, each key's head, chain length and the version a
// snapshot at every CSN up to `max_csn` resolves to; both stores must also
// pass their own invariant sweep.
void ExpectSameStore(const KvStore& a, const KvStore& b,
                     const std::vector<Key>& keys, int64_t max_csn) {
  a.CheckInvariants();
  b.CheckInvariants();
  ASSERT_EQ(a.size(), b.size());
  ASSERT_EQ(a.total_versions(), b.total_versions());
  EXPECT_EQ(a.SumInts(), b.SumInts());
  for (const Key& key : keys) {
    ASSERT_EQ(a.Get(key), b.Get(key)) << key;
    ASSERT_EQ(a.versions(key), b.versions(key)) << key;
    for (int64_t csn = 0; csn <= max_csn; ++csn) {
      ASSERT_EQ(a.GetAtSnapshot(key, csn), b.GetAtSnapshot(key, csn))
          << key << " at " << csn;
    }
  }
}

std::vector<Key> NumberedKeys(int count) {
  std::vector<Key> keys;
  for (int i = 0; i < count; ++i) keys.push_back("k" + std::to_string(i));
  return keys;
}

TEST(KvStoreTest, PrefetchHintsLeaveTheStoreUnchanged) {
  // Empty store: no index to touch, and the tag is still the key's.
  KvStore empty;
  uint32_t tag = empty.PrefetchSlot("a");
  EXPECT_EQ(tag, KvStore::Tag("a"));
  empty.PrefetchEntry(tag);
  ExpectSameStore(empty, KvStore(), {"a"}, 1);
  KvStore plain;
  empty.Apply(Transaction::Add("a", 3), tag, /*csn=*/1, /*gc_watermark=*/0);
  plain.Apply(Transaction::Add("a", 3), /*csn=*/1);
  ExpectSameStore(empty, plain, {"a"}, 1);

  // Absent key: stage 2 stops at the empty slot ending its probe.
  std::vector<Key> keys = NumberedKeys(100);
  keys.push_back("missing");
  KvStore hinted;
  for (int i = 0; i < 100; ++i) hinted.Put(keys[static_cast<size_t>(i)], "1");
  plain = hinted;
  tag = hinted.PrefetchSlot("missing");
  hinted.PrefetchEntry(tag);
  for (int i = 0; i < 100; i += 7) {
    hinted.PrefetchEntry(hinted.PrefetchSlot(keys[static_cast<size_t>(i)]));
  }
  ExpectSameStore(hinted, plain, keys, 2);
  hinted.Apply(Transaction::Add("missing", 5), tag, 2, 0);
  plain.Apply(Transaction::Add("missing", 5), 2);
  ExpectSameStore(hinted, plain, keys, 2);
}

TEST(KvStoreTest, PrefetchHintsSurviveGrowAndErase) {
  // Tags taken before a Grow (8 keys fill the 16-slot index; the 9th
  // doubles it) stay valid after it: they name keys, not slots.
  std::vector<Key> keys = NumberedKeys(40);
  keys.push_back("fresh");
  KvStore hinted;
  for (int i = 0; i < 8; ++i) hinted.Put(keys[static_cast<size_t>(i)], "1");
  KvStore plain = hinted;
  uint32_t present = hinted.PrefetchSlot("k3");
  uint32_t fresh = hinted.PrefetchSlot("fresh");
  hinted.PrefetchEntry(present);
  for (int i = 8; i < 40; ++i) {
    hinted.Put(keys[static_cast<size_t>(i)], "1");
    plain.Put(keys[static_cast<size_t>(i)], "1");
  }
  hinted.PrefetchEntry(present);
  hinted.PrefetchEntry(fresh);
  hinted.Apply(Transaction::Add("k3", 2), present, 1, 0);
  hinted.Apply(Transaction::Put("fresh", "9"), fresh, 1, 0);
  plain.Apply(Transaction::Add("k3", 2), 1);
  plain.Apply(Transaction::Put("fresh", "9"), 1);
  ExpectSameStore(hinted, plain, keys, 1);

  // An Erase moves the last entry into the hole: a hint taken for the
  // moved key before the Erase still leads Apply to it afterwards.
  const Key& last = keys[39];
  uint32_t moved = hinted.PrefetchSlot(last);
  hinted.PrefetchEntry(moved);
  EXPECT_TRUE(hinted.Erase("k0"));
  EXPECT_TRUE(plain.Erase("k0"));
  hinted.PrefetchEntry(moved);
  ExpectSameStore(hinted, plain, keys, 2);
  hinted.Apply(Transaction::Add(last, 4), moved, 2, 2);
  plain.Apply(Transaction::Add(last, 4), 2, 2);
  ExpectSameStore(hinted, plain, keys, 2);
  EXPECT_EQ(hinted.GetInt(last), 5);
}

TEST(KvStoreTest, TaggedApplyMatchesUntaggedApply) {
  // Differential over a random op stream: one store applies through the
  // two-stage hints and the staged tags, the other through the plain
  // Apply. Transactions of 1-3 ops (a second op on a key updates the same
  // version), kPut/kAdd/kGet, keys preloaded, later-inserted and brand
  // new, with the GC watermark off and trailing the commit CSN.
  for (bool live_watermark : {false, true}) {
    std::mt19937_64 rng(live_watermark ? 11 : 7);
    std::vector<Key> keys = NumberedKeys(200);
    KvStore hinted;
    for (int i = 0; i < 100; ++i) hinted.Put(keys[static_cast<size_t>(i)], "1");
    KvStore plain = hinted;
    int64_t watermark = 0;
    const int64_t kCommits = 1500;
    for (int64_t csn = 1; csn <= kCommits; ++csn) {
      std::vector<Op> ops;
      int count = 1 + static_cast<int>(rng() % 3);
      for (int i = 0; i < count; ++i) {
        Key key;
        if (rng() % 10 == 0) {
          key = "new" + std::to_string(csn) + "_" + std::to_string(i);
          keys.push_back(key);
        } else {
          key = keys[rng() % 200];
        }
        switch (rng() % 3) {
          case 0:
            ops.push_back(Transaction::Put(key, std::to_string(rng() % 100)));
            break;
          case 1:
            ops.push_back(
                Transaction::Add(key, static_cast<int64_t>(rng() % 9) - 4));
            break;
          default:
            ops.push_back(Transaction::Get(key));
            break;
        }
      }
      if (live_watermark) {
        watermark = std::max(watermark, csn - static_cast<int64_t>(rng() % 6));
      }
      std::vector<uint32_t> tags;
      for (const Op& op : ops) tags.push_back(hinted.PrefetchSlot(op.key));
      for (uint32_t tag : tags) hinted.PrefetchEntry(tag);
      for (size_t i = 0; i < ops.size(); ++i) {
        hinted.Apply(ops[i], tags[i], csn, watermark);
        plain.Apply(ops[i], csn, watermark);
      }
      if (csn % 500 == 0) ExpectSameStore(hinted, plain, keys, csn);
    }
    EXPECT_GT(hinted.size(), 200u);
    if (live_watermark) {
      EXPECT_GT(hinted.total_versions(), static_cast<int64_t>(hinted.size()));
    }
  }
}

// ---------------------------------------------------------- LockManager --

TEST(LockManagerTest, SharedLocksCoexist) {
  LockManager locks;
  EXPECT_TRUE(locks.TryLockShared("k", 1));
  EXPECT_TRUE(locks.TryLockShared("k", 2));
  EXPECT_FALSE(locks.TryLockExclusive("k", 3));
}

TEST(LockManagerTest, ExclusiveExcludes) {
  LockManager locks;
  EXPECT_TRUE(locks.TryLockExclusive("k", 1));
  EXPECT_FALSE(locks.TryLockExclusive("k", 2));
  EXPECT_FALSE(locks.TryLockShared("k", 2));
  EXPECT_TRUE(locks.TryLockShared("k", 1));  // owner reads its own write
}

TEST(LockManagerTest, UpgradeOnlyForSoleOwner) {
  LockManager locks;
  EXPECT_TRUE(locks.TryLockShared("k", 1));
  EXPECT_TRUE(locks.TryLockExclusive("k", 1));  // sole shared owner upgrades
  locks.ReleaseAll(1);
  EXPECT_TRUE(locks.TryLockShared("k", 1));
  EXPECT_TRUE(locks.TryLockShared("k", 2));
  EXPECT_FALSE(locks.TryLockExclusive("k", 1));  // contended upgrade fails
}

TEST(LockManagerTest, ReleaseAllFreesEverything) {
  LockManager locks;
  EXPECT_TRUE(locks.TryLockExclusive("a", 1));
  EXPECT_TRUE(locks.TryLockExclusive("b", 1));
  EXPECT_EQ(locks.held_locks(), 2);
  locks.ReleaseAll(1);
  EXPECT_EQ(locks.held_locks(), 0);
  EXPECT_TRUE(locks.TryLockExclusive("a", 2));
  EXPECT_TRUE(locks.TryLockExclusive("b", 2));
}

TEST(LockManagerTest, ReleaseUnknownTxIsNoop) {
  LockManager locks;
  locks.ReleaseAll(42);
  EXPECT_EQ(locks.held_locks(), 0);
}

// ---------------------------------------------------------- Participant --

TEST(ParticipantTest, PrepareVotesYesAndStagesWrites) {
  Participant p(0);
  std::vector<Op> ops = {Transaction::Add("a", 10)};
  EXPECT_EQ(p.Prepare(1, ops), commit::Vote::kYes);
  EXPECT_EQ(p.store().GetInt("a"), 0) << "writes must not apply before commit";
  p.Finish(1, commit::Decision::kCommit);
  EXPECT_EQ(p.store().GetInt("a"), 10);
}

TEST(ParticipantTest, PrefetchedCommitAppliesStagedWrites) {
  Participant p(0);
  p.store().Put("a", "5");
  p.PrefetchFinish(1);  // nothing staged yet: a no-op
  std::vector<Op> ops = {Transaction::Add("a", 10), Transaction::Get("b"),
                         Transaction::Put("c", "7")};
  EXPECT_EQ(p.Prepare(1, ops), commit::Vote::kYes);
  p.CheckInvariants();  // the staged tags are the keys' own
  p.PrefetchFinish(1);
  EXPECT_EQ(p.store().GetInt("a"), 5) << "a hint must not apply anything";
  p.Finish(1, commit::Decision::kCommit, /*csn=*/3);
  p.PrefetchFinish(1);  // finished: a no-op again
  EXPECT_EQ(p.store().GetInt("a"), 15);
  EXPECT_EQ(p.store().Get("c"), "7");
  EXPECT_FALSE(p.store().Get("b").has_value());
  EXPECT_EQ(p.store().versions("a"), 2);
  p.CheckInvariants();
}

TEST(ParticipantTest, AbortDiscardsStagedWrites) {
  Participant p(0);
  std::vector<Op> ops = {Transaction::Put("a", "v")};
  EXPECT_EQ(p.Prepare(1, ops), commit::Vote::kYes);
  p.Finish(1, commit::Decision::kAbort);
  EXPECT_FALSE(p.store().Get("a").has_value());
  // Locks were released: another transaction proceeds.
  EXPECT_EQ(p.Prepare(2, ops), commit::Vote::kYes);
}

TEST(ParticipantTest, ConflictVotesNoHeliosStyle) {
  Participant p(0);
  std::vector<Op> ops = {Transaction::Add("a", 1)};
  EXPECT_EQ(p.Prepare(1, ops), commit::Vote::kYes);
  EXPECT_EQ(p.Prepare(2, ops), commit::Vote::kNo);
  EXPECT_EQ(p.conflicts(), 1);
  p.Finish(1, commit::Decision::kCommit);
  EXPECT_EQ(p.Prepare(3, ops), commit::Vote::kYes);
}

TEST(ParticipantTest, FailedPrepareHoldsNoLocks) {
  Participant p(0);
  EXPECT_EQ(p.Prepare(1, {Transaction::Add("a", 1)}), commit::Vote::kYes);
  // Tx 2 conflicts on "a" after locking "b": its "b" lock must be dropped.
  EXPECT_EQ(p.Prepare(2, {Transaction::Add("b", 1), Transaction::Add("a", 1)}),
            commit::Vote::kNo);
  EXPECT_EQ(p.Prepare(3, {Transaction::Add("b", 1)}), commit::Vote::kYes);
}

// -------------------------------------------------------------- Database --

Database::Options DbOptions(core::ProtocolKind protocol, int partitions = 4) {
  Database::Options options;
  options.num_partitions = partitions;
  options.protocol = protocol;
  return options;
}

TEST(DatabaseTest, SinglePartitionTransactionCommitsLocally) {
  Database database(DbOptions(core::ProtocolKind::kInbac, 1));
  Transaction tx;
  tx.id = 1;
  tx.ops = {Transaction::Add("a", 7)};
  EXPECT_EQ(database.Execute(tx), commit::Decision::kCommit);
  EXPECT_EQ(database.GetInt("a"), 7);
  EXPECT_EQ(database.stats().single_partition, 1);
  EXPECT_EQ(database.stats().commit_messages, 0);
}

TEST(DatabaseTest, CrossPartitionTransactionRunsTheProtocol) {
  Database database(DbOptions(core::ProtocolKind::kInbac, 8));
  Transaction tx;
  tx.id = 1;
  // Enough distinct keys that at least two partitions are touched.
  for (int i = 0; i < 8; ++i) {
    tx.ops.push_back(Transaction::Add(ItemKey(i), 1));
  }
  EXPECT_EQ(database.Execute(tx), commit::Decision::kCommit);
  EXPECT_GT(database.stats().commit_messages, 0);
  EXPECT_EQ(database.SumInts(), 8);
}

class DatabaseProtocolTest
    : public ::testing::TestWithParam<core::ProtocolKind> {};

TEST_P(DatabaseProtocolTest, TransferWorkloadConservesTotalBalance) {
  Database database(DbOptions(GetParam(), 5));
  const int kAccounts = 40;
  const int64_t kInitial = 1000;
  for (int a = 0; a < kAccounts; ++a) {
    database.LoadInt(AccountKey(a), kInitial);
  }
  auto txs = MakeTransferWorkload(60, kAccounts, 50, 99);
  sim::Time at = 0;
  for (auto& tx : txs) {
    database.Submit(std::move(tx), at);
    at += 40;  // staggered arrivals: some overlap, some not
  }
  const DatabaseStats& stats = database.Drain();
  EXPECT_EQ(database.SumInts(), kAccounts * kInitial)
      << "transfers must conserve total balance";
  EXPECT_EQ(stats.committed + stats.aborted, 60);
  EXPECT_GT(stats.committed, 0);
}

INSTANTIATE_TEST_SUITE_P(
    CommitProtocols, DatabaseProtocolTest,
    ::testing::Values(core::ProtocolKind::kInbac, core::ProtocolKind::kTwoPc,
                      core::ProtocolKind::kOneNbac,
                      core::ProtocolKind::kChainAckNbac,
                      core::ProtocolKind::kPaxosCommit,
                      core::ProtocolKind::kFasterPaxosCommit,
                      core::ProtocolKind::kThreePc,
                      core::ProtocolKind::kBcastNbac),
    [](const ::testing::TestParamInfo<core::ProtocolKind>& info) {
      std::string name = core::ProtocolName(info.param);
      std::string clean;
      for (char ch : name) {
        if (std::isalnum(static_cast<unsigned char>(ch))) clean += ch;
      }
      return clean;
    });

TEST(DatabaseTest, HotspotWorkloadProducesRetriesButStaysCorrect) {
  Database::Options options = DbOptions(core::ProtocolKind::kInbac, 4);
  options.max_attempts = 4;
  Database database(options);
  auto txs = MakeHotspotWorkload(80, 50, 3, 2, 0.8, 7);
  // Slam them all in at once to maximize contention.
  for (auto& tx : txs) database.Submit(std::move(tx), 0);
  const DatabaseStats& stats = database.Drain();
  EXPECT_GT(stats.retries, 0) << "hotspot contention should cause aborts";
  EXPECT_EQ(stats.committed + stats.aborted, 80);
  // Each committed Add(+1) is applied exactly once.
  int64_t expected = 0;
  EXPECT_GE(database.SumInts(), 0);
  (void)expected;
}

TEST(DatabaseTest, CommittedAddsApplyExactlyOnce) {
  Database database(DbOptions(core::ProtocolKind::kInbac, 4));
  auto txs = MakeReadModifyWriteWorkload(50, 30, 3, 5);
  for (auto& tx : txs) database.Submit(std::move(tx), 0);
  const DatabaseStats& stats = database.Drain();
  // Sum of all values equals 3 increments per committed transaction.
  EXPECT_EQ(database.SumInts(), 3 * stats.committed);
}

TEST(DatabaseTest, LatencyReflectsProtocolDelayCount) {
  // INBAC commits multi-partition transactions in 2U; PaxosCommit in 3U.
  auto run = [](core::ProtocolKind kind) {
    Database database(DbOptions(kind, 2));
    Transaction tx;
    tx.id = 1;
    for (int i = 0; i < 8; ++i) {
      tx.ops.push_back(Transaction::Add(ItemKey(i), 1));
    }
    database.Execute(tx);
    return database.stats().latency.sample().at(0);
  };
  EXPECT_EQ(run(core::ProtocolKind::kInbac), 200);
  EXPECT_EQ(run(core::ProtocolKind::kPaxosCommit), 300);
}

TEST(DatabaseStatsTest, PercentileAndMean) {
  DatabaseStats stats;
  for (sim::Time t : {100, 200, 300, 400}) stats.latency.Record(t);
  EXPECT_DOUBLE_EQ(stats.MeanLatency(), 250.0);
  EXPECT_EQ(stats.PercentileLatency(0), 100);
  EXPECT_EQ(stats.PercentileLatency(100), 400);
  EXPECT_GE(stats.PercentileLatency(50), 200);
}

TEST(DatabaseStatsTest, LatencyMemoryIsBounded) {
  LatencyStats latency;
  const int64_t kRecords = 3 * LatencyStats::kReservoirCapacity;
  for (int64_t i = 1; i <= kRecords; ++i) latency.Record(i);
  EXPECT_EQ(latency.count(), kRecords);
  EXPECT_EQ(static_cast<int64_t>(latency.sample().size()),
            LatencyStats::kReservoirCapacity);
  // The mean stays exact even past the reservoir capacity.
  EXPECT_DOUBLE_EQ(latency.Mean(), static_cast<double>(kRecords + 1) / 2.0);
  EXPECT_EQ(latency.Min(), 1);
  EXPECT_EQ(latency.Max(), kRecords);
  // The sampled percentiles approximate the true uniform distribution.
  EXPECT_NEAR(static_cast<double>(latency.Percentile(50)),
              static_cast<double>(kRecords) / 2.0,
              static_cast<double>(kRecords) * 0.1);
}

TEST(WorkloadTest, TransferWorkloadShapes) {
  auto txs = MakeTransferWorkload(10, 5, 20, 3);
  ASSERT_EQ(txs.size(), 10u);
  for (const auto& tx : txs) {
    ASSERT_EQ(tx.ops.size(), 2u);
    EXPECT_EQ(tx.ops[0].delta + tx.ops[1].delta, 0) << "transfer must net 0";
    EXPECT_NE(tx.ops[0].key, tx.ops[1].key);
  }
}

TEST(WorkloadTest, HotspotSkewsTowardHotKeys) {
  auto txs = MakeHotspotWorkload(200, 100, 1, 2, 0.9, 11);
  int hot = 0;
  for (const auto& tx : txs) {
    if (tx.ops[0].key == ItemKey(0) || tx.ops[0].key == ItemKey(1)) ++hot;
  }
  EXPECT_GT(hot, 140);
}

// Regression: hot_keys == num_keys is a valid configuration (the FC_CHECK
// allows it) but the cold branch then drew UniformInt over the empty range
// [num_keys, num_keys - 1] — a modulo by zero. Every op must be hot and in
// range, even when the hot probability is 0.
TEST(WorkloadTest, HotspotAllKeysHotHasNoColdRange) {
  for (double hot_probability : {0.0, 0.5, 1.0}) {
    auto txs = MakeHotspotWorkload(100, 10, 2, /*hot_keys=*/10,
                                   hot_probability, 13);
    ASSERT_EQ(txs.size(), 100u);
    for (const auto& tx : txs) {
      for (const auto& op : tx.ops) {
        bool in_range = false;
        for (int item = 0; item < 10; ++item) {
          if (op.key == ItemKey(item)) in_range = true;
        }
        EXPECT_TRUE(in_range) << "key out of range: " << op.key;
      }
    }
  }
}

TEST(WorkloadTest, ReadModifyWriteEmitsReadsBeforeWrites) {
  auto txs = MakeReadModifyWriteWorkload(20, 30, 3, 5);
  ASSERT_EQ(txs.size(), 20u);
  for (const auto& tx : txs) {
    ASSERT_EQ(tx.ops.size(), 6u) << "Get + Add per selected item";
    for (size_t i = 0; i < tx.ops.size(); i += 2) {
      EXPECT_EQ(tx.ops[i].type, Op::Type::kGet);
      EXPECT_EQ(tx.ops[i + 1].type, Op::Type::kAdd);
      EXPECT_EQ(tx.ops[i].key, tx.ops[i + 1].key)
          << "the read and its modify-write must target the same key";
    }
  }
}

// Golden routing vector: PartitionOf is in-repo FNV-1a over the key bytes,
// fully specified and therefore identical on every platform and standard
// library (std::hash, which it replaced, is implementation-defined and
// routed differently across libstdc++/libc++ — silently breaking
// cross-platform reproducibility of every stat).
TEST(DatabaseTest, PartitionRoutingMatchesGoldenVector) {
  Database five(DbOptions(core::ProtocolKind::kInbac, 5));
  const int kGoldenAcct5[] = {0, 1, 2, 3, 4, 0, 1, 2};
  const int kGoldenItem5[] = {0, 1, 2, 3, 1, 2, 3, 4};
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(five.PartitionOf(AccountKey(i)), kGoldenAcct5[i])
        << AccountKey(i);
    EXPECT_EQ(five.PartitionOf(ItemKey(i)), kGoldenItem5[i]) << ItemKey(i);
  }

  Database eight(DbOptions(core::ProtocolKind::kInbac, 8));
  const int kGoldenAcct8[] = {0, 3, 6, 1, 4, 7, 2, 5};
  const int kGoldenItem8[] = {4, 7, 2, 5, 0, 3, 6, 1};
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(eight.PartitionOf(AccountKey(i)), kGoldenAcct8[i])
        << AccountKey(i);
    EXPECT_EQ(eight.PartitionOf(ItemKey(i)), kGoldenItem8[i]) << ItemKey(i);
  }
}

}  // namespace
}  // namespace fastcommit::db
