// OCC execution mode (ConcurrencyMode::kOCC): Participant-level
// read-probe / validate semantics against the shared lock table (read-only
// fast path, readers invisible to writers, write skew, duplicate write
// keys, abort rollback), and Database-level gates — conflict-free traffic
// must produce bitwise the same stats as 2PL, contended traffic must fill
// exactly the validation-failure abort bucket, and the bank invariant must
// survive OCC commits.

#include <gtest/gtest.h>

#include "commit/commit_protocol.h"
#include "db/database.h"
#include "db/participant.h"
#include "db/workload.h"

namespace fastcommit::db {
namespace {

TEST(ParticipantOccTest, ReadOnlyFastPathLeavesNoFootprint) {
  Participant p(0, ConcurrencyMode::kOCC);
  EXPECT_EQ(p.Prepare(1, {Transaction::Get("a"), Transaction::Get("b")}),
            commit::Vote::kYes);
  // Nothing staged and no lock entry at all — not even an empty one from
  // the read probe: the reader's Finish is a true no-op whichever
  // decision arrives.
  EXPECT_EQ(p.locks().size(), 0u);
  EXPECT_EQ(p.locks().held_by(1), 0);
  p.CheckInvariants();
  p.Finish(1, commit::Decision::kCommit);
  p.CheckInvariants();
}

TEST(ParticipantOccTest, ReadersDoNotBlockWriters) {
  Participant p(0, ConcurrencyMode::kOCC);
  ASSERT_EQ(p.Prepare(1, {Transaction::Get("k")}), commit::Vote::kYes);
  // The in-flight reader holds nothing, so a writer of its key prepares
  // (2PL would refuse it: reader-blocks-writer).
  EXPECT_EQ(p.Prepare(2, {Transaction::Put("k", "v")}), commit::Vote::kYes);
  EXPECT_EQ(p.conflicts(), 0);
  EXPECT_TRUE(p.locks().HoldsExclusive("k", 2));
  p.CheckInvariants();
  p.Finish(2, commit::Decision::kCommit);
  p.Finish(1, commit::Decision::kCommit);
  EXPECT_EQ(p.locks().size(), 0u);
}

TEST(ParticipantOccTest, ReadModifyWriteValidatesAgainstOwnLock) {
  Participant p(0, ConcurrencyMode::kOCC);
  // Get + Add on one key, in both orders: the read validates against the
  // transaction's own exclusive lock.
  EXPECT_EQ(p.Prepare(1, {Transaction::Get("k"), Transaction::Add("k", 5)}),
            commit::Vote::kYes);
  EXPECT_EQ(p.Prepare(2, {Transaction::Add("j", 1), Transaction::Get("j")}),
            commit::Vote::kYes);
  EXPECT_EQ(p.locks().held_by(1), 1);
  EXPECT_TRUE(p.locks().HoldsExclusive("k", 1));
  p.CheckInvariants();
  p.Finish(1, commit::Decision::kCommit);
  p.Finish(2, commit::Decision::kCommit);
  EXPECT_EQ(p.store().GetInt("k"), 5);
  EXPECT_EQ(p.store().GetInt("j"), 1);
  EXPECT_EQ(p.locks().size(), 0u);
  p.CheckInvariants();
}

TEST(ParticipantOccTest, ReaderFailsValidationWhileWriterHoldsLock) {
  Participant p(0, ConcurrencyMode::kOCC);
  ASSERT_EQ(p.Prepare(1, {Transaction::Put("k", "v")}), commit::Vote::kYes);
  // In-flight writer lock on k: the reader's validation must refuse.
  EXPECT_EQ(p.Prepare(2, {Transaction::Get("k")}), commit::Vote::kNo);
  EXPECT_EQ(p.conflicts(), 1);
  p.Finish(1, commit::Decision::kCommit);
  // After the commit released the lock the same read validates.
  EXPECT_EQ(p.Prepare(2, {Transaction::Get("k")}), commit::Vote::kYes);
  p.Finish(2, commit::Decision::kCommit);
  EXPECT_EQ(p.locks().size(), 0u);
  p.CheckInvariants();
}

TEST(ParticipantOccTest, WriteSkewSecondTransactionRefused) {
  Participant p(0, ConcurrencyMode::kOCC);
  // T1 reads a, writes b; T2 reads b, writes a. T1 holds b's exclusive
  // lock when T2 validates its read of b, so T2 votes No — the classic
  // write skew is refused, not silently committed.
  ASSERT_EQ(
      p.Prepare(1, {Transaction::Get("a"), Transaction::Put("b", "1")}),
      commit::Vote::kYes);
  EXPECT_EQ(
      p.Prepare(2, {Transaction::Get("b"), Transaction::Put("a", "2")}),
      commit::Vote::kNo);
  // T2's rollback must have dropped its own lock on a.
  EXPECT_EQ(p.locks().ExclusiveOwner("a"), -1);
  EXPECT_EQ(p.locks().held_by(2), 0);
  p.CheckInvariants();
  p.Finish(1, commit::Decision::kCommit);
  p.CheckInvariants();
}

TEST(ParticipantOccTest, DuplicateWriteKeysLockOnce) {
  Participant p(0, ConcurrencyMode::kOCC);
  ASSERT_EQ(p.Prepare(1, {Transaction::Add("k", 1), Transaction::Add("k", 2)}),
            commit::Vote::kYes);
  EXPECT_EQ(p.locks().held_by(1), 1);  // one lock record for the key...
  p.CheckInvariants();
  p.Finish(1, commit::Decision::kCommit);
  EXPECT_EQ(p.store().GetInt("k"), 3);  // ...but both ops applied
  EXPECT_EQ(p.locks().size(), 0u);
  p.CheckInvariants();
}

TEST(ParticipantOccTest, AbortUnlocksWithoutApplying) {
  Participant p(0, ConcurrencyMode::kOCC);
  ASSERT_EQ(p.Prepare(1, {Transaction::Put("k", "v")}), commit::Vote::kYes);
  p.Finish(1, commit::Decision::kAbort);
  EXPECT_EQ(p.store().Get("k"), std::nullopt);
  EXPECT_EQ(p.locks().size(), 0u);  // the entry is erased entirely
  p.Finish(1, commit::Decision::kAbort);  // idempotent double finish
  p.CheckInvariants();
}

TEST(ParticipantOccTest, WriterWriterNoWaitConflict) {
  Participant p(0, ConcurrencyMode::kOCC);
  ASSERT_EQ(p.Prepare(1, {Transaction::Add("k", 1)}), commit::Vote::kYes);
  EXPECT_EQ(p.Prepare(2, {Transaction::Add("k", 1)}), commit::Vote::kNo);
  EXPECT_EQ(p.conflicts(), 1);
  p.Finish(1, commit::Decision::kCommit);
  EXPECT_EQ(p.Prepare(2, {Transaction::Add("k", 1)}), commit::Vote::kYes);
  p.Finish(2, commit::Decision::kCommit);
  EXPECT_EQ(p.store().GetInt("k"), 2);
  p.CheckInvariants();
}

DatabaseStats RunWorkload(ConcurrencyMode mode,
                          std::vector<Transaction> txs) {
  Database::Options options;
  options.num_partitions = 4;
  options.concurrency = mode;
  options.check_invariants = true;
  Database database(options);
  sim::Time at = 0;
  for (auto& tx : txs) {
    database.Submit(std::move(tx), at);
    at += 25;
  }
  return database.Drain();
}

TEST(DatabaseOccTest, ConflictFreeTrafficMatches2plBitwise) {
  // Every transaction reads and writes only its own key: neither mode can
  // refuse anything, so the two runs must agree on every stats field —
  // committed, messages, latency reservoir, makespan, and both abort
  // buckets at zero.
  auto make = [] {
    std::vector<Transaction> txs;
    for (int i = 0; i < 60; ++i) {
      Transaction tx;
      tx.id = i + 1;
      AppendReadModifyWriteOps(&tx, ItemKey(i));
      txs.push_back(std::move(tx));
    }
    return txs;
  };
  DatabaseStats two_pl = RunWorkload(ConcurrencyMode::k2PL, make());
  DatabaseStats occ = RunWorkload(ConcurrencyMode::kOCC, make());
  EXPECT_EQ(two_pl, occ);
  EXPECT_EQ(occ.committed, 60);
  EXPECT_EQ(occ.abort_lock_conflicts, 0);
  EXPECT_EQ(occ.abort_validation_failures, 0);
}

TEST(DatabaseOccTest, AbortBucketsFollowTheMode) {
  auto make = [] {
    return MakeHotspotWorkload(/*num_txs=*/80, /*num_keys=*/50,
                               /*keys_per_tx=*/3, /*hot_keys=*/3,
                               /*hot_probability=*/0.7, /*seed=*/9);
  };
  DatabaseStats two_pl = RunWorkload(ConcurrencyMode::k2PL, make());
  DatabaseStats occ = RunWorkload(ConcurrencyMode::kOCC, make());
  // Each mode fills exactly its own bucket, and every aborted attempt —
  // retry rounds and final aborts — lands in it.
  EXPECT_GT(two_pl.abort_lock_conflicts, 0);
  EXPECT_EQ(two_pl.abort_validation_failures, 0);
  EXPECT_EQ(two_pl.abort_lock_conflicts, two_pl.retries + two_pl.aborted);
  EXPECT_GT(occ.abort_validation_failures, 0);
  EXPECT_EQ(occ.abort_lock_conflicts, 0);
  EXPECT_EQ(occ.abort_validation_failures, occ.retries + occ.aborted);
}

TEST(DatabaseOccTest, BankInvariantHoldsUnderOcc) {
  Database::Options options;
  options.num_partitions = 4;
  options.concurrency = ConcurrencyMode::kOCC;
  options.check_invariants = true;
  Database database(options);
  const int kAccounts = 20;
  for (int a = 0; a < kAccounts; ++a) database.LoadInt(AccountKey(a), 100);
  auto txs = MakeTransferWorkload(/*num_txs=*/120, kAccounts,
                                  /*max_amount=*/30, /*seed=*/3);
  sim::Time at = 0;
  for (auto& tx : txs) {
    database.Submit(std::move(tx), at);
    at += 15;
  }
  database.Drain();
  EXPECT_EQ(database.SumInts(), 100 * kAccounts);
}

}  // namespace
}  // namespace fastcommit::db
