// Exact allocation gates for two drains. A counting global operator new
// (tests/support/counting_new.cc, linked into this binary only) reads the
// heap allocations one Drain makes and bounds them per finished
// transaction:
//   - the readmix configuration — diurnal arrivals, read-only transactions
//     of eight snapshot kGets beside transfers, Zipf 0.99 over 64k keys,
//     PaxosCommit + OCC + snapshot reads + conflict lookahead — at 90%
//     reads and at 100% reads (no write ever flushes the plane, so only
//     the pending-read bound keeps records recycling);
//   - the oltp commit path — Poisson 2-key transfers over 64k keys,
//     InBAC + 2PL — where every transaction stages, locks, applies and
//     releases at two partitions.
// Allocation counts are exact and independent of the host, unlike
// wall-clock time.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>

#include "core/protocol_kind.h"
#include "db/database.h"
#include "db/traffic.h"
#include "db/workload.h"

#ifndef FASTCOMMIT_SANITIZE
#include "support/alloc_counter.h"
#endif

namespace fastcommit::db {
namespace {

constexpr int64_t kArrivals = 20000;
constexpr int64_t kKeys = 1 << 16;
/// Ceiling per finished transaction; the drain makes about 5.7 at 90%
/// reads and 2.0 at 100%. Reads cost little only while snapshot-read
/// records are pooled, ops are reserved and arrival events stay inside
/// std::function's buffer.
constexpr double kMaxAllocsPerTx = 8.0;
/// Ceiling per finished oltp transfer; the drain makes about 29.9. Staged
/// write and held-lock vectors are recycled per partition; the lock
/// table's per-key map node is still allocated per write lock.
constexpr double kMaxOltpAllocsPerTx = 31.0;

Database::Options ReadmixOptions() {
  Database::Options o;
  o.num_partitions = 8;
  o.protocol = core::ProtocolKind::kPaxosCommit;
  o.concurrency = ConcurrencyMode::kOCC;
  o.snapshot_reads = true;
  o.conflict_lookahead = true;
  o.max_attempts = 10;
  o.seed = 1;
  return o;
}

TrafficOptions ReadmixTraffic(double read_fraction) {
  TrafficOptions t;
  t.process = ArrivalProcess::kDiurnal;
  t.mean_gap = 10.0;
  t.num_arrivals = kArrivals;
  t.diurnal_period = 10 * 100000 / 9;
  t.shape = TxShape::kTransferPair;
  t.read_fraction = read_fraction;
  t.reads_per_tx = 8;
  t.num_keys = kKeys;
  t.zipf_exponent = 0.99;
  t.drift_period = 100;
  t.seed = 1;
  return t;
}

Database::Options OltpOptions() {
  Database::Options o;
  o.num_partitions = 8;
  o.protocol = core::ProtocolKind::kInbac;
  o.concurrency = ConcurrencyMode::k2PL;
  o.seed = 1;
  return o;
}

TrafficOptions OltpTraffic() {
  TrafficOptions t;
  t.process = ArrivalProcess::kPoisson;
  t.mean_gap = 40.0;
  t.num_arrivals = kArrivals;
  t.shape = TxShape::kTransferPair;
  t.num_keys = kKeys;
  t.seed = 1;
  return t;
}

#ifndef FASTCOMMIT_SANITIZE
/// Loads kKeys integer keys, then drains `traffic` and returns the heap
/// allocations per finished transaction (every arrival must finish).
double DrainAllocsPerTx(const Database::Options& options,
                        const TrafficOptions& traffic, DatabaseStats* stats) {
  Database db(options);
  for (int64_t k = 0; k < kKeys; ++k) {
    db.LoadInt(ItemKey(static_cast<int>(k)), 1000);
  }
  TrafficEngine engine(traffic);
  int64_t finished = 0;

  const int64_t before = test_support::AllocationCount();
  db.SubmitArrivals(&engine,
                    [&finished](const Transaction&, commit::Decision) {
                      ++finished;
                    });
  *stats = db.Drain();
  const int64_t allocations = test_support::AllocationCount() - before;

  EXPECT_EQ(finished, traffic.num_arrivals);
  return static_cast<double>(allocations) / static_cast<double>(finished);
}
#endif

class DbAllocTest : public ::testing::TestWithParam<double> {};

TEST_P(DbAllocTest, ReadmixDrainStaysUnderCeiling) {
#ifdef FASTCOMMIT_SANITIZE
  GTEST_SKIP() << "sanitizer runtimes replace operator new themselves, so "
                  "the counting allocator is not linked into this build";
#else
  DatabaseStats stats;
  double per_tx =
      DrainAllocsPerTx(ReadmixOptions(), ReadmixTraffic(GetParam()), &stats);
  ASSERT_GT(stats.read_only_committed, kArrivals / 2);
  EXPECT_LE(per_tx, kMaxAllocsPerTx);
  std::printf(
      "readmix drain (read_fraction %.2f): %.2f allocations per "
      "transaction\n",
      GetParam(), per_tx);
#endif
}

INSTANTIATE_TEST_SUITE_P(ReadFractions, DbAllocTest,
                         ::testing::Values(0.9, 1.0));

TEST(DbAllocOltpTest, TransferDrainStaysUnderCeiling) {
#ifdef FASTCOMMIT_SANITIZE
  GTEST_SKIP() << "sanitizer runtimes replace operator new themselves, so "
                  "the counting allocator is not linked into this build";
#else
  DatabaseStats stats;
  double per_tx = DrainAllocsPerTx(OltpOptions(), OltpTraffic(), &stats);
  ASSERT_GT(stats.committed, kArrivals / 2);
  EXPECT_LE(per_tx, kMaxOltpAllocsPerTx);
  std::printf("oltp drain: %.2f allocations per transaction\n", per_tx);
#endif
}

}  // namespace
}  // namespace fastcommit::db
