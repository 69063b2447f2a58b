// Exact allocation gate for the read-mostly drain. A counting global
// operator new (tests/support/counting_new.cc, linked into this binary
// only) reads the heap allocations one Drain makes on the readmix
// configuration — diurnal arrivals, read-only transactions of eight
// snapshot kGets beside transfers, Zipf 0.99 over 64k keys, PaxosCommit +
// OCC + snapshot reads + conflict lookahead — and bounds them per finished
// transaction, at 90% reads and at 100% reads (no write ever flushes the
// plane, so only the pending-read bound keeps records recycling).
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
/// Ceiling per finished transaction; the drain makes about 6.1 at 90%
/// reads and 2.0 at 100%. Reads cost little only while snapshot-read
/// records are pooled, ops are reserved and arrival events stay inside
/// std::function's buffer.
constexpr double kMaxAllocsPerTx = 8.0;

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

class DbAllocTest : public ::testing::TestWithParam<double> {};

TEST_P(DbAllocTest, ReadmixDrainStaysUnderCeiling) {
#ifdef FASTCOMMIT_SANITIZE
  GTEST_SKIP() << "sanitizer runtimes replace operator new themselves, so "
                  "the counting allocator is not linked into this build";
#else
  Database db(ReadmixOptions());
  for (int64_t k = 0; k < kKeys; ++k) {
    db.LoadInt(ItemKey(static_cast<int>(k)), 1000);
  }
  TrafficEngine engine(ReadmixTraffic(GetParam()));
  int64_t finished = 0;

  const int64_t before = test_support::AllocationCount();
  db.SubmitArrivals(&engine,
                    [&finished](const Transaction&, commit::Decision) {
                      ++finished;
                    });
  const DatabaseStats& stats = db.Drain();
  const int64_t allocations = test_support::AllocationCount() - before;

  ASSERT_EQ(finished, kArrivals);
  ASSERT_GT(stats.read_only_committed, kArrivals / 2);
  double per_tx =
      static_cast<double>(allocations) / static_cast<double>(finished);
  EXPECT_LE(per_tx, kMaxAllocsPerTx)
      << allocations << " allocations over " << finished << " transactions";
  std::printf(
      "readmix drain (read_fraction %.2f): %lld allocations, %.2f per "
      "transaction\n",
      GetParam(), static_cast<long long>(allocations), per_tx);
#endif
}

INSTANTIATE_TEST_SUITE_P(ReadFractions, DbAllocTest,
                         ::testing::Values(0.9, 1.0));

}  // namespace
}  // namespace fastcommit::db
