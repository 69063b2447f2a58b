// Golden-sequence tests for the deterministic distribution samplers
// (sim::Rng::Exponential, sim::ZipfSampler) and the software math they run
// on (sim/detmath.h). The goldens pin exact bit patterns: the samplers
// must produce identical streams on every platform and placement, because
// the open-loop traffic engine (db/traffic.h) derives workloads from them
// and the placement-determinism gates compare the resulting DatabaseStats
// bitwise. A libm-backed implementation would fail these on some C
// libraries — the same cross-platform divergence class as the std::hash
// routing bug fixed in the key-routing layer.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "sim/detmath.h"
#include "sim/rng.h"

namespace fastcommit::sim {
namespace {

uint64_t BitsOf(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

TEST(DetMathTest, TracksLibmClosely) {
  // detmath trades the last couple of ulps for platform invariance; it
  // must still be an accurate log/exp/pow, or the samplers would be
  // deterministic nonsense. 1e-13 relative error is ~400x looser than one
  // ulp and ~1e10x tighter than any distributional effect.
  for (double x : {1e-6, 0.1, 0.5, 1.0, 2.0, 10.0, 12345.678, 1e12}) {
    EXPECT_NEAR(detmath::Log(x), std::log(x),
                std::fabs(std::log(x)) * 1e-13 + 1e-15)
        << "Log(" << x << ")";
  }
  for (double x : {-600.0, -20.0, -1.0, 0.0, 1e-9, 0.5, 1.0, 20.0, 600.0}) {
    EXPECT_NEAR(detmath::Exp(x), std::exp(x), std::exp(x) * 1e-13)
        << "Exp(" << x << ")";
  }
  for (double base : {0.5, 2.0, 10.0, 1048577.0}) {
    for (double y : {-1.5, -0.2, 0.0, 0.01, 0.5, 1.0, 3.0}) {
      EXPECT_NEAR(detmath::Pow(base, y), std::pow(base, y),
                  std::pow(base, y) * 1e-12)
          << "Pow(" << base << ", " << y << ")";
    }
  }
  // Exact identities the implementation owes regardless of rounding.
  EXPECT_EQ(detmath::Log(1.0), 0.0);
  EXPECT_EQ(detmath::Exp(0.0), 1.0);
  EXPECT_EQ(detmath::Pow(7.25, 0.0), 1.0);
  EXPECT_EQ(detmath::Pow(7.25, 1.0), 7.25);
}

TEST(DistributionTest, ExponentialGoldenSequence) {
  // Exact bit patterns of the first 8 draws of Exponential(100) from seed
  // 42. A change here is a break in cross-platform or cross-version
  // reproducibility of every open-loop arrival stream — do not "refresh"
  // these without bumping the traffic engine's compatibility note.
  const uint64_t kGolden[] = {
      0x40316cb749fe608aULL, 0x40405401e43efc9fULL, 0x404518219da24d81ULL,
      0x400f048b5837012dULL, 0x40695562787f328aULL, 0x4038a4526669e135ULL,
      0x40642853cd515a51ULL, 0x4044c542a4b158f6ULL,
  };
  Rng rng(42);
  for (size_t i = 0; i < std::size(kGolden); ++i) {
    EXPECT_EQ(BitsOf(rng.Exponential(100.0)), kGolden[i]) << "draw " << i;
  }
}

TEST(DistributionTest, ExponentialMeanAndSupport) {
  Rng rng(1);
  double sum = 0.0;
  const int kDraws = 200000;
  for (int i = 0; i < kDraws; ++i) {
    double v = rng.Exponential(100.0);
    ASSERT_GE(v, 0.0);
    sum += v;
  }
  // Sample mean of 200k exponentials: stderr = 100/sqrt(200k) ~ 0.22, so
  // +-2 is a ~9 sigma corridor — deterministic anyway, loose by design.
  EXPECT_NEAR(sum / kDraws, 100.0, 2.0);
}

TEST(DistributionTest, ZipfGoldenSequences) {
  {
    // Classic YCSB-style skew over 1000 items, seed 7.
    Rng rng(7);
    ZipfSampler zipf(1000, 0.99);
    const int64_t kGolden[] = {0, 513, 58, 23, 4, 25, 9, 1, 17, 1, 764, 577};
    for (size_t i = 0; i < std::size(kGolden); ++i) {
      EXPECT_EQ(zipf.Sample(rng), kGolden[i]) << "draw " << i;
    }
  }
  {
    // Exponent exactly 1: the log-uniform inverse CDF takes over.
    Rng rng(7);
    ZipfSampler zipf(1000, 1.0);
    const int64_t kGolden[] = {0, 503, 55, 21, 4, 24, 8, 1, 16, 1, 757, 567};
    for (size_t i = 0; i < std::size(kGolden); ++i) {
      EXPECT_EQ(zipf.Sample(rng), kGolden[i]) << "draw " << i;
    }
  }
  {
    // Million-key space, moderate skew — the open-loop default regime.
    Rng rng(11);
    ZipfSampler zipf(1 << 20, 0.8);
    const int64_t kGolden[] = {2927, 131978, 46205, 507,    68788, 98,
                               330347, 8494, 854521, 492,   2582,  680714};
    for (size_t i = 0; i < std::size(kGolden); ++i) {
      EXPECT_EQ(zipf.Sample(rng), kGolden[i]) << "draw " << i;
    }
  }
}

/// FNV-1a fold over the little-endian bytes of `draws` consecutive ranks.
uint64_t FoldRanks(const ZipfSampler& zipf, Rng& rng, int draws) {
  uint64_t h = 14695981039346656037ULL;
  for (int i = 0; i < draws; ++i) {
    auto rank = static_cast<uint64_t>(zipf.Sample(rng));
    for (int b = 0; b < 8; ++b) {
      h ^= (rank >> (8 * b)) & 0xffu;
      h *= 1099511628211ULL;
    }
  }
  return h;
}

TEST(DistributionTest, ZipfBenchmarkConfigurationsPinned) {
  // The first 100k ranks of the two benchmark key distributions, recorded
  // from the detmath-only sampler before the libm fast path existed: the
  // fast path must reproduce them bitwise.
  {
    Rng rng(1);
    EXPECT_EQ(FoldRanks(ZipfSampler(1 << 16, 0.99), rng, 100000),
              0xa66726271c56fe7cULL);
  }
  {
    Rng rng(1);
    EXPECT_EQ(FoldRanks(ZipfSampler(1 << 20, 0.7), rng, 100000),
              0x34ea885c4c42ecf4ULL);
  }
}

/// The configurations the fast path is checked on: both benchmark
/// distributions, a small mild one, the log-uniform limit, and two
/// exponents above 1 (negative powers).
struct ZipfConfig {
  int64_t items;
  double exponent;
};
constexpr ZipfConfig kZipfConfigs[] = {
    {1 << 16, 0.99}, {1 << 20, 0.7}, {1000, 0.5},
    {1 << 20, 1.0},  {100, 2.5},     {1 << 16, 1.2},
};

TEST(DistributionTest, ZipfFastPathMatchesExactInverseCdf) {
  // Differential check: the guarded libm rank equals the detmath inverse
  // CDF — the definition — on every one of a million draws per
  // configuration.
  const int kDraws = 1000000;
  for (const ZipfConfig& c : kZipfConfigs) {
    ZipfSampler zipf(c.items, c.exponent);
    Rng rng(static_cast<uint64_t>(c.items) + 17);
    int64_t mismatches = 0;
    for (int i = 0; i < kDraws; ++i) {
      double u = rng.UniformDouble();
      mismatches += zipf.RankAt(u) != zipf.ExactRankAt(u);
    }
    EXPECT_EQ(mismatches, 0)
        << "ZipfSampler(" << c.items << ", " << c.exponent << ")";
  }
}

TEST(DistributionTest, ZipfFastPathExactAtRankBoundaries) {
  // Where the exact rank steps from r - 1 to r, libm and detmath differ
  // by an ulp or two on which side of the integer they land, so an
  // unguarded libm floor would disagree there. Bisect u down to the two
  // adjacent doubles straddling ~1000 such steps and check both.
  int checked = 0;
  for (const ZipfConfig& c : kZipfConfigs) {
    ZipfSampler zipf(c.items, c.exponent);
    const int64_t steps = std::min<int64_t>(c.items - 1, 180);
    int64_t target = 0;
    for (int64_t i = 1; i <= steps; ++i) {
      // Distinct target ranks spread geometrically over [1, items - 1].
      double share = static_cast<double>(i) / static_cast<double>(steps);
      target = std::max<int64_t>(
          target + 1, static_cast<int64_t>(
                          std::pow(static_cast<double>(c.items - 1), share)));
      double lo = 0.0;                       // ExactRankAt(lo) < target
      double hi = std::nextafter(1.0, 0.0);  // ExactRankAt(hi) >= target
      if (zipf.ExactRankAt(hi) < target) continue;  // clamped tail
      while (std::nextafter(lo, 1.0) < hi) {
        double mid = lo + (hi - lo) / 2;
        if (mid <= lo || mid >= hi) mid = std::nextafter(lo, 1.0);
        (zipf.ExactRankAt(mid) >= target ? hi : lo) = mid;
      }
      ASSERT_EQ(zipf.RankAt(lo), zipf.ExactRankAt(lo))
          << "ZipfSampler(" << c.items << ", " << c.exponent
          << ") below the step to rank " << target << " at u = " << lo;
      ASSERT_EQ(zipf.RankAt(hi), zipf.ExactRankAt(hi))
          << "ZipfSampler(" << c.items << ", " << c.exponent
          << ") above the step to rank " << target << " at u = " << hi;
      ++checked;
    }
  }
  EXPECT_GE(checked, 990);
}

TEST(DistributionTest, ZipfRanksStayInRangeAndSkewForward) {
  const int64_t kItems = 100;
  Rng rng(3);
  ZipfSampler zipf(kItems, 0.99);
  std::vector<int64_t> counts(static_cast<size_t>(kItems), 0);
  const int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) {
    int64_t rank = zipf.Sample(rng);
    ASSERT_GE(rank, 0);
    ASSERT_LT(rank, kItems);
    ++counts[static_cast<size_t>(rank)];
  }
  // Rank 0 is the hottest item and the head dominates: under s ~ 1 the
  // top-10 share of a 100-item Zipf is ~50%+.
  for (int64_t r = 1; r < kItems; ++r) EXPECT_GE(counts[0], counts[r]);
  int64_t head = 0;
  for (int r = 0; r < 10; ++r) head += counts[static_cast<size_t>(r)];
  EXPECT_GT(head, kDraws / 2);
}

TEST(DistributionTest, ZipfExponentZeroIsUniform) {
  const int64_t kItems = 64;
  Rng rng(5);
  ZipfSampler zipf(kItems, 0.0);
  std::vector<int64_t> counts(static_cast<size_t>(kItems), 0);
  const int kDraws = 128000;
  for (int i = 0; i < kDraws; ++i) {
    ++counts[static_cast<size_t>(zipf.Sample(rng))];
  }
  // Every item lands within +-25% of the uniform expectation (2000).
  for (int64_t r = 0; r < kItems; ++r) {
    EXPECT_NEAR(static_cast<double>(counts[static_cast<size_t>(r)]),
                static_cast<double>(kDraws) / kItems,
                0.25 * static_cast<double>(kDraws) / kItems)
        << "rank " << r;
  }
}

TEST(DistributionTest, SameSeedSameStream) {
  Rng a(123), b(123);
  ZipfSampler zipf(10000, 0.9);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(BitsOf(a.Exponential(50.0)), BitsOf(b.Exponential(50.0)));
  }
  Rng c(77), d(77);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(zipf.Sample(c), zipf.Sample(d));
  }
}

}  // namespace
}  // namespace fastcommit::sim
