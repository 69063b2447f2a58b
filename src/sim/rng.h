#ifndef FASTCOMMIT_SIM_RNG_H_
#define FASTCOMMIT_SIM_RNG_H_

#include <cmath>
#include <cstdint>

#include "sim/detmath.h"

namespace fastcommit::sim {

/// Deterministic 64-bit RNG (splitmix64). Every randomized component of an
/// execution (random delays, workload generation) derives from one seed so
/// runs are exactly reproducible.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed + 0x9e3779b97f4a7c15ULL) {}

  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

  /// Uniform integer in [lo, hi] (inclusive); requires lo <= hi.
  int64_t UniformInt(int64_t lo, int64_t hi) {
    uint64_t span = static_cast<uint64_t>(hi - lo) + 1;
    return lo + static_cast<int64_t>(Next() % span);
  }

  /// Uniform double in [0, 1).
  double UniformDouble() {
    return static_cast<double>(Next() >> 11) * (1.0 / 9007199254740992.0);
  }

  /// Bernoulli trial with probability `p`.
  bool Chance(double p) { return UniformDouble() < p; }

  /// Exponential variate with the given mean (> 0) by inverse CDF:
  /// -mean * ln(1 - U). Uses detmath::Log, so the sequence for a seed is
  /// bitwise identical on every platform — the property the open-loop
  /// arrival streams (db/traffic.h) gate with golden-sequence tests.
  double Exponential(double mean) {
    // 1 - U is in (0, 1]: Log's domain, and Exponential(m) >= 0 exactly.
    return -mean * detmath::Log(1.0 - UniformDouble());
  }

  /// Forks an independent stream (e.g., one per process) deterministically.
  Rng Fork() { return Rng(Next()); }

 private:
  uint64_t state_;
};

/// Zipf-like sampler over {0, ..., num_items - 1} by inverse CDF of the
/// continuous bounded Pareto density p(x) ∝ x^-exponent on [1, n + 1) —
/// the standard O(1) continuous approximation of the discrete Zipf
/// distribution (rank 1 is the most popular item). exponent 0 degenerates
/// to uniform; exponent near 1 uses the log-uniform limit.
///
/// ## Exactness of the fast path
///
/// The *definition* of a draw is ExactRankAt: the inverse CDF evaluated
/// with detmath, whose results are identical on every platform. Sample
/// does not evaluate it on most draws. It computes the continuous rank x
/// with libm (std::pow, or std::exp in the log-uniform case), and when x
/// lies more than kGuard * x away from every integer it returns floor(x)
/// directly; only inside that guard band (well under 0.1% of draws) does
/// it fall back to ExactRankAt. The two agree bitwise, by this argument:
///   - both paths round the same base (1 + u * scale) and evaluate
///     x = e^t with |t| <= ln(n + 1) < 44. Computing t to ~1e-15 relative
///     leaves it within ~5e-14 absolute, so each x is within about 1e-13
///     relative of the true rank x* (DetMathTest.TracksLibmClosely bounds
///     detmath there; glibc's pow and exp are within one ulp);
///   - outside the band, the libm x is more than 1e-9 * x from every
///     integer, so x* and the detmath x lie strictly between the same two
///     integers, and all three floors agree.
/// So the rank sequence of a seed is bitwise unchanged on any libm whose
/// pow/exp are within 1e-10 relative of the truth; libms accurate to a
/// few ulp are inside that by five orders of magnitude. The uniform case
/// uses no transcendental at all. tests/distribution_test.cc pins the
/// goldens, compares Sample with ExactRankAt over millions of draws, and
/// bisects u to the adjacent doubles on either side of ~1000 rank
/// boundaries, where an unguarded floor would disagree.
class ZipfSampler {
 public:
  ZipfSampler(int64_t num_items, double exponent)
      : num_items_(num_items), exponent_(exponent) {
    FC_CHECK(num_items >= 1) << "ZipfSampler needs at least one item";
    FC_CHECK(exponent >= 0.0) << "negative Zipf exponent";
    double n1 = static_cast<double>(num_items) + 1.0;
    if (Uniform()) {
      scale_ = 0.0;
    } else if (LogUniform()) {
      scale_ = detmath::Log(n1);  // CDF^-1(u) = e^(u * ln(n+1))
    } else {
      scale_ = detmath::Pow(n1, 1.0 - exponent) - 1.0;
      inverse_ = 1.0 / (1.0 - exponent);
    }
  }

  int64_t num_items() const { return num_items_; }
  double exponent() const { return exponent_; }

  /// Draws one 0-based item index; 0 is the most popular rank.
  int64_t Sample(Rng& rng) const { return RankAt(rng.UniformDouble()); }

  /// The 0-based rank of uniform variate `u` in [0, 1): the guarded libm
  /// fast path described in the class comment, equal to ExactRankAt(u).
  int64_t RankAt(double u) const {
    if (Uniform()) return Clamp(1.0 + u * static_cast<double>(num_items_));
    double x = LogUniform() ? std::exp(u * scale_)
                            : std::pow(1.0 + u * scale_, inverse_);
    double whole = std::floor(x);
    double frac = x - whole;  // exact: x >= 1 and whole <= x
    double band = kGuard * x;
    if (frac > band && 1.0 - frac > band) return Clamp(whole);
    return ExactRankAt(u);
  }

  /// The definition of a draw: the inverse CDF evaluated with detmath,
  /// bitwise identical on every platform.
  int64_t ExactRankAt(double u) const {
    double x;  // continuous rank in [1, n + 1)
    if (Uniform()) {
      x = 1.0 + u * static_cast<double>(num_items_);
    } else if (LogUniform()) {
      x = detmath::Exp(u * scale_);
    } else {
      x = detmath::Pow(1.0 + u * scale_, inverse_);
    }
    return Clamp(x);
  }

 private:
  /// Relative half-width of the band around each integer inside which the
  /// libm rank is not trusted (see the class comment).
  static constexpr double kGuard = 1e-9;

  /// floor(x) as a 0-based rank, guarding both bounds (x >= 1 up to
  /// rounding; x reaches n + 1 at the open upper edge).
  int64_t Clamp(double x) const {
    int64_t rank = static_cast<int64_t>(x);
    if (rank < 1) rank = 1;
    if (rank > num_items_) rank = num_items_;
    return rank - 1;
  }
  bool Uniform() const { return exponent_ == 0.0; }
  /// Within ~1e-9 of 1 the (1-s) exponents lose all precision; the exact
  /// s = 1 inverse CDF takes over.
  bool LogUniform() const {
    double d = exponent_ - 1.0;
    return d > -1e-9 && d < 1e-9;
  }

  int64_t num_items_;
  double exponent_;
  double scale_;
  double inverse_ = 1.0;  ///< 1 / (1 - exponent), power-law case only
};

}  // namespace fastcommit::sim

#endif  // FASTCOMMIT_SIM_RNG_H_
