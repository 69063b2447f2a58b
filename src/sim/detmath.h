#ifndef FASTCOMMIT_SIM_DETMATH_H_
#define FASTCOMMIT_SIM_DETMATH_H_

#include <cmath>

#include "core/check.h"

namespace fastcommit::sim::detmath {

/// Platform-invariant transcendental functions for the samplers.
///
/// The libm `log`/`exp`/`pow` functions are only accurate to within a few
/// ulp and their exact rounding differs across C libraries, so a workload
/// or arrival stream derived from them would not be bitwise reproducible
/// between platforms — the same class of bug as the std::hash routing that
/// PR 3 replaced with FNV-1a. These implementations use only IEEE-754
/// basic operations (+, -, *, /, which are correctly rounded everywhere)
/// plus the exact bit manipulations frexp/ldexp, so every call returns the
/// identical double on every conforming platform. Accuracy is ~1e-15
/// relative — far more than any sampler needs — but the point is
/// *reproducibility*, not precision.
///
/// These functions *define* every sampler's output. A hot sampler may
/// still evaluate libm first when it can prove the result unchanged:
/// ZipfSampler::Sample floors a libm rank only when it lies more than
/// 1e-9 relative from every integer, and otherwise calls back into these
/// (see sim/rng.h for the argument).

inline constexpr double kLn2 = 0.6931471805599453094172321214581766;
inline constexpr double kInvLn2 = 1.4426950408889634073599246810018921;
inline constexpr double kSqrtHalf = 0.7071067811865475244008443621048490;

/// Natural logarithm of x (x > 0, finite). Argument reduction to
/// [sqrt(1/2), sqrt(2)) via frexp, then the atanh series
/// ln(m) = 2 * (s + s^3/3 + s^5/5 + ...) with s = (m-1)/(m+1), |s| < 0.172.
inline double Log(double x) {
  FC_CHECK(x > 0.0 && std::isfinite(x)) << "detmath::Log domain: " << x;
  int exponent;
  double m = std::frexp(x, &exponent);  // x = m * 2^e, m in [0.5, 1)
  if (m < kSqrtHalf) {
    m *= 2.0;
    --exponent;
  }
  double s = (m - 1.0) / (m + 1.0);
  double s2 = s * s;
  double term = s;
  double sum = 0.0;
  // s^31 < 0.172^31 ~ 1e-24: 16 odd terms exhaust double precision.
  for (int k = 0; k < 16; ++k) {
    sum += term / static_cast<double>(2 * k + 1);
    term *= s2;
  }
  return 2.0 * sum + static_cast<double>(exponent) * kLn2;
}

/// e^x for |x| <= 700 (the samplers never leave that range). Reduction
/// x = k*ln2 + r with |r| <= ln2/2, Taylor for e^r, exact ldexp by k.
inline double Exp(double x) {
  FC_CHECK(std::isfinite(x) && x >= -700.0 && x <= 700.0)
      << "detmath::Exp domain: " << x;
  double kd = x * kInvLn2;
  int k = static_cast<int>(kd >= 0.0 ? kd + 0.5 : kd - 0.5);
  double r = x - static_cast<double>(k) * kLn2;
  double term = 1.0;
  double sum = 1.0;
  // r^18/18! < 0.35^18/18! ~ 1e-24.
  for (int i = 1; i <= 18; ++i) {
    term *= r / static_cast<double>(i);
    sum += term;
  }
  return std::ldexp(sum, k);
}

/// base^y for base > 0. The y = 0 and y = 1 identities are exact (the
/// series round-trip Exp(Log(base)) would be off by an ulp or two).
inline double Pow(double base, double y) {
  if (y == 0.0) return 1.0;
  if (y == 1.0) return base;
  return Exp(y * Log(base));
}

}  // namespace fastcommit::sim::detmath

#endif  // FASTCOMMIT_SIM_DETMATH_H_
