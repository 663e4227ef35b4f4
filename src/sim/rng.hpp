// Deterministic pseudo-random number generation for the simulator.
//
// We use xoshiro256** seeded through splitmix64.  Every stochastic cost
// model (OS noise arrival, futex wake jitter, ...) draws from an engine-
// owned Rng so that a fixed seed reproduces a bit-identical simulation.
#pragma once

#include <cstdint>

namespace kop::sim {

/// xoshiro256** 1.0 (Blackman & Vigna), seeded via splitmix64.
///
/// Not a std-style generator on purpose: the handful of distributions the
/// cost models need are provided directly, which keeps call sites terse
/// and avoids accidental use of platform-dependent std distributions
/// (their sequences differ across standard libraries, which would break
/// cross-toolchain determinism).
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  /// Uniform on the full 64-bit range.
  std::uint64_t next_u64();

  /// Uniform double in [0, 1).
  double uniform();

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Uniform integer in [lo, hi] (inclusive).
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// True with probability p (p clamped to [0, 1]).
  bool bernoulli(double p);

  /// Exponential with the given mean (> 0).
  double exponential(double mean);

  /// Normal via Box-Muller.
  double normal(double mean, double stddev);

  /// Log-normal parameterized by the mean/cv of the *resulting*
  /// distribution; handy for latency jitter that must stay positive.
  double lognormal_mean_cv(double mean, double cv);

 private:
  std::uint64_t s_[4];
};

}  // namespace kop::sim
