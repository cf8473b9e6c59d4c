//===- support/Random.h - Deterministic pseudo-random numbers --*- C++ -*-===//
//
// Part of the SPM project: reproduction of "Selecting Software Phase Markers
// with Code Structure Analysis" (CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Deterministic, seedable pseudo-random number generation used everywhere a
/// simulated workload or a randomized algorithm (k-means seeding, random
/// projection) needs randomness. All experiment results must be reproducible
/// bit-for-bit from the seed, so no library code may use std::random_device
/// or rand().
///
//===----------------------------------------------------------------------===//

#ifndef SPM_SUPPORT_RANDOM_H
#define SPM_SUPPORT_RANDOM_H

#include <cassert>
#include <cstdint>

namespace spm {

/// The SplitMix64 output function: a strong 64-bit mix of its argument.
/// Feeding it successive multiples of the golden-ratio increment yields the
/// SplitMix64 stream; feeding it arbitrary counters yields an O(1)-seekable
/// ("counter-based") random sequence.
inline uint64_t splitMix64(uint64_t Z) {
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebULL;
  return Z ^ (Z >> 31);
}

/// SplitMix64 generator, used to seed Xoshiro and as a cheap standalone
/// stream. Passes BigCrush when used as intended (one stream per seed).
class SplitMix64 {
public:
  explicit SplitMix64(uint64_t Seed) : State(Seed) {}

  /// Returns the next 64-bit value in the stream.
  uint64_t next() {
    return splitMix64(State += 0x9e3779b97f4a7c15ULL);
  }

private:
  uint64_t State;
};

/// xoshiro256** 1.0 by Blackman & Vigna. The workhorse generator: fast,
/// high quality, and trivially reproducible from a 64-bit seed.
class Rng {
public:
  /// Seeds the four state words through SplitMix64 as recommended by the
  /// xoshiro authors.
  explicit Rng(uint64_t Seed) {
    SplitMix64 SM(Seed);
    for (auto &W : S)
      W = SM.next();
  }

  /// Returns the next raw 64-bit value.
  uint64_t next() {
    uint64_t Result = rotl(S[1] * 5, 7) * 9;
    uint64_t T = S[1] << 17;
    S[2] ^= S[0];
    S[3] ^= S[1];
    S[1] ^= S[2];
    S[0] ^= S[3];
    S[2] ^= T;
    S[3] = rotl(S[3], 45);
    return Result;
  }

  /// Returns a uniformly distributed integer in [0, Bound). \p Bound must be
  /// nonzero. Uses Lemire's multiply-shift rejection-free mapping (the tiny
  /// modulo bias is irrelevant at our bound sizes but we debias anyway).
  uint64_t nextBelow(uint64_t Bound) {
    assert(Bound > 0 && "nextBelow bound must be nonzero");
    // Lemire's nearly-divisionless method.
    unsigned __int128 M = static_cast<unsigned __int128>(next()) * Bound;
    auto Lo = static_cast<uint64_t>(M);
    if (Lo < Bound) {
      uint64_t Threshold = (0 - Bound) % Bound;
      while (Lo < Threshold) {
        M = static_cast<unsigned __int128>(next()) * Bound;
        Lo = static_cast<uint64_t>(M);
      }
    }
    return static_cast<uint64_t>(M >> 64);
  }

  /// Returns a uniformly distributed integer in [Lo, Hi] inclusive.
  /// Requires Lo <= Hi.
  uint64_t nextInRange(uint64_t Lo, uint64_t Hi) {
    assert(Lo <= Hi && "nextInRange requires Lo <= Hi");
    return Lo + nextBelow(Hi - Lo + 1);
  }

  /// Returns a double uniformly distributed in [0, 1).
  double nextDouble() {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

  /// Returns true with probability \p P (clamped to [0, 1]).
  bool nextBool(double P) {
    if (P <= 0.0)
      return false;
    if (P >= 1.0)
      return true;
    return nextDouble() < P;
  }

  /// Returns a standard-normal deviate (Marsaglia polar method).
  double nextGaussian() {
    if (HaveSpare) {
      HaveSpare = false;
      return Spare;
    }
    double U, V, R2;
    do {
      U = 2.0 * nextDouble() - 1.0;
      V = 2.0 * nextDouble() - 1.0;
      R2 = U * U + V * V;
    } while (R2 >= 1.0 || R2 == 0.0);
    double Scale = sqrtOf(-2.0 * logOf(R2) / R2);
    Spare = V * Scale;
    HaveSpare = true;
    return U * Scale;
  }

  /// Forks a statistically independent child stream. Used to give each
  /// workload region / instruction its own stream so that adding an observer
  /// never perturbs another component's draws.
  Rng fork() { return Rng(next() ^ 0x5851f42d4c957f2dULL); }

private:
  static uint64_t rotl(uint64_t X, int K) {
    return (X << K) | (X >> (64 - K));
  }
  // Tiny local wrappers so this header does not pull in <cmath> for every
  // client; defined in Random.cpp.
  static double sqrtOf(double X);
  static double logOf(double X);

  uint64_t S[4];
  double Spare = 0.0;
  bool HaveSpare = false;
};

} // namespace spm

#endif // SPM_SUPPORT_RANDOM_H
