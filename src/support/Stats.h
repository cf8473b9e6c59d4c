//===- support/Stats.h - Online and weighted statistics --------*- C++ -*-===//
//
// Part of the SPM project: reproduction of "Selecting Software Phase Markers
// with Code Structure Analysis" (CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Streaming statistics accumulators. The call-loop graph annotates every
/// edge with the count, average, standard deviation, and maximum of the
/// hierarchical instruction count per traversal (Sec. 4.2 of the paper);
/// RunningStat provides exactly those moments with Welford's numerically
/// stable update. WeightedStat implements the instruction-weighted average /
/// standard deviation used for per-phase Coefficient of Variation (Sec. 3.1).
///
//===----------------------------------------------------------------------===//

#ifndef SPM_SUPPORT_STATS_H
#define SPM_SUPPORT_STATS_H

#include <bit>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <limits>

namespace spm {

/// Accumulates count, mean, (population) standard deviation, min, and max of
/// a stream of samples in O(1) space using Welford's algorithm.
class RunningStat {
public:
  /// Adds one observation.
  void add(double X) {
    ++N;
    // Exact fast step: when X equals a finite, non-negative Mean and M2 is
    // finite and non-negative, Delta is a zero and Welford's update below
    // would leave Mean and M2 unchanged bit for bit, so skip its division.
    // Call-loop edges repeat one hierarchical count on most traversals.
    // Inf, NaN and negative (including -0) Mean or M2 take the full step.
    if (!(X == Mean && std::bit_cast<uint64_t>(Mean) < FiniteNonNegEnd &&
          std::bit_cast<uint64_t>(M2) < FiniteNonNegEnd)) {
      double Delta = X - Mean;
      Mean += Delta / static_cast<double>(N);
      M2 += Delta * (X - Mean);
    }
    if (X > Max)
      Max = X;
    if (X < Min)
      Min = X;
    Sum += X;
  }

  uint64_t count() const { return N; }
  double mean() const { return N ? Mean : 0.0; }
  double sum() const { return Sum; }
  /// Population variance (divide by N, not N-1): the paper's CoV treats the
  /// profile as the full population of traversals.
  double variance() const { return N ? M2 / static_cast<double>(N) : 0.0; }
  double stddev() const { return std::sqrt(variance()); }
  /// Maximum observed value; 0 when empty (callers check count() first).
  double max() const { return N ? Max : 0.0; }
  double min() const { return N ? Min : 0.0; }

  /// Second central moment accumulator (for serialization round trips).
  double m2() const { return M2; }

  /// Rebuilds an accumulator from serialized moments. \p N == 0 yields an
  /// empty accumulator regardless of the other fields.
  static RunningStat fromMoments(uint64_t N, double Mean, double M2,
                                 double Sum, double Max, double Min) {
    RunningStat S;
    if (N == 0)
      return S;
    S.N = N;
    S.Mean = Mean;
    S.M2 = M2;
    S.Sum = Sum;
    S.Max = Max;
    S.Min = Min;
    return S;
  }

  /// Coefficient of variation: stddev / mean. Returns 0 for an empty stream
  /// or a zero mean (a degenerate edge with all-zero counts is perfectly
  /// stable, not infinitely unstable).
  double cov() const {
    double M = mean();
    if (M == 0.0)
      return 0.0;
    return stddev() / M;
  }

private:
  /// Bit patterns below this are the finite doubles with a clear sign bit
  /// (+0 through the largest finite value); +inf is the first excluded.
  static constexpr uint64_t FiniteNonNegEnd = 0x7ff0000000000000ULL;

  uint64_t N = 0;
  double Mean = 0.0;
  double M2 = 0.0;
  double Sum = 0.0;
  double Max = -std::numeric_limits<double>::infinity();
  double Min = std::numeric_limits<double>::infinity();
};

/// Weighted first/second moments: each sample X carries a weight W (the
/// paper weights every interval by its instruction count when computing the
/// per-phase average and standard deviation of CPI).
class WeightedStat {
public:
  void add(double X, double W) {
    assert(W >= 0 && "weights must be non-negative");
    if (W == 0)
      return;
    SumW += W;
    SumWX += W * X;
    SumWXX += W * X * X;
    ++N;
  }

  uint64_t count() const { return N; }
  double totalWeight() const { return SumW; }
  double mean() const { return SumW > 0 ? SumWX / SumW : 0.0; }

  /// Weighted population variance.
  double variance() const {
    if (SumW <= 0)
      return 0.0;
    double M = mean();
    double V = SumWXX / SumW - M * M;
    return V > 0 ? V : 0.0; // Clamp tiny negative rounding residue.
  }

  double stddev() const { return std::sqrt(variance()); }

  /// Weighted coefficient of variation; 0 when mean is 0 or stream empty.
  double cov() const {
    double M = mean();
    if (M == 0.0)
      return 0.0;
    return stddev() / M;
  }

private:
  uint64_t N = 0;
  double SumW = 0.0;
  double SumWX = 0.0;
  double SumWXX = 0.0;
};

} // namespace spm

#endif // SPM_SUPPORT_STATS_H
