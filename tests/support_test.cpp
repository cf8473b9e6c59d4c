//===- tests/support_test.cpp - support library unit tests ----------------==//

#include "support/Metrics.h"
#include "support/Random.h"
#include "support/Stats.h"
#include "support/Table.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

using namespace spm;

//===----------------------------------------------------------------------===//
// Random
//===----------------------------------------------------------------------===//

TEST(Random, DeterministicForSeed) {
  Rng A(7), B(7);
  for (int I = 0; I < 1000; ++I)
    EXPECT_EQ(A.next(), B.next());
}

TEST(Random, DifferentSeedsDiffer) {
  Rng A(1), B(2);
  int Same = 0;
  for (int I = 0; I < 100; ++I)
    if (A.next() == B.next())
      ++Same;
  EXPECT_LT(Same, 2);
}

TEST(Random, NextBelowInRange) {
  Rng R(3);
  for (uint64_t Bound : {1ull, 2ull, 7ull, 1000ull, 1ull << 40}) {
    for (int I = 0; I < 200; ++I)
      EXPECT_LT(R.nextBelow(Bound), Bound) << "bound " << Bound;
  }
}

TEST(Random, NextInRangeInclusive) {
  Rng R(4);
  bool SawLo = false, SawHi = false;
  for (int I = 0; I < 2000; ++I) {
    uint64_t V = R.nextInRange(5, 8);
    EXPECT_GE(V, 5u);
    EXPECT_LE(V, 8u);
    SawLo |= (V == 5);
    SawHi |= (V == 8);
  }
  EXPECT_TRUE(SawLo);
  EXPECT_TRUE(SawHi);
}

TEST(Random, DoubleInUnitInterval) {
  Rng R(5);
  for (int I = 0; I < 1000; ++I) {
    double D = R.nextDouble();
    EXPECT_GE(D, 0.0);
    EXPECT_LT(D, 1.0);
  }
}

TEST(Random, BernoulliFrequency) {
  Rng R(6);
  int Hits = 0;
  const int N = 20000;
  for (int I = 0; I < N; ++I)
    Hits += R.nextBool(0.3);
  EXPECT_NEAR(static_cast<double>(Hits) / N, 0.3, 0.02);
}

TEST(Random, BernoulliExtremes) {
  Rng R(6);
  for (int I = 0; I < 50; ++I) {
    EXPECT_FALSE(R.nextBool(0.0));
    EXPECT_TRUE(R.nextBool(1.0));
  }
}

TEST(Random, GaussianMoments) {
  Rng R(8);
  RunningStat S;
  for (int I = 0; I < 50000; ++I)
    S.add(R.nextGaussian());
  EXPECT_NEAR(S.mean(), 0.0, 0.02);
  EXPECT_NEAR(S.stddev(), 1.0, 0.02);
}

TEST(Random, ForkIndependence) {
  Rng A(9);
  Rng B = A.fork();
  // The fork and the parent should not track each other.
  int Same = 0;
  for (int I = 0; I < 100; ++I)
    if (A.next() == B.next())
      ++Same;
  EXPECT_LT(Same, 2);
}

//===----------------------------------------------------------------------===//
// RunningStat
//===----------------------------------------------------------------------===//

TEST(RunningStat, MatchesNaiveMoments) {
  std::vector<double> Xs = {3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5};
  RunningStat S;
  for (double X : Xs)
    S.add(X);
  double Mean = 0;
  for (double X : Xs)
    Mean += X;
  Mean /= Xs.size();
  double Var = 0;
  for (double X : Xs)
    Var += (X - Mean) * (X - Mean);
  Var /= Xs.size();
  EXPECT_EQ(S.count(), Xs.size());
  EXPECT_DOUBLE_EQ(S.mean(), Mean);
  EXPECT_NEAR(S.variance(), Var, 1e-9);
  EXPECT_DOUBLE_EQ(S.max(), 9.0);
  EXPECT_DOUBLE_EQ(S.min(), 1.0);
}

TEST(RunningStat, EmptyIsZero) {
  RunningStat S;
  EXPECT_EQ(S.count(), 0u);
  EXPECT_EQ(S.mean(), 0.0);
  EXPECT_EQ(S.stddev(), 0.0);
  EXPECT_EQ(S.cov(), 0.0);
  EXPECT_EQ(S.max(), 0.0);
}

TEST(RunningStat, SingleSampleZeroVariance) {
  RunningStat S;
  S.add(42.0);
  EXPECT_EQ(S.variance(), 0.0);
  EXPECT_EQ(S.cov(), 0.0);
}

TEST(RunningStat, CovIsStddevOverMean) {
  RunningStat S;
  S.add(10);
  S.add(20);
  EXPECT_NEAR(S.cov(), 5.0 / 15.0, 1e-12);
}

namespace {

/// RunningStat::add as it was before its exact fast step: the plain
/// Welford update on every sample. The reference the fast step must match
/// bit for bit.
struct WelfordReference {
  uint64_t N = 0;
  double Mean = 0.0, M2 = 0.0, Sum = 0.0;
  double Max = -std::numeric_limits<double>::infinity();
  double Min = std::numeric_limits<double>::infinity();

  void add(double X) {
    ++N;
    double Delta = X - Mean;
    Mean += Delta / static_cast<double>(N);
    M2 += Delta * (X - Mean);
    if (X > Max)
      Max = X;
    if (X < Min)
      Min = X;
    Sum += X;
  }
};

/// The bit pattern of \p X, with every NaN folded to one pattern: which
/// NaN an operation on two NaN operands returns is up to the compiler's
/// operand order (x86 returns the first), so only NaN-ness is portable.
uint64_t bits(double X) {
  return std::isnan(X) ? 0x7ff8000000000000ULL : std::bit_cast<uint64_t>(X);
}

/// Feeds \p Xs to both accumulators, starting from the same moments, and
/// compares every field's bit pattern after every sample.
void expectBitIdentical(const std::vector<double> &Xs, uint64_t N = 0,
                        double Mean = 0.0, double M2 = 0.0, double Sum = 0.0,
                        double Max = 0.0, double Min = 0.0) {
  WelfordReference Ref;
  RunningStat S;
  if (N) {
    Ref = {N, Mean, M2, Sum, Max, Min};
    S = RunningStat::fromMoments(N, Mean, M2, Sum, Max, Min);
  }
  for (size_t I = 0; I < Xs.size(); ++I) {
    Ref.add(Xs[I]);
    S.add(Xs[I]);
    std::string Ctx = "sample " + std::to_string(I) + " (" +
                      std::to_string(Xs[I]) + ") from mean " +
                      std::to_string(Mean);
    ASSERT_EQ(S.count(), Ref.N) << Ctx;
    ASSERT_EQ(bits(S.mean()), bits(Ref.Mean)) << Ctx;
    ASSERT_EQ(bits(S.m2()), bits(Ref.M2)) << Ctx;
    ASSERT_EQ(bits(S.sum()), bits(Ref.Sum)) << Ctx;
    ASSERT_EQ(bits(S.max()), bits(Ref.Max)) << Ctx;
    ASSERT_EQ(bits(S.min()), bits(Ref.Min)) << Ctx;
  }
}

} // namespace

TEST(RunningStat, FastStepIsBitIdenticalToWelford) {
  const double Inf = std::numeric_limits<double>::infinity();
  const double NaN = std::numeric_limits<double>::quiet_NaN();
  const double Den = std::numeric_limits<double>::denorm_min();
  // Heavily repeated values, as call-loop edges produce them.
  expectBitIdentical({7, 7, 7, 7, 7, 9, 7, 7, 7, 9, 9, 9, 7});
  expectBitIdentical({1e15, 1e15, 1e15 + 1, 1e15, 1e15, 0.1, 0.1, 0.1});
  expectBitIdentical({0.3, 0.3, 0.3, 0.1 + 0.2, 0.3, 0.3});
  // Signed zeros, infinities, NaN and denormals, repeated.
  expectBitIdentical({0.0, 0.0, -0.0, -0.0, 0.0, -0.0});
  expectBitIdentical({-0.0, -0.0, 0.0, 0.0, -0.0});
  expectBitIdentical({Inf, Inf, 1.0, 1.0});
  expectBitIdentical({-Inf, -Inf, -Inf});
  expectBitIdentical({NaN, NaN, 1.0, 1.0});
  expectBitIdentical({Den, Den, Den, 2 * Den, Den, -Den, -Den});
  expectBitIdentical({-3.0, -3.0, -3.0, -1.0, -1.0});
  // Start states only deserialization reaches: a -0 mean, a -0 M2,
  // infinite and NaN moments, negative and denormal means.
  expectBitIdentical({0.0, -0.0, -0.0, 0.0}, 3, -0.0, 0.0, -0.0, -0.0, -0.0);
  expectBitIdentical({-0.0, 0.0, 0.0}, 2, -0.0, -0.0, 0.0, 0.0, -0.0);
  expectBitIdentical({2.0, 2.0, 3.0}, 4, 2.0, -0.0, 8.0, 2.0, 2.0);
  expectBitIdentical({5.0, 5.0}, 2, 5.0, Inf, 10.0, 5.0, 5.0);
  expectBitIdentical({5.0, 5.0}, 2, 5.0, NaN, 10.0, 5.0, 5.0);
  expectBitIdentical({5.0, 5.0}, 2, 5.0, -1.0, 10.0, 5.0, 5.0);
  expectBitIdentical({Inf, Inf}, 1, Inf, 0.0, Inf, Inf, Inf);
  expectBitIdentical({NaN, 4.0}, 1, NaN, 0.0, 4.0, 4.0, 4.0);
  expectBitIdentical({-6.0, -6.0}, 3, -6.0, 0.0, -18.0, -6.0, -6.0);
  expectBitIdentical({Den, Den}, 5, Den, 0.0, 5 * Den, Den, Den);

  // Random runs over a small palette: long stretches of repeats broken by
  // the specials above.
  const std::vector<double> Palette = {0.0,  -0.0, 1.0, 3.0,  1e300,
                                       0.5,  Den,  Inf, -Inf, NaN,
                                       12.0, 12.0, 12.0};
  Rng R(2024);
  for (int Trial = 0; Trial < 200; ++Trial) {
    std::vector<double> Xs;
    while (Xs.size() < 64) {
      double X = Palette[R.nextBelow(Palette.size())];
      for (uint64_t K = 1 + R.nextBelow(8); K; --K)
        Xs.push_back(X);
    }
    expectBitIdentical(Xs);
  }
}

TEST(RunningStat, FromMomentsRoundTrip) {
  RunningStat S;
  for (double X : {2.5, -1.0, 7.25, 3.0})
    S.add(X);
  RunningStat R = RunningStat::fromMoments(S.count(), S.mean(), S.m2(),
                                           S.sum(), S.max(), S.min());
  EXPECT_EQ(R.count(), S.count());
  EXPECT_DOUBLE_EQ(R.mean(), S.mean());
  EXPECT_DOUBLE_EQ(R.variance(), S.variance());
  EXPECT_DOUBLE_EQ(R.sum(), S.sum());
  EXPECT_DOUBLE_EQ(R.max(), S.max());
  EXPECT_DOUBLE_EQ(R.min(), S.min());
  // The rebuilt accumulator must keep accumulating correctly.
  R.add(100.0);
  S.add(100.0);
  EXPECT_DOUBLE_EQ(R.mean(), S.mean());
  EXPECT_NEAR(R.variance(), S.variance(), 1e-9);
}

TEST(RunningStat, FromMomentsZeroCountIsEmpty) {
  // N == 0 must yield a pristine accumulator whatever the other fields
  // claim (a serialized empty stat may carry garbage moments).
  RunningStat R = RunningStat::fromMoments(0, 99.0, 7.0, 123.0, 5.0, -5.0);
  EXPECT_EQ(R.count(), 0u);
  EXPECT_EQ(R.mean(), 0.0);
  EXPECT_EQ(R.max(), 0.0);
  EXPECT_EQ(R.min(), 0.0);
  R.add(3.0);
  EXPECT_DOUBLE_EQ(R.mean(), 3.0);
  EXPECT_DOUBLE_EQ(R.min(), 3.0);
  EXPECT_DOUBLE_EQ(R.max(), 3.0);
}

//===----------------------------------------------------------------------===//
// WeightedStat
//===----------------------------------------------------------------------===//

TEST(WeightedStat, UnitWeightsMatchRunningStat) {
  RunningStat R;
  WeightedStat W;
  for (double X : {1.0, 2.0, 3.0, 10.0}) {
    R.add(X);
    W.add(X, 1.0);
  }
  EXPECT_NEAR(R.mean(), W.mean(), 1e-12);
  EXPECT_NEAR(R.variance(), W.variance(), 1e-9);
}

TEST(WeightedStat, WeightsActAsReplication) {
  WeightedStat W;
  W.add(2.0, 3.0); // Like adding 2.0 three times.
  W.add(8.0, 1.0);
  RunningStat R;
  R.add(2);
  R.add(2);
  R.add(2);
  R.add(8);
  EXPECT_NEAR(W.mean(), R.mean(), 1e-12);
  EXPECT_NEAR(W.variance(), R.variance(), 1e-9);
}

TEST(WeightedStat, ZeroWeightIgnored) {
  WeightedStat W;
  W.add(100.0, 0.0);
  EXPECT_EQ(W.totalWeight(), 0.0);
  EXPECT_EQ(W.mean(), 0.0);
  EXPECT_EQ(W.cov(), 0.0);
}

TEST(WeightedStat, ConstantStreamZeroCov) {
  WeightedStat W;
  for (int I = 1; I <= 10; ++I)
    W.add(5.0, I);
  EXPECT_NEAR(W.cov(), 0.0, 1e-9);
}

//===----------------------------------------------------------------------===//
// Table
//===----------------------------------------------------------------------===//

TEST(Table, AlignsColumns) {
  Table T;
  T.row().cell("name").cell("value");
  T.row().cell("x").cell(uint64_t{12345});
  T.row().cell("longer-name").cell(3.14159, 2);
  std::string S = T.str();
  EXPECT_NE(S.find("name"), std::string::npos);
  EXPECT_NE(S.find("12345"), std::string::npos);
  EXPECT_NE(S.find("3.14"), std::string::npos);
  // Header underline present.
  EXPECT_NE(S.find("----"), std::string::npos);
}

TEST(Table, PercentCell) {
  Table T;
  T.row().percentCell(0.1234, 1);
  EXPECT_NE(T.str().find("12.3%"), std::string::npos);
}

TEST(Table, FormatDouble) {
  EXPECT_EQ(formatDouble(1.5, 2), "1.50");
  EXPECT_EQ(formatDouble(-0.125, 3), "-0.125");
  EXPECT_EQ(formatDouble(2.0, 0), "2");
}

TEST(Table, NegativeAndRowCount) {
  Table T;
  EXPECT_EQ(T.numRows(), 0u);
  T.row().cell("delta").cell("-42");
  T.row().cell("count").cell(7u);
  EXPECT_EQ(T.numRows(), 2u);
  EXPECT_NE(T.str().find("-42"), std::string::npos);
}

TEST(Table, RaggedRowsRender) {
  // Rows need not share a length; short rows just end early.
  Table T;
  T.row().cell("a").cell("b").cell("c");
  T.row().cell("only");
  EXPECT_EQ(T.str(), "a     b  c\n----------\nonly\n");
}

//===----------------------------------------------------------------------===//
// RNG state save/restore (checkpoint support)
//===----------------------------------------------------------------------===//

TEST(Random, StateRoundTripResumesStream) {
  Rng A(0xdecafULL);
  // Burn an arbitrary prefix mixing draw kinds so all state words move.
  for (int I = 0; I < 137; ++I) {
    A.next();
    A.nextBelow(10 + I);
    A.nextDouble();
  }
  RngState St = A.state();
  Rng B(1); // Different seed: every word must come from the snapshot.
  B.setState(St);
  for (int I = 0; I < 1000; ++I)
    EXPECT_EQ(A.next(), B.next());
}

TEST(Random, StateRoundTripPreservesGaussianSpare) {
  Rng A(0xfeedULL);
  // Draw an odd number of Gaussians so a spare is buffered.
  A.nextGaussian();
  RngState St = A.state();
  EXPECT_TRUE(St.HaveSpare);

  Rng B(2);
  B.setState(St);
  // The buffered spare must come out first on both, then the streams
  // continue in lockstep.
  EXPECT_EQ(A.nextGaussian(), B.nextGaussian());
  for (int I = 0; I < 100; ++I)
    EXPECT_EQ(A.nextGaussian(), B.nextGaussian());
  EXPECT_EQ(A.next(), B.next());
}

TEST(Random, StateSnapshotIsImmutable) {
  // Advancing the source generator must not change an already-taken
  // snapshot (it is a value copy, not a view).
  Rng A(11);
  RngState St = A.state();
  RngState Copy = St;
  A.next();
  A.nextGaussian();
  for (int I = 0; I < 4; ++I)
    EXPECT_EQ(St.S[I], Copy.S[I]);
  EXPECT_EQ(St.HaveSpare, Copy.HaveSpare);

  // And restoring twice from the same snapshot replays the same stream.
  Rng B(3), C(4);
  B.setState(St);
  C.setState(St);
  for (int I = 0; I < 200; ++I)
    EXPECT_EQ(B.next(), C.next());
}

TEST(Random, SplitMixStateRoundTrip) {
  SplitMix64 A(99);
  for (int I = 0; I < 57; ++I)
    A.next();
  SplitMix64 B(0);
  B.setState(A.state());
  for (int I = 0; I < 500; ++I)
    EXPECT_EQ(A.next(), B.next());
}

//===----------------------------------------------------------------------===//
// MetricHistogram percentiles
//===----------------------------------------------------------------------===//

TEST(MetricHistogram, EmptyPercentilesAreZero) {
  MetricHistogram H;
  EXPECT_EQ(H.percentile(0.5), 0.0);
  EXPECT_EQ(H.percentile(0.99), 0.0);
}

TEST(MetricHistogram, PercentileWithinOneBucketRatio) {
  // 1000 samples spread over three decades; log buckets guarantee the
  // estimate is within one bucket ratio (10^(1/8)) of the true order
  // statistic.
  MetricHistogram H;
  std::vector<double> Xs;
  for (int I = 1; I <= 1000; ++I) {
    double X = 0.001 * static_cast<double>(I); // 0.001 .. 1.0
    Xs.push_back(X);
    H.forceRecord(X);
  }
  double Ratio = std::pow(10.0, 1.0 / MetricHistogram::BucketsPerDecade);
  for (double Q : {0.5, 0.9, 0.99}) {
    double True = Xs[static_cast<size_t>(Q * Xs.size()) - 1];
    double Est = H.percentile(Q);
    EXPECT_GE(Est, True / Ratio) << "q=" << Q;
    EXPECT_LE(Est, True * Ratio) << "q=" << Q;
  }
}

TEST(MetricHistogram, PercentilesAreMonotone) {
  MetricHistogram H;
  Rng R(11);
  for (int I = 0; I < 500; ++I)
    H.forceRecord(std::exp(R.nextGaussian() * 2.0));
  double Last = 0.0;
  for (double Q : {0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0}) {
    double P = H.percentile(Q);
    EXPECT_GE(P, Last) << "q=" << Q;
    Last = P;
  }
}

TEST(MetricHistogram, UnderflowAndOverflowBuckets) {
  MetricHistogram H;
  H.forceRecord(0.0);   // Underflow: non-positive.
  H.forceRecord(-5.0);  // Underflow.
  H.forceRecord(1e12);  // Overflow: beyond the top decade.
  EXPECT_EQ(H.percentile(0.01), 0.0);
  EXPECT_EQ(H.percentile(0.5), 0.0);
  EXPECT_EQ(H.percentile(1.0), 1e9);
  H.reset();
  EXPECT_EQ(H.snapshot().count(), 0u);
  EXPECT_EQ(H.percentile(0.5), 0.0);
}

TEST(MetricHistogram, SingleSampleEveryQuantile) {
  MetricHistogram H;
  H.forceRecord(0.25);
  double Ratio = std::pow(10.0, 1.0 / MetricHistogram::BucketsPerDecade);
  for (double Q : {0.0, 0.5, 1.0}) {
    double P = H.percentile(Q);
    EXPECT_GE(P, 0.25 / Ratio);
    EXPECT_LE(P, 0.25 * Ratio);
  }
}
