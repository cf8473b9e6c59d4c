//===- tests/simpoint_test.cpp - clustering & simulation points -----------==//

#include "ir/Lowering.h"
#include "markers/Pipeline.h"
#include "markers/Selector.h"
#include "simpoint/KMeans.h"
#include "simpoint/Projection.h"
#include "simpoint/SimPoint.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <cmath>

using namespace spm;

namespace {

/// Three well-separated Gaussian blobs in 2D.
std::vector<std::vector<double>> blobs(int PerBlob, uint64_t Seed) {
  Rng R(Seed);
  std::vector<std::vector<double>> Pts;
  const double Centers[3][2] = {{0, 0}, {10, 0}, {0, 10}};
  for (int C = 0; C < 3; ++C)
    for (int I = 0; I < PerBlob; ++I)
      Pts.push_back({Centers[C][0] + R.nextGaussian() * 0.5,
                     Centers[C][1] + R.nextGaussian() * 0.5});
  return Pts;
}

} // namespace

//===----------------------------------------------------------------------===//
// k-means
//===----------------------------------------------------------------------===//

TEST(KMeans, RecoversBlobs) {
  auto Pts = blobs(50, 1);
  std::vector<double> W(Pts.size(), 1.0);
  KMeansResult R = kmeansCluster(Pts, W, 3, 7);
  // All points of a blob share a cluster.
  for (int C = 0; C < 3; ++C)
    for (int I = 1; I < 50; ++I)
      EXPECT_EQ(R.Assign[C * 50 + I], R.Assign[C * 50]) << "blob " << C;
  // The three blobs use three distinct clusters.
  EXPECT_NE(R.Assign[0], R.Assign[50]);
  EXPECT_NE(R.Assign[50], R.Assign[100]);
  EXPECT_NE(R.Assign[0], R.Assign[100]);
}

TEST(KMeans, DeterministicForSeed) {
  auto Pts = blobs(30, 2);
  std::vector<double> W(Pts.size(), 1.0);
  KMeansResult A = kmeansCluster(Pts, W, 4, 11);
  KMeansResult B = kmeansCluster(Pts, W, 4, 11);
  EXPECT_EQ(A.Assign, B.Assign);
  EXPECT_DOUBLE_EQ(A.Distortion, B.Distortion);
}

TEST(KMeans, MoreClustersNeverWorse) {
  auto Pts = blobs(40, 3);
  std::vector<double> W(Pts.size(), 1.0);
  double Prev = 1e300;
  for (uint32_t K : {1u, 2u, 3u, 5u, 8u}) {
    KMeansResult R = kmeansCluster(Pts, W, K, 5, /*Restarts=*/8);
    EXPECT_LE(R.Distortion, Prev * 1.0001) << "k " << K;
    Prev = R.Distortion;
  }
}

TEST(KMeans, WeightsPullCentroids) {
  // Two points; the heavy one dominates the single centroid.
  std::vector<std::vector<double>> Pts = {{0.0}, {10.0}};
  std::vector<double> W = {9.0, 1.0};
  KMeansResult R = kmeansCluster(Pts, W, 1, 3);
  EXPECT_NEAR(R.Centroids[0][0], 1.0, 1e-9);
}

TEST(KMeans, KClampedToPointCount) {
  std::vector<std::vector<double>> Pts = {{0.0}, {1.0}};
  std::vector<double> W = {1.0, 1.0};
  KMeansResult R = kmeansCluster(Pts, W, 10, 3);
  EXPECT_LE(R.K, 2u);
}

TEST(Bic, PrefersTrueK) {
  auto Pts = blobs(60, 4);
  std::vector<double> W(Pts.size(), 1.0);
  KMeansResult R = pickClustering(Pts, W, {1, 2, 3, 4, 5, 6}, 9);
  // The smallest k reaching 90% of the BIC range should be the true 3 (or
  // rarely 2/4 depending on seeding); must not degenerate to 1 or 6.
  EXPECT_GE(R.K, 2u);
  EXPECT_LE(R.K, 4u);
}

//===----------------------------------------------------------------------===//
// Projection
//===----------------------------------------------------------------------===//

TEST(Projection, DeterministicAndSeedSensitive) {
  Bbv V = {{1, 5.0}, {7, 3.0}, {12, 2.0}};
  ProjectedVec A = projectBbv(V, 15, 42);
  ProjectedVec B = projectBbv(V, 15, 42);
  ProjectedVec C = projectBbv(V, 15, 43);
  EXPECT_EQ(A, B);
  EXPECT_NE(A, C);
  EXPECT_EQ(A.size(), 15u);
}

TEST(Projection, NormalizationMakesScaleIrrelevant) {
  Bbv V1 = {{1, 5.0}, {7, 3.0}};
  Bbv V2 = {{1, 50.0}, {7, 30.0}}; // Same distribution, 10x weight.
  ProjectedVec A = projectBbv(V1, 8, 1);
  ProjectedVec B = projectBbv(V2, 8, 1);
  for (size_t I = 0; I < A.size(); ++I)
    EXPECT_NEAR(A[I], B[I], 1e-12);
}

TEST(Projection, DistinctCodeSeparates) {
  // Vectors over disjoint blocks should project far apart relative to
  // vectors over the same blocks.
  Bbv A = {{1, 1.0}, {2, 1.0}};
  Bbv B = {{100, 1.0}, {101, 1.0}};
  ProjectedVec PA = projectBbv(A, 15, 5);
  ProjectedVec PB = projectBbv(B, 15, 5);
  double D = 0;
  for (size_t I = 0; I < PA.size(); ++I)
    D += (PA[I] - PB[I]) * (PA[I] - PB[I]);
  EXPECT_GT(D, 0.1);
}

TEST(Projection, EmptyVectorProjectsToZero) {
  ProjectedVec P = projectBbv({}, 15, 1);
  for (double X : P)
    EXPECT_EQ(X, 0.0);
}

//===----------------------------------------------------------------------===//
// End-to-end SimPoint
//===----------------------------------------------------------------------===//

namespace {

std::vector<IntervalRecord> gzipFixedIntervals(uint64_t Len) {
  Workload W = WorkloadRegistry::create("gzip");
  auto B = lower(*W.Program, LoweringOptions::O2());
  return runFixedIntervals(*B, W.Ref, Len, /*CollectBbv=*/true);
}

} // namespace

TEST(SimPoint, FindsMultiplePhasesInGzip) {
  auto Ivs = gzipFixedIntervals(10000);
  ASSERT_GT(Ivs.size(), 50u);
  SimPointResult SP = runSimPoint(Ivs, SimPointConfig());
  EXPECT_GE(SP.K, 2u);
  EXPECT_LE(SP.K, 10u);
  EXPECT_EQ(SP.Assign.size(), Ivs.size());
  // Cluster weights sum to ~1.
  double Sum = 0;
  for (const SimPointChoice &C : SP.Points)
    Sum += C.Weight;
  EXPECT_NEAR(Sum, 1.0, 1e-9);
}

TEST(SimPoint, CpiEstimateAccurate) {
  auto Ivs = gzipFixedIntervals(10000);
  SimPointResult SP = runSimPoint(Ivs, SimPointConfig());
  CpiEstimate E = estimateCpi(Ivs, SP, 1.0);
  EXPECT_GT(E.TrueCpi, 1.0);
  // SimPoint on a phase-regular program lands within a few percent.
  EXPECT_LT(E.RelError, 0.10);
  EXPECT_GT(E.SimulatedInstrs, 0u);
  EXPECT_LE(E.SimulatedInstrs, totalInstructions(Ivs));
}

TEST(SimPoint, CoverageFilterTradesTimeForError) {
  auto Ivs = gzipFixedIntervals(10000);
  SimPointResult SP = runSimPoint(Ivs, SimPointConfig());
  CpiEstimate Full = estimateCpi(Ivs, SP, 1.0);
  CpiEstimate P95 = estimateCpi(Ivs, SP, 0.95);
  EXPECT_LE(P95.PointsUsed, Full.PointsUsed);
  EXPECT_LE(P95.SimulatedInstrs, Full.SimulatedInstrs);
}

TEST(SimPoint, VliWeightingHandlesUnequalIntervals) {
  // Cluster marker-cut VLIs with length weighting: the estimate must use
  // instruction-mass weights, not interval counts.
  Workload W = WorkloadRegistry::create("gzip");
  auto B = lower(*W.Program, LoweringOptions::O2());
  LoopIndex Loops = LoopIndex::build(*B);
  auto G = buildCallLoopGraph(*B, Loops, W.Train);
  SelectorConfig C;
  C.ILower = 10000;
  C.Limit = true;
  C.MaxLimit = 200000;
  SelectionResult Sel = selectMarkers(*G, C);
  MarkerRun Run = runMarkerIntervals(*B, Loops, *G, Sel.Markers, W.Ref,
                                     /*CollectBbv=*/true);
  ASSERT_GT(Run.Intervals.size(), 10u);

  SimPointConfig SPC;
  SPC.WeightByLength = true;
  SimPointResult SP = runSimPoint(Run.Intervals, SPC);
  CpiEstimate E = estimateCpi(Run.Intervals, SP, 1.0);
  EXPECT_LT(E.RelError, 0.12);
}

TEST(SimPoint, SmallerIntervalsMeanLessSimulationTime) {
  auto Coarse = gzipFixedIntervals(100000);
  auto Fine = gzipFixedIntervals(10000);
  SimPointConfig Cfg;
  Cfg.KMax = 10;
  CpiEstimate ECoarse = estimateCpi(Coarse, runSimPoint(Coarse, Cfg), 1.0);
  CpiEstimate EFine = estimateCpi(Fine, runSimPoint(Fine, Cfg), 1.0);
  // Fig. 11's shape: simulated instructions scale with interval size.
  EXPECT_LT(EFine.SimulatedInstrs, ECoarse.SimulatedInstrs);
}
