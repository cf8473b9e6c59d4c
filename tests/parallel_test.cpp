//===- tests/parallel_test.cpp - serial-equivalence differential tests ----==//
//
// The determinism contract of the parallel execution layer
// (docs/parallelism.md): every parallelized site must produce bit-identical
// results at jobs=1 (pure serial, no pool) and jobs=4. Checked
// differentially for each site — k-means clustering, the suite-summary
// rows, and marker-interval streams built on graphs profiled on pool
// workers — swept over workloads x seeds. Also
// pins the k-means restart seed-derivation scheme, which the equivalence
// relies on. Run under SPM_SANITIZE=thread in CI.
//
//===----------------------------------------------------------------------===//

#include "../bench/BenchUtil.h"
#include "simpoint/KMeans.h"
#include "simpoint/Projection.h"
#include "support/Parallel.h"

#include <gtest/gtest.h>

using namespace spm;
using namespace spm::bench;

namespace {

/// Sets the ambient job count for one scope, restoring on exit so tests
/// cannot leak a job count into each other.
class ScopedJobs {
public:
  explicit ScopedJobs(int Jobs) : Saved(parallelJobs()) {
    setParallelJobs(Jobs);
  }
  ~ScopedJobs() { setParallelJobs(static_cast<int>(Saved)); }

private:
  unsigned Saved;
};

void expectSameCounters(const PerfCounters &A, const PerfCounters &B,
                        size_t Idx) {
  EXPECT_EQ(A.Instrs, B.Instrs) << "interval " << Idx;
  EXPECT_EQ(A.BaseCycles, B.BaseCycles) << "interval " << Idx;
  EXPECT_EQ(A.L1Accesses, B.L1Accesses) << "interval " << Idx;
  EXPECT_EQ(A.L1Misses, B.L1Misses) << "interval " << Idx;
  EXPECT_EQ(A.Branches, B.Branches) << "interval " << Idx;
  EXPECT_EQ(A.Mispredicts, B.Mispredicts) << "interval " << Idx;
}

void expectSameIntervals(const std::vector<IntervalRecord> &A,
                         const std::vector<IntervalRecord> &B) {
  ASSERT_EQ(A.size(), B.size());
  for (size_t I = 0; I < A.size(); ++I) {
    EXPECT_EQ(A[I].StartInstr, B[I].StartInstr) << "interval " << I;
    EXPECT_EQ(A[I].NumInstrs, B[I].NumInstrs) << "interval " << I;
    EXPECT_EQ(A[I].PhaseId, B[I].PhaseId) << "interval " << I;
    EXPECT_EQ(A[I].Vector, B[I].Vector) << "interval " << I;
    expectSameCounters(A[I].Perf, B[I].Perf, I);
  }
}

class SerialEquivalence
    : public ::testing::TestWithParam<std::tuple<std::string, uint64_t>> {
protected:
  std::string name() const { return std::get<0>(GetParam()); }
  uint64_t seed() const { return std::get<1>(GetParam()); }
};

} // namespace

TEST_P(SerialEquivalence, KMeansBitIdentical) {
  // Real BBV points from the workload, projected with the sweep seed.
  Workload W = WorkloadRegistry::create(name());
  auto Bin = lower(*W.Program, LoweringOptions::O2());
  std::vector<IntervalRecord> Ivs =
      runFixedIntervals(*Bin, W.Ref, FixedBbvInterval, /*CollectBbv=*/true);
  std::vector<ProjectedVec> Pts = projectIntervals(Ivs, 15, seed());
  std::vector<double> Wt(Pts.size());
  for (size_t I = 0; I < Ivs.size(); ++I)
    Wt[I] = static_cast<double>(Ivs[I].NumInstrs);

  KMeansResult Serial, Parallel;
  {
    ScopedJobs J(1);
    Serial = kmeansCluster(Pts, Wt, 6, seed(), /*Restarts=*/5);
  }
  {
    ScopedJobs J(4);
    Parallel = kmeansCluster(Pts, Wt, 6, seed(), /*Restarts=*/5);
  }
  EXPECT_EQ(Serial.K, Parallel.K);
  EXPECT_EQ(Serial.Assign, Parallel.Assign);
  EXPECT_EQ(Serial.Centroids, Parallel.Centroids); // Exact doubles.
  EXPECT_EQ(Serial.Distortion, Parallel.Distortion);
}

TEST_P(SerialEquivalence, PickClusteringBitIdentical) {
  // The full model-selection sweep (parallel over k AND restarts).
  Workload W = WorkloadRegistry::create(name());
  auto Bin = lower(*W.Program, LoweringOptions::O2());
  std::vector<IntervalRecord> Ivs =
      runFixedIntervals(*Bin, W.Ref, FixedBbvInterval, /*CollectBbv=*/true);
  std::vector<ProjectedVec> Pts = projectIntervals(Ivs, 15, seed());
  std::vector<double> Wt(Pts.size(), 1.0);

  KMeansResult Serial, Parallel;
  {
    ScopedJobs J(1);
    Serial = pickClustering(Pts, Wt, {1, 2, 3, 4, 5, 6, 7, 8}, seed());
  }
  {
    ScopedJobs J(4);
    Parallel = pickClustering(Pts, Wt, {1, 2, 3, 4, 5, 6, 7, 8}, seed());
  }
  EXPECT_EQ(Serial.K, Parallel.K);
  EXPECT_EQ(Serial.Assign, Parallel.Assign);
  EXPECT_EQ(Serial.Centroids, Parallel.Centroids);
  EXPECT_EQ(Serial.Distortion, Parallel.Distortion);
}

TEST_P(SerialEquivalence, SuiteSummaryRowBitIdentical) {
  // The whole per-workload suite-summary computation (profiling, marker
  // selection, interval run, clustering) under the serial path vs the
  // worker pool. Seeds do not enter this row; the sweep still runs it per
  // (workload, seed) so every configuration exercises the pool.
  SuiteRow Serial, Parallel;
  {
    ScopedJobs J(1);
    Serial = computeSuiteRow(prepare(name()));
  }
  {
    ScopedJobs J(4);
    Parallel = computeSuiteRow(prepare(name()));
  }
  EXPECT_EQ(Serial.Name, Parallel.Name);
  EXPECT_EQ(Serial.Funcs, Parallel.Funcs);
  EXPECT_EQ(Serial.Blocks, Parallel.Blocks);
  EXPECT_EQ(Serial.Loops, Parallel.Loops);
  EXPECT_EQ(Serial.TrainMInstr, Parallel.TrainMInstr);
  EXPECT_EQ(Serial.RefMInstr, Parallel.RefMInstr);
  EXPECT_EQ(Serial.Markers, Parallel.Markers);
  EXPECT_EQ(Serial.Phases, Parallel.Phases);
  EXPECT_EQ(Serial.AvgIv, Parallel.AvgIv);
  EXPECT_EQ(Serial.CovCpi, Parallel.CovCpi);
  EXPECT_EQ(Serial.Whole10K, Parallel.Whole10K);
}

TEST_P(SerialEquivalence, MarkerIntervalStreamBitIdentical) {
  // Multi-input profiling (Pipeline.h buildCallLoopGraphs) followed by a
  // marker run on a seed-derived input: firing order and every interval
  // field must match the serial path exactly.
  Workload W = WorkloadRegistry::create(name());
  auto Bin = lower(*W.Program, LoweringOptions::O2());
  LoopIndex Loops = LoopIndex::build(*Bin);
  WorkloadInput Mid = W.midInput(seed());

  auto RunAll = [&](int Jobs) {
    ScopedJobs J(Jobs);
    auto Graphs = buildCallLoopGraphs(*Bin, Loops, {&W.Train, &Mid});
    SelectorConfig C;
    C.ILower = ILower;
    MarkerSet M = selectMarkers(*Graphs[0], C).Markers;
    return runMarkerIntervals(*Bin, Loops, *Graphs[0], M, Mid,
                              /*CollectBbv=*/true, /*RecordFirings=*/true);
  };
  MarkerRun Serial = RunAll(1);
  MarkerRun Parallel = RunAll(4);
  EXPECT_EQ(Serial.Firings, Parallel.Firings);
  EXPECT_EQ(Serial.Run.TotalInstrs, Parallel.Run.TotalInstrs);
  expectSameIntervals(Serial.Intervals, Parallel.Intervals);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SerialEquivalence,
    ::testing::Combine(::testing::Values(std::string("gzip"),
                                         std::string("bzip2"),
                                         std::string("mcf")),
                       ::testing::Values(7ull, 42ull)),
    [](const auto &Info) {
      return std::get<0>(Info.param) + "_seed" +
             std::to_string(std::get<1>(Info.param));
    });

//===----------------------------------------------------------------------===//
// Seed-derivation scheme regression pins
//===----------------------------------------------------------------------===//

TEST(KMeansSeedScheme, RestartSeedsAreTheSplitMixStreamOfTheMasterSeed) {
  // Restart T draws Rng(kmeansRestartSeed(Seed, T)), where the restart
  // seeds are exactly the SplitMix64(Seed) output stream — derived by
  // index up front, never from a generator shared across restarts. This
  // is what makes parallel restarts bit-identical to serial; changing the
  // scheme silently reshuffles every clustering in the repo.
  for (uint64_t Seed : {0ull, 123ull, 0xdeadbeefull}) {
    SplitMix64 SM(Seed);
    for (int T = 0; T < 8; ++T)
      EXPECT_EQ(kmeansRestartSeed(Seed, T), SM.next())
          << "seed " << Seed << " restart " << T;
  }
}

TEST(KMeansSeedScheme, ClusterIsBestOfIndependentSingleRuns) {
  // kmeansCluster(.., Seed, R) == the lowest-distortion (earliest on
  // ties) of R kmeansSingleRun calls on the derived seeds.
  Rng R(99);
  std::vector<std::vector<double>> Pts;
  for (int I = 0; I < 120; ++I)
    Pts.push_back({R.nextGaussian() + (I % 3) * 8.0,
                   R.nextGaussian() + (I % 2) * 5.0});
  std::vector<double> W(Pts.size(), 1.0);

  const uint64_t Seed = 17;
  const int Restarts = 6;
  KMeansResult Full = kmeansCluster(Pts, W, 3, Seed, Restarts);

  KMeansResult Best;
  Best.Distortion = std::numeric_limits<double>::infinity();
  for (int T = 0; T < Restarts; ++T) {
    KMeansResult One =
        kmeansSingleRun(Pts, W, 3, kmeansRestartSeed(Seed, T));
    if (One.Distortion < Best.Distortion)
      Best = One;
  }
  EXPECT_EQ(Full.Assign, Best.Assign);
  EXPECT_EQ(Full.Centroids, Best.Centroids);
  EXPECT_EQ(Full.Distortion, Best.Distortion);
}
