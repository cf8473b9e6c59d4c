//===- tests/adaptcache_test.cpp - Sec. 6.1 reconfiguration ---------------==//

#include "adaptcache/Policies.h"
#include "ir/Lowering.h"
#include "markers/Selector.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <stdexcept>

using namespace spm;

namespace {

struct Prepared {
  std::unique_ptr<Binary> Bin;
  LoopIndex Loops;
  std::unique_ptr<CallLoopGraph> Graph;
  MarkerSet Markers;
  Workload W;

  explicit Prepared(const std::string &Name)
      : W(WorkloadRegistry::create(Name)) {
    Bin = lower(*W.Program, LoweringOptions::O2());
    Loops = LoopIndex::build(*Bin);
    Graph = buildCallLoopGraph(*Bin, Loops, W.Train);
    SelectorConfig C;
    C.ILower = 10000;
    Markers = selectMarkers(*Graph, C).Markers;
  }
};

} // namespace

TEST(AdaptiveCache, EngineExploresThenLocks) {
  AdaptiveCacheEngine Engine;
  // Synthesize a run: phase 7 recurs; its accesses fit 32KB.
  LoweredBlock Blk;
  Blk.NumInstrs = 100;
  for (int Interval = 0; Interval < 6; ++Interval) {
    Engine.onPhaseBoundary(7);
    for (int I = 0; I < 2000; ++I) {
      Engine.onBlock(Blk);
      Engine.onMemAccess((1ull << 32) + (I % 256) * 64, false);
    }
  }
  Engine.onRunEnd(0);
  AdaptiveCacheResult R = Engine.result();
  EXPECT_EQ(R.Intervals, 6u);
  EXPECT_EQ(R.Explorations, 2u); // First two intervals of phase 7.
  // After locking, phase 7 runs at the smallest size.
  EXPECT_DOUBLE_EQ(Engine.chosenSizeKB(7), 32.0);
  // Weighted average: 2 intervals at 256KB + 4 at 32KB over 6 equal ones.
  EXPECT_NEAR(R.AvgCacheKB, (2 * 256.0 + 4 * 32.0) / 6.0, 1.0);
}

TEST(AdaptiveCache, EngineRejectsEmptySweep) {
  try {
    AdaptiveCacheEngine Engine(std::vector<CacheConfig>{});
    FAIL() << "empty sweep accepted";
  } catch (const std::invalid_argument &E) {
    EXPECT_NE(std::strstr(E.what(), "empty"), nullptr) << E.what();
  }
}

TEST(AdaptiveCache, EngineRejectsDescendingSweep) {
  // Descending, the engine would explore at 32KB and lock in the largest
  // adequate size.
  std::vector<CacheConfig> Sweep = CacheConfig::reconfigSweep();
  std::reverse(Sweep.begin(), Sweep.end());
  try {
    AdaptiveCacheEngine Engine(Sweep);
    FAIL() << "descending sweep accepted";
  } catch (const std::invalid_argument &E) {
    EXPECT_NE(std::strstr(E.what(), "entry 1 (Assoc = 7)"), nullptr)
        << E.what();
  }
}

TEST(AdaptiveCache, EngineRejectsRepeatedAssoc) {
  std::vector<CacheConfig> Sweep = {
      {512, 1, 64}, {512, 2, 64}, {512, 4, 64}, {512, 4, 64}, {512, 8, 64}};
  try {
    AdaptiveCacheEngine Engine(Sweep);
    FAIL() << "repeated Assoc accepted";
  } catch (const std::invalid_argument &E) {
    EXPECT_NE(std::strstr(E.what(), "entry 3 (Assoc = 4)"), nullptr)
        << E.what();
  }
}

TEST(AdaptiveCache, OraclePassOneMatchesFixedIntervals) {
  // The oracle's first pass runs no PerfModel; the BBVs and lengths it
  // clusters must still be exactly runFixedIntervals'.
  Workload W = WorkloadRegistry::create("swim");
  auto Bin = lower(*W.Program, LoweringOptions::O2());
  std::vector<IntervalRecord> Got = oracleBbvIntervals(*Bin, W.Ref, 10000);
  std::vector<IntervalRecord> Want =
      runFixedIntervals(*Bin, W.Ref, 10000, /*CollectBbv=*/true);
  ASSERT_EQ(Got.size(), Want.size());
  ASSERT_GT(Got.size(), 10u);
  for (size_t I = 0; I < Got.size(); ++I) {
    EXPECT_EQ(Got[I].NumInstrs, Want[I].NumInstrs) << "interval " << I;
    EXPECT_EQ(Got[I].Vector, Want[I].Vector) << "interval " << I;
  }
}

TEST(AdaptiveCache, BigWorkingSetKeepsBigCache) {
  AdaptiveCacheEngine Engine;
  LoweredBlock Blk;
  Blk.NumInstrs = 100;
  Rng R(3);
  for (int Interval = 0; Interval < 5; ++Interval) {
    Engine.onPhaseBoundary(1);
    for (int I = 0; I < 12000; ++I) {
      Engine.onBlock(Blk);
      // 220KB working set: only the 256KB config avoids capacity misses.
      Engine.onMemAccess((1ull << 32) + R.nextBelow(3520) * 64, false);
    }
  }
  Engine.onRunEnd(0);
  EXPECT_GE(Engine.chosenSizeKB(1), 224.0);
}

TEST(AdaptiveCache, BestFixedSizePicksSmallestAdequate) {
  Prepared P("compress95");
  FixedSizeResult R = bestFixedSize(*P.Bin, P.W.Ref);
  ASSERT_EQ(R.PerConfig.size(), 8u);
  // LRU inclusion: hit rate is monotone in associativity.
  for (size_t I = 1; I < 8; ++I)
    EXPECT_GE(R.PerConfig[I].hitRate() + 1e-12, R.PerConfig[I - 1].hitRate());
  // compress95's hash table (~160KB) needs one of the larger configs.
  EXPECT_GE(R.BestFixedKB, 160.0) << "hash table should demand a big cache";
}

TEST(AdaptiveCache, MarkersShrinkCacheBelowBestFixed) {
  // The headline of Fig. 10: phase-aware reconfiguration runs, on average,
  // a much smaller cache than the best fixed size, without hurting the
  // miss rate much.
  Prepared P("compress95");
  ASSERT_GT(P.Markers.size(), 0u);
  AdaptiveCacheResult A =
      runAdaptiveWithMarkers(*P.Bin, P.Loops, *P.Graph, P.Markers, P.W.Ref);
  FixedSizeResult F = bestFixedSize(*P.Bin, P.W.Ref);
  EXPECT_LT(A.AvgCacheKB, F.BestFixedKB * 0.85);
  // Served miss rate stays in the neighborhood of the best fixed cache.
  EXPECT_LT(A.MissRate, F.PerConfig[F.BestIdx].missRate() + 0.05);
}

TEST(AdaptiveCache, OracleBbvAlsoShrinks) {
  Prepared P("compress95");
  AdaptiveCacheResult R =
      runAdaptiveWithOracleBbv(*P.Bin, P.W.Ref, /*FixedLen=*/10000);
  EXPECT_GT(R.Intervals, 50u);
  EXPECT_LT(R.AvgCacheKB, 256.0);
  EXPECT_GT(R.AvgCacheKB, 32.0 - 1e-9);
}

TEST(AdaptiveCache, ReuseMarkersComparableOnRegularProgram) {
  Prepared P("compress95");
  ReuseMarkerSet RM = profileReuseMarkers(*P.Bin, P.W.Train);
  ASSERT_FALSE(RM.empty());
  AdaptiveCacheResult Reuse =
      runAdaptiveWithReuseMarkers(*P.Bin, RM, P.W.Ref);
  AdaptiveCacheResult Spm =
      runAdaptiveWithMarkers(*P.Bin, P.Loops, *P.Graph, P.Markers, P.W.Ref);
  // The paper: "our simple software phase marking approach is as effective
  // as the more complicated reuse distance-based approach" — sizes within
  // a factor of ~1.5 of each other on the regular suite.
  EXPECT_LT(Spm.AvgCacheKB, Reuse.AvgCacheKB * 1.5 + 16.0);
}

TEST(AdaptiveCache, EmptyReuseMarkersDegradeToSafeSize) {
  // gcc defeats the reuse baseline; with no markers the policy must stay
  // at the largest configuration (it can never finish exploring).
  Workload W = WorkloadRegistry::create("gcc");
  auto B = lower(*W.Program, LoweringOptions::O2());
  ReuseMarkerSet Empty;
  AdaptiveCacheResult R = runAdaptiveWithReuseMarkers(*B, Empty, W.Train);
  EXPECT_NEAR(R.AvgCacheKB, 256.0, 1e-6);
}

TEST(AdaptiveCache, CrossTrainMarkersWorkToo) {
  // Markers from the train profile applied to ref (SPM-Cross in Fig. 10).
  Prepared P("tomcatv");
  ASSERT_GT(P.Markers.size(), 0u);
  AdaptiveCacheResult Cross =
      runAdaptiveWithMarkers(*P.Bin, P.Loops, *P.Graph, P.Markers, P.W.Ref);
  EXPECT_GT(Cross.Intervals, 20u);
  EXPECT_LT(Cross.AvgCacheKB, 256.0);
}

namespace {

uint64_t bitsOf(double D) {
  uint64_t U;
  std::memcpy(&U, &D, sizeof U);
  return U;
}

/// Exact expected outcome of one policy: the doubles as bit patterns.
struct PinnedResult {
  uint64_t AvgCacheKBBits;
  uint64_t MissRateBits;
  uint64_t Intervals;
  uint64_t Explorations;
};

void expectPinned(const AdaptiveCacheResult &R, const PinnedResult &P,
                  const char *Policy) {
  EXPECT_EQ(bitsOf(R.AvgCacheKB), P.AvgCacheKBBits)
      << Policy << ": AvgCacheKB " << R.AvgCacheKB;
  EXPECT_EQ(bitsOf(R.MissRate), P.MissRateBits)
      << Policy << ": MissRate " << R.MissRate;
  EXPECT_EQ(R.Intervals, P.Intervals) << Policy;
  EXPECT_EQ(R.Explorations, P.Explorations) << Policy;
}

} // namespace

TEST(AdaptiveCache, PinnedResultsOnMesh) {
  // Bit-exact Fig. 10 outcomes for one reconfig-suite program, recorded
  // with one independent CacheModel per probed configuration and with
  // virtual run() + ObserverMux event delivery. Any change to the probe,
  // the serving cache, the engine or the event order that moves a single
  // miss shows here.
  Prepared P("mesh");
  auto GRef = buildCallLoopGraph(*P.Bin, P.Loops, P.W.Ref);
  SelectorConfig C;
  C.ILower = 10000;
  MarkerSet Self = selectMarkers(*GRef, C).Markers;
  ReuseMarkerSet RM = profileReuseMarkers(*P.Bin, P.W.Train);
  ASSERT_EQ(Self.size(), 10u);
  ASSERT_EQ(P.Markers.size(), 7u);
  ASSERT_EQ(RM.size(), 2u);

  expectPinned(runAdaptiveWithMarkers(*P.Bin, P.Loops, *GRef, Self, P.W.Ref),
               {0x40696ada0dae30fbull, 0x3f7901f6989751caull, 100, 4},
               "SPM-Self");
  expectPinned(
      runAdaptiveWithMarkers(*P.Bin, P.Loops, *P.Graph, P.Markers, P.W.Ref),
      {0x406851f2355b9e8dull, 0x3f7a1a374a311430ull, 50, 2}, "SPM-Cross");
  expectPinned(runAdaptiveWithReuseMarkers(*P.Bin, RM, P.W.Ref),
               {0x40696ae608600a77ull, 0x3f7901f6989751caull, 100, 4},
               "ReuseDist");
  expectPinned(runAdaptiveWithOracleBbv(*P.Bin, P.W.Ref, /*FixedLen=*/10000),
               {0x4063a7f9bbc676fbull, 0x3fd595c94a8388bfull, 210, 12},
               "BBV oracle");

  FixedSizeResult F = bestFixedSize(*P.Bin, P.W.Ref);
  const uint64_t Misses[8] = {394621, 337322, 287951, 259564,
                              205357, 3521,   3073,   3073};
  ASSERT_EQ(F.PerConfig.size(), 8u);
  for (size_t I = 0; I < 8; ++I) {
    EXPECT_EQ(F.PerConfig[I].Accesses, 550006u) << "config " << I;
    EXPECT_EQ(F.PerConfig[I].Misses, Misses[I]) << "config " << I;
  }
  EXPECT_EQ(F.BestIdx, 6u);
}
