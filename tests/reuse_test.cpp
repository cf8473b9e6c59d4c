//===- tests/reuse_test.cpp - reuse distance & locality markers -----------==//

#include "adaptcache/Policies.h"
#include "ir/Lowering.h"
#include "reuse/ReuseDistance.h"
#include "reuse/ReuseMarkers.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <set>

using namespace spm;

//===----------------------------------------------------------------------===//
// Exact reuse distance
//===----------------------------------------------------------------------===//

TEST(ReuseDistance, ColdThenExactDistances) {
  ReuseDistanceTracker T(64);
  EXPECT_EQ(T.access(0 * 64), ReuseDistanceTracker::ColdMiss);
  EXPECT_EQ(T.access(1 * 64), ReuseDistanceTracker::ColdMiss);
  EXPECT_EQ(T.access(2 * 64), ReuseDistanceTracker::ColdMiss);
  // Re-touch block 0: blocks 1 and 2 intervened.
  EXPECT_EQ(T.access(0 * 64), 2u);
  // Immediately re-touch block 0: distance 0.
  EXPECT_EQ(T.access(0 * 64), 0u);
  // Block 2: only block 0 touched since.
  EXPECT_EQ(T.access(2 * 64), 1u);
}

TEST(ReuseDistance, SameBlockDifferentOffsets) {
  ReuseDistanceTracker T(64);
  T.access(100);
  EXPECT_EQ(T.access(120), 0u); // Same 64B block.
}

TEST(ReuseDistance, MatchesBruteForceOnRandomStream) {
  ReuseDistanceTracker T(64);
  Rng R(5);
  std::vector<uint64_t> Blocks;
  for (int I = 0; I < 3000; ++I) {
    uint64_t Block = R.nextBelow(200);
    // Brute force: distinct blocks since last occurrence of Block.
    uint64_t Expected = ReuseDistanceTracker::ColdMiss;
    for (size_t J = Blocks.size(); J-- > 0;) {
      if (Blocks[J] == Block) {
        std::set<uint64_t> Distinct(Blocks.begin() + J + 1, Blocks.end());
        Expected = Distinct.size();
        break;
      }
    }
    EXPECT_EQ(T.access(Block * 64), Expected) << "access " << I;
    Blocks.push_back(Block);
  }
}

TEST(ReuseDistance, FootprintCountsDistinctBlocks) {
  ReuseDistanceTracker T(64);
  for (int I = 0; I < 100; ++I)
    T.access((I % 10) * 64);
  EXPECT_EQ(T.footprintBlocks(), 10u);
  EXPECT_EQ(T.accesses(), 100u);
}

//===----------------------------------------------------------------------===//
// Boundary detection
//===----------------------------------------------------------------------===//

TEST(ReuseBoundaries, DetectsLevelShifts) {
  // Signal: 20 windows at 2.0, 20 at 10.0, 20 at 2.0.
  std::vector<double> Sig;
  for (int I = 0; I < 20; ++I)
    Sig.push_back(2.0);
  for (int I = 0; I < 20; ++I)
    Sig.push_back(10.0);
  for (int I = 0; I < 20; ++I)
    Sig.push_back(2.0);
  auto Bs = detectBoundaries(Sig);
  ASSERT_EQ(Bs.size(), 2u);
  EXPECT_EQ(Bs[0].Window, 20u);
  EXPECT_EQ(Bs[1].Window, 40u);
  EXPECT_NE(Bs[0].Label, Bs[1].Label);
}

TEST(ReuseBoundaries, FlatSignalHasNone) {
  std::vector<double> Sig(50, 3.0);
  EXPECT_TRUE(detectBoundaries(Sig).empty());
}

TEST(ReuseBoundaries, NoiseWithoutStructureFindsNoStableLabels) {
  Rng R(9);
  std::vector<double> Sig;
  for (int I = 0; I < 200; ++I)
    Sig.push_back(R.nextDouble() * 20.0);
  // Boundaries fire everywhere on white noise...
  auto Bs = detectBoundaries(Sig);
  EXPECT_GT(Bs.size(), 20u);
  // ...which is exactly why the recall/precision gates must reject blocks
  // later (tested end-to-end below on the gcc workload).
}

//===----------------------------------------------------------------------===//
// End-to-end marker selection
//===----------------------------------------------------------------------===//

TEST(ReuseMarkers, FindsMarkersOnRegularPrograms) {
  // The Fig. 10 suite is locality-periodic: the baseline must find
  // markers on most of it.
  int Found = 0;
  for (const std::string &Name : WorkloadRegistry::reconfigSuite()) {
    Workload W = WorkloadRegistry::create(Name);
    auto B = lower(*W.Program, LoweringOptions::O2());
    ReuseMarkerSet M = profileReuseMarkers(*B, W.Train);
    Found += !M.empty();
  }
  EXPECT_GE(Found, 4) << "reuse baseline should handle the regular suite";
}

TEST(ReuseMarkers, StruggleOnIrregularPrograms) {
  // The paper: Shen et al. "found it difficult to find structure in more
  // complex programs like gcc and vortex".
  int Found = 0;
  for (const std::string Name : {"gcc", "vortex"}) {
    Workload W = WorkloadRegistry::create(Name);
    auto B = lower(*W.Program, LoweringOptions::O2());
    ReuseMarkerSet M = profileReuseMarkers(*B, W.Train);
    Found += !M.empty();
  }
  EXPECT_LE(Found, 1) << "irregular programs should defeat the baseline";
}

TEST(ReuseMarkers, RuntimeMapsBlocksToMarkerIndices) {
  ReuseMarkerSet M;
  M.Blocks = {5, 2, 5}; // A repeated block keeps its last index.
  M.Labels = {0, 1, 2};
  ReuseMarkerRuntime RT(M);
  std::vector<int32_t> Fired;
  RT.setCallback([&](int32_t Idx) { Fired.push_back(Idx); });
  LoweredBlock Blk;
  for (uint32_t Id : {0u, 2u, 5u, 6u, 4000000000u, 5u}) {
    Blk.GlobalId = Id;
    RT.onBlock(Blk);
  }
  EXPECT_EQ(Fired, (std::vector<int32_t>{1, 2, 2}));
  EXPECT_EQ(RT.fireCount(), 3u);
}

TEST(ReuseMarkers, RuntimeFiresOnMarkedBlocks) {
  Workload W = WorkloadRegistry::create("compress95");
  auto B = lower(*W.Program, LoweringOptions::O2());
  ReuseMarkerSet M = profileReuseMarkers(*B, W.Train);
  ASSERT_FALSE(M.empty());
  ReuseMarkerRuntime RT(M);
  int Fires = 0;
  RT.setCallback([&](int32_t) { ++Fires; });
  Interpreter Interp(*B, W.Ref);
  Interp.run(RT);
  EXPECT_GT(Fires, 5);
  EXPECT_EQ(static_cast<uint64_t>(Fires), RT.fireCount());
}
