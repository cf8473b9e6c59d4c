//===- tests/uarch_test.cpp - cache / predictor / perf model tests --------==//

#include "ir/Builder.h"
#include "ir/Lowering.h"
#include "uarch/BranchPredictor.h"
#include "uarch/Cache.h"
#include "uarch/PerfModel.h"
#include "vm/Interpreter.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <string>

using namespace spm;

//===----------------------------------------------------------------------===//
// CacheModel
//===----------------------------------------------------------------------===//

TEST(Cache, ColdMissThenHit) {
  CacheModel C({16, 2, 64});
  EXPECT_FALSE(C.access(0x1000));
  EXPECT_TRUE(C.access(0x1000));
  EXPECT_TRUE(C.access(0x1030)); // Same 64B block.
  EXPECT_FALSE(C.access(0x1040)); // Next block.
  EXPECT_EQ(C.stats().Accesses, 4u);
  EXPECT_EQ(C.stats().Misses, 2u);
}

TEST(Cache, LruEvictsOldest) {
  CacheModel C({1, 2, 64}); // One set, two ways.
  C.access(0 * 64);
  C.access(1 * 64);
  C.access(0 * 64);          // Touch 0: now 1 is LRU.
  EXPECT_FALSE(C.access(2 * 64)); // Evicts 1.
  EXPECT_TRUE(C.access(0 * 64));  // 0 survived.
  EXPECT_FALSE(C.access(1 * 64)); // 1 was evicted.
}

TEST(Cache, DirectMappedConflicts) {
  CacheModel C({16, 1, 64});
  uint64_t A = 0;
  uint64_t B = 16 * 64; // Same set, different tag.
  C.access(A);
  C.access(B);
  EXPECT_FALSE(C.access(A)); // Conflict-evicted.
}

TEST(Cache, HigherAssocNeverMoreMissesOnSameStream) {
  // LRU caches have the inclusion property across associativity.
  std::vector<CacheConfig> Sweep = CacheConfig::reconfigSweep();
  MultiCacheProbe Probe(Sweep);
  Rng R(11);
  for (int I = 0; I < 200000; ++I)
    Probe.access((R.nextBelow(3000) * 64) + (1ull << 32));
  for (size_t I = 1; I < Probe.size(); ++I)
    EXPECT_LE(Probe.stats(I).Misses, Probe.stats(I - 1).Misses)
        << "assoc " << Sweep[I].Assoc;
}

TEST(Cache, ReconfigSweepGeometry) {
  auto Sweep = CacheConfig::reconfigSweep();
  ASSERT_EQ(Sweep.size(), 8u);
  EXPECT_EQ(Sweep.front().sizeBytes(), 32u * 1024);  // 32KB.
  EXPECT_EQ(Sweep.back().sizeBytes(), 256u * 1024);  // 256KB.
  for (const CacheConfig &C : Sweep) {
    EXPECT_EQ(C.Sets, 512u);
    EXPECT_EQ(C.BlockBytes, 64u);
  }
}

TEST(Cache, ConfigureFlushesContents) {
  CacheModel C({16, 2, 64});
  C.access(0x40);
  C.setAssoc(4);
  EXPECT_FALSE(C.access(0x40)); // Cold again after reconfiguration.
}

TEST(Cache, WorkingSetFitsMeansNoCapacityMisses) {
  CacheModel C({512, 2, 64}); // 64KB.
  // 32KB working set: after the cold pass everything hits.
  for (int Pass = 0; Pass < 3; ++Pass)
    for (uint64_t A = 0; A < 32 * 1024; A += 64)
      C.access(A);
  EXPECT_EQ(C.stats().Misses, 512u); // Only the cold pass.
}

TEST(Cache, PreservingReshapeKeepsMostRecentWaysInOrder) {
  // Reference for setAssocPreserving: per set, sort the old ways newest
  // first, keep min(old, new) of them, pad with invalid ways; an unchanged
  // way count leaves the tables alone. Checked on the full tag/stamp
  // tables after every reshape of a random sequence.
  CacheModel C({16, 4, 64});
  Rng R(23);
  for (int Step = 0; Step < 60; ++Step) {
    for (int I = 0; I < 300; ++I)
      C.access(R.nextBelow(200) * 64);
    CacheModelState Before = C.saveState();
    uint32_t Old = C.config().Assoc;
    uint32_t New = 1 + static_cast<uint32_t>(R.nextBelow(8));
    std::vector<uint64_t> Tags(16 * New, ~0ull), Stamps(16 * New, 0);
    if (New == Old) {
      Tags = Before.Tags;
      Stamps = Before.Stamps;
    }
    for (uint32_t Set = 0; Set < 16 && New != Old; ++Set) {
      std::vector<uint32_t> Order(Old);
      std::iota(Order.begin(), Order.end(), 0u);
      std::stable_sort(Order.begin(), Order.end(), [&](uint32_t A, uint32_t B) {
        return Before.Stamps[Set * Old + A] > Before.Stamps[Set * Old + B];
      });
      for (uint32_t W = 0; W < std::min(Old, New); ++W) {
        Tags[Set * New + W] = Before.Tags[Set * Old + Order[W]];
        Stamps[Set * New + W] = Before.Stamps[Set * Old + Order[W]];
      }
    }
    C.setAssocPreserving(New);
    CacheModelState After = C.saveState();
    ASSERT_EQ(After.Tags, Tags) << "step " << Step << ": " << Old << " -> "
                                << New;
    ASSERT_EQ(After.Stamps, Stamps) << "step " << Step;
    EXPECT_EQ(After.Clock, Before.Clock);
    EXPECT_EQ(After.Stats.Misses, Before.Stats.Misses);
  }
}

//===----------------------------------------------------------------------===//
// MultiCacheProbe: exact against one independent CacheModel per config
//===----------------------------------------------------------------------===//

namespace {

/// Feeds \p Addrs to a MultiCacheProbe and to one CacheModel per
/// configuration (the reference), comparing every configuration's counters
/// after each of the first 64 accesses, every 1009th, and the last.
void expectProbeExact(const std::vector<CacheConfig> &Sweep,
                      const std::vector<uint64_t> &Addrs, const char *Stream) {
  MultiCacheProbe Probe(Sweep);
  std::vector<CacheModel> Ref(Sweep.begin(), Sweep.end());
  ASSERT_EQ(Probe.size(), Sweep.size());
  size_t Compared = 0;
  for (size_t N = 1; N <= Addrs.size(); ++N) {
    Probe.access(Addrs[N - 1]);
    for (CacheModel &C : Ref)
      C.access(Addrs[N - 1]);
    if (N > 64 && N % 1009 != 0 && N != Addrs.size())
      continue;
    ++Compared;
    std::vector<CacheStats> Snap = Probe.statsSnapshot();
    for (size_t I = 0; I < Sweep.size(); ++I) {
      ASSERT_EQ(Snap[I].Accesses, Ref[I].stats().Accesses)
          << Stream << ", prefix " << N << ", config " << I;
      ASSERT_EQ(Snap[I].Misses, Ref[I].stats().Misses)
          << Stream << ", prefix " << N << ", config " << I << " ("
          << Sweep[I].Sets << " sets, " << Sweep[I].Assoc << " ways)";
      ASSERT_EQ(Probe.stats(I).Misses, Snap[I].Misses);
    }
  }
  EXPECT_GT(Compared, 64u) << Stream;
}

std::vector<uint64_t> uniformStream(uint64_t Seed) {
  Rng R(Seed);
  std::vector<uint64_t> A(60000);
  for (uint64_t &X : A)
    X = (1ull << 32) + R.nextBelow(1 << 21); // 2MB, byte-granular.
  return A;
}

/// Cycles 11 blocks that all map to set 0, interleaved with a random
/// sprinkle elsewhere: more tags per set than the deepest configuration.
std::vector<uint64_t> stridedStream(const CacheConfig &G) {
  Rng R(5);
  uint64_t Stride = static_cast<uint64_t>(G.Sets) * G.BlockBytes;
  std::vector<uint64_t> A;
  for (int Rep = 0; Rep < 3000; ++Rep) {
    A.push_back((Rep % 11) * Stride);
    if (Rep % 3 == 0)
      A.push_back((Rep % 5) * Stride);
    if (Rep % 7 == 0)
      A.push_back(R.nextBelow(64 * Stride));
  }
  return A;
}

/// Three passes of a 384KB sequential sweep at 8-byte steps: larger than
/// the biggest (256KB) configuration, so LRU thrashes every size.
std::vector<uint64_t> sequentialStream() {
  std::vector<uint64_t> A;
  for (int Pass = 0; Pass < 3; ++Pass)
    for (uint64_t X = 0; X < 384 * 1024; X += 8)
      A.push_back((1ull << 30) + X);
  return A;
}

/// The data addresses of a reconfig-suite program's ref run.
const std::vector<uint64_t> &recordedStream() {
  static const std::vector<uint64_t> Addrs = [] {
    struct Recorder {
      void onMemAccess(uint64_t Addr, bool IsStore) {
        (void)IsStore;
        Out.push_back(Addr);
      }
      std::vector<uint64_t> Out;
    };
    Workload W = WorkloadRegistry::create("mesh");
    auto B = lower(*W.Program, LoweringOptions::O2());
    Recorder Rec;
    Interpreter(*B, W.Ref).runFast(Rec);
    return std::move(Rec.Out);
  }();
  return Addrs;
}

void expectProbeExactOnAllStreams(const std::vector<CacheConfig> &Sweep) {
  expectProbeExact(Sweep, uniformStream(17), "uniform");
  expectProbeExact(Sweep, stridedStream(Sweep[0]), "strided");
  expectProbeExact(Sweep, sequentialStream(), "sequential");
  ASSERT_GT(recordedStream().size(), 100000u);
  expectProbeExact(Sweep, recordedStream(), "mesh ref");
}

std::vector<CacheConfig> waysSweep(uint32_t Sets, uint32_t BlockBytes) {
  std::vector<CacheConfig> Sweep;
  for (uint32_t A = 1; A <= 8; ++A)
    Sweep.push_back({Sets, A, BlockBytes});
  return Sweep;
}

} // namespace

TEST(MultiCacheProbe, ExactOnReconfigSweep) {
  expectProbeExactOnAllStreams(CacheConfig::reconfigSweep());
}

TEST(MultiCacheProbe, ExactOnOutOfOrderSubset) {
  expectProbeExactOnAllStreams({{512, 4, 64}, {512, 1, 64}, {512, 8, 64}});
}

TEST(MultiCacheProbe, ExactOnOneSet) {
  expectProbeExactOnAllStreams(waysSweep(1, 64));
}

TEST(MultiCacheProbe, ExactOnSixteenSets) {
  expectProbeExactOnAllStreams(waysSweep(16, 32));
}

//===----------------------------------------------------------------------===//
// MultiCacheProbe's served cache: exact against CacheModel +
// setAssocPreserving, access by access
//===----------------------------------------------------------------------===//

namespace {

/// Random way counts in 1..8, each held for 1..400 accesses, spliced with
/// fixed runs that shrink to one way and grow straight back, step down and
/// up one way at a time, and repeat the current size.
std::vector<std::pair<uint32_t, uint32_t>> reconfigPlan(Rng &R,
                                                        size_t Steps) {
  std::vector<std::pair<uint32_t, uint32_t>> Plan; // {ways, accesses}
  auto Hold = [&] { return static_cast<uint32_t>(1 + R.nextBelow(400)); };
  for (size_t I = 0; I < Steps; ++I) {
    switch (R.nextBelow(8)) {
    case 0: // Shrink to one way, then grow straight back to all eight.
      Plan.push_back({1, Hold()});
      Plan.push_back({8, Hold()});
      break;
    case 1: // Walk down and back up one way at a time.
      for (uint32_t W = 7; W >= 1; --W)
        Plan.push_back({W, Hold()});
      for (uint32_t W = 2; W <= 8; ++W)
        Plan.push_back({W, Hold()});
      break;
    case 2: // The same size again.
      Plan.push_back({Plan.empty() ? 8 : Plan.back().first, Hold()});
      break;
    default:
      Plan.push_back({static_cast<uint32_t>(1 + R.nextBelow(8)), Hold()});
    }
  }
  return Plan;
}

/// Drives a MultiCacheProbe and a CacheModel reconfigured by
/// setAssocPreserving (the reference) through the same random stream and
/// the same way counts, comparing every access's served hit. Returns the
/// number of accesses compared.
size_t expectServedExact(uint32_t Sets, uint64_t Seed) {
  std::vector<CacheConfig> Sweep = waysSweep(Sets, 64);
  MultiCacheProbe Probe(Sweep);
  CacheModel Ref(Sweep.back());
  Rng R(Seed);
  // Blocks: a hot region six blocks per set deep (fits from six ways up),
  // a wider one twice the largest cache, and stray blocks far away.
  uint64_t Stride = static_cast<uint64_t>(Sets) * 64;
  size_t N = 0;
  uint64_t Hits = 0;
  for (auto [Ways, Count] : reconfigPlan(R, 600)) {
    Probe.setServedWays(Ways);
    Ref.setAssocPreserving(Ways);
    for (uint32_t I = 0; I < Count; ++I, ++N) {
      uint64_t Pick = R.nextBelow(16);
      uint64_t Addr = Pick < 10   ? R.nextBelow(6 * Stride)
                      : Pick < 15 ? R.nextBelow(16 * Stride)
                                  : (1ull << 40) + R.nextBelow(1ull << 30);
      bool Hit = Probe.access(Addr);
      if (Hit != Ref.access(Addr)) {
        ADD_FAILURE() << Sets << " sets, seed " << Seed << ", access " << N
                      << " at " << Ways << " ways: probe "
                      << (Hit ? "hit" : "missed");
        return N;
      }
      Hits += Hit;
    }
  }
  EXPECT_GT(Hits, N / 8) << "stream too cold to exercise hits";
  EXPECT_LT(Hits, N - N / 8) << "stream too warm to exercise misses";
  return N;
}

} // namespace

TEST(ServedCache, MatchesWayMaskedCacheModelOnOneSet) {
  EXPECT_GT(expectServedExact(1, 1), 100000u);
  EXPECT_GT(expectServedExact(1, 2), 100000u);
}

TEST(ServedCache, MatchesWayMaskedCacheModelOnSixteenSets) {
  EXPECT_GT(expectServedExact(16, 3), 100000u);
  EXPECT_GT(expectServedExact(16, 4), 100000u);
}

TEST(ServedCache, MatchesWayMaskedCacheModelOnReconfigGeometry) {
  EXPECT_GT(expectServedExact(512, 5), 100000u);
  EXPECT_GT(expectServedExact(512, 6), 100000u);
}

//===----------------------------------------------------------------------===//
// Cache geometry validation (kept in every build type, not an assert)
//===----------------------------------------------------------------------===//

namespace {

/// The std::invalid_argument message \p Fn throws, or "" if it returns.
template <class F> std::string invalidArgument(F &&Fn) {
  try {
    Fn();
  } catch (const std::invalid_argument &E) {
    return E.what();
  }
  return "";
}

bool names(const std::string &Msg, const char *Field) {
  return Msg.find(Field) != std::string::npos;
}

} // namespace

TEST(CacheGeometry, ZeroSetsRejected) {
  std::string M = invalidArgument([] { CacheModel C({0, 2, 64}); });
  EXPECT_TRUE(names(M, "Sets")) << M;
}

TEST(CacheGeometry, ZeroAssocRejected) {
  std::string M = invalidArgument([] { CacheModel C({16, 0, 64}); });
  EXPECT_TRUE(names(M, "Assoc")) << M;
}

TEST(CacheGeometry, ZeroBlockBytesRejected) {
  std::string M = invalidArgument([] { CacheModel C({16, 2, 0}); });
  EXPECT_TRUE(names(M, "BlockBytes")) << M;
}

TEST(CacheGeometry, NonPowerOfTwoSetsRejected) {
  // 3 sets would only ever map to sets 0 and 2.
  std::string M = invalidArgument([] { CacheModel C({3, 2, 64}); });
  EXPECT_TRUE(names(M, "Sets")) << M;
}

TEST(CacheGeometry, NonPowerOfTwoBlockBytesRejected) {
  std::string M = invalidArgument([] { CacheModel C({16, 2, 48}); });
  EXPECT_TRUE(names(M, "BlockBytes")) << M;
}

TEST(CacheGeometry, ConfigureRejectsAndKeepsOldShape) {
  CacheModel C({16, 2, 64});
  std::string M = invalidArgument([&] { C.configure({12, 2, 64}); });
  EXPECT_TRUE(names(M, "Sets")) << M;
  EXPECT_EQ(C.config().Sets, 16u);
  EXPECT_FALSE(C.access(0x40));
  EXPECT_TRUE(C.access(0x40));
}

TEST(CacheGeometry, SetAssocPreservingRejectsZeroWays) {
  CacheModel C({16, 2, 64});
  std::string M = invalidArgument([&] { C.setAssocPreserving(0); });
  EXPECT_TRUE(names(M, "Assoc")) << M;
  EXPECT_EQ(C.config().Assoc, 2u);
}

TEST(CacheGeometry, ServedWaysRejectsZero) {
  MultiCacheProbe P(waysSweep(16, 64));
  std::string M = invalidArgument([&] { P.setServedWays(0); });
  EXPECT_TRUE(names(M, "served ways = 0")) << M;
}

TEST(CacheGeometry, ServedWaysRejectsDepthOverflow) {
  // Stack depth is the sweep's largest Assoc, here 4.
  MultiCacheProbe P({{16, 4, 64}, {16, 2, 64}});
  P.setServedWays(4);
  std::string M = invalidArgument([&] { P.setServedWays(5); });
  EXPECT_TRUE(names(M, "served ways = 5")) << M;
  EXPECT_TRUE(names(M, "1..4")) << M;
}

TEST(CacheGeometry, ProbeRejectsEmptySweep) {
  std::string M = invalidArgument([] { MultiCacheProbe P({}); });
  EXPECT_TRUE(names(M, "empty")) << M;
}

TEST(CacheGeometry, ProbeRejectsBadEntry) {
  std::string M = invalidArgument(
      [] { MultiCacheProbe P({{512, 1, 64}, {512, 0, 64}}); });
  EXPECT_TRUE(names(M, "Assoc")) << M;
}

TEST(CacheGeometry, ProbeRejectsMixedSets) {
  std::string M = invalidArgument(
      [] { MultiCacheProbe P({{512, 1, 64}, {256, 2, 64}}); });
  EXPECT_TRUE(names(M, "Sets")) << M;
}

TEST(CacheGeometry, ProbeRejectsMixedBlockBytes) {
  std::string M = invalidArgument(
      [] { MultiCacheProbe P({{512, 1, 64}, {512, 2, 32}}); });
  EXPECT_TRUE(names(M, "BlockBytes")) << M;
}

//===----------------------------------------------------------------------===//
// Branch predictor
//===----------------------------------------------------------------------===//

TEST(BranchPredictor, LearnsStronglyBiasedBranch) {
  BranchPredictor2Bit P;
  for (int I = 0; I < 100; ++I)
    P.predictAndUpdate(0x1000, true);
  EXPECT_LT(P.mispredicts(), 3u);
}

TEST(BranchPredictor, LoopExitCostsOneMiss) {
  BranchPredictor2Bit P;
  // 10 iterations taken, then one not-taken exit, repeated.
  uint64_t MissAtStable = 0;
  for (int Rep = 0; Rep < 20; ++Rep) {
    for (int I = 0; I < 10; ++I)
      P.predictAndUpdate(0x2000, true);
    uint64_t Before = P.mispredicts();
    P.predictAndUpdate(0x2000, false);
    if (Rep > 2)
      MissAtStable += P.mispredicts() - Before;
  }
  // A 2-bit counter mispredicts each loop exit exactly once in steady state.
  EXPECT_EQ(MissAtStable, 17u);
}

TEST(BranchPredictor, RandomBranchMispredictsHalf) {
  BranchPredictor2Bit P;
  Rng R(5);
  const int N = 20000;
  for (int I = 0; I < N; ++I)
    P.predictAndUpdate(0x3000, R.nextBool(0.5));
  double Rate = static_cast<double>(P.mispredicts()) / N;
  EXPECT_NEAR(Rate, 0.5, 0.05);
}

//===----------------------------------------------------------------------===//
// PerfModel
//===----------------------------------------------------------------------===//

TEST(PerfModel, CpiAtLeastBase) {
  Workload W = WorkloadRegistry::create("gzip");
  auto B = lower(*W.Program, LoweringOptions::O2());
  PerfModel Perf;
  Interpreter(*B, W.Train).run(Perf);
  PerfMetrics M = Perf.metrics();
  EXPECT_GE(M.Cpi, 1.0);
  EXPECT_LT(M.Cpi, 20.0);
  EXPECT_GT(M.L1MissRate, 0.0);
  EXPECT_LT(M.L1MissRate, 1.0);
}

TEST(PerfModel, CountersMatchRunResult) {
  Workload W = WorkloadRegistry::create("gzip");
  auto B = lower(*W.Program, LoweringOptions::O2());
  PerfModel Perf;
  RunResult R = Interpreter(*B, W.Train).run(Perf);
  EXPECT_EQ(Perf.counters().Instrs, R.TotalInstrs);
  EXPECT_EQ(Perf.counters().L1Accesses, R.TotalMemAccesses);
}

TEST(PerfModel, MissesRaiseCpi) {
  // A streaming workload over a huge region has a higher CPI than a tiny
  // hot loop with the same instruction mix.
  auto MakeRun = [](uint64_t RegionBytes) {
    ProgramBuilder PB("p");
    uint32_t R = PB.region(MemRegionSpec::fixed("r", RegionBytes));
    uint32_t Main = PB.declare("main");
    PB.define(Main, [&](FunctionBuilder &F) {
      F.loop(TripCountSpec::constant(30000), [&] {
        MemAccessSpec M;
        M.RegionIdx = R;
        M.Pat = MemAccessSpec::Pattern::Random;
        F.code(3, 0, {M});
      });
    });
    auto P = PB.take();
    auto B = lower(*P, LoweringOptions::O2());
    PerfModel Perf;
    Interpreter(*B, WorkloadInput("t", 1)).run(Perf);
    return Perf.metrics();
  };
  PerfMetrics Small = MakeRun(4 * 1024);
  PerfMetrics Large = MakeRun(8 * 1024 * 1024);
  EXPECT_GT(Large.L1MissRate, Small.L1MissRate + 0.3);
  EXPECT_GT(Large.Cpi, Small.Cpi + 1.0);
}

TEST(PerfModel, DeltaMetricsConsistent) {
  Workload W = WorkloadRegistry::create("gzip");
  auto B = lower(*W.Program, LoweringOptions::O2());
  PerfModel Perf;
  Interpreter Interp(*B, W.Train);
  Interp.run(Perf, 50000);
  PerfCounters Mid = Perf.counters();
  PerfCounters Zero;
  PerfMetrics All = PerfModel::metricsFor(Mid - Zero);
  EXPECT_DOUBLE_EQ(All.Cpi, Perf.metrics().Cpi);
}

TEST(PerfModel, L2CountersPopulateWhenEnabled) {
  Workload W = WorkloadRegistry::create("gzip");
  auto B = lower(*W.Program, LoweringOptions::O2());
  PerfModelOptions Opts;
  Opts.EnableL2 = true;
  PerfModel Perf(Opts);
  Interpreter(*B, W.Train).run(Perf);
  const PerfCounters &C = Perf.counters();
  EXPECT_GT(C.L2Accesses, 0u);
  EXPECT_EQ(C.L2Accesses, C.L1Misses) << "every L1 miss probes the L2";
  EXPECT_LE(C.L2Misses, C.L2Accesses);
  EXPECT_GT(C.L2Accesses, C.L2Misses) << "a 512KB L2 must catch something";
}

TEST(PerfModel, NoL2LeavesCountersZero) {
  Workload W = WorkloadRegistry::create("gzip");
  auto B = lower(*W.Program, LoweringOptions::O2());
  PerfModel Perf;
  Interpreter(*B, W.Train).run(Perf);
  EXPECT_EQ(Perf.counters().L2Accesses, 0u);
  EXPECT_EQ(Perf.counters().L2Misses, 0u);
}

TEST(PerfModel, L2LowersCpiOnCacheHostileCode) {
  // mcf thrashes the 64KB L1; most of its misses land in a 512KB L2 at a
  // third of the memory penalty, so CPI must drop.
  Workload W = WorkloadRegistry::create("mcf");
  auto B = lower(*W.Program, LoweringOptions::O2());
  PerfModel L1Only;
  Interpreter(*B, W.Train).run(L1Only);
  PerfModelOptions Opts;
  Opts.EnableL2 = true;
  PerfModel WithL2(Opts);
  Interpreter(*B, W.Train).run(WithL2);
  EXPECT_LT(WithL2.metrics().Cpi, L1Only.metrics().Cpi);
}

TEST(PerfCounters, CyclesPricingWithAndWithoutL2) {
  PerfCounters C;
  C.BaseCycles = 1000;
  C.L1Misses = 100;
  // Without L2 traffic: every L1 miss pays the full penalty.
  EXPECT_EQ(C.cycles(24, 8), 1000u + 100 * 24);
  // With L2 traffic: 80 L2 hits at 24/3, 20 L2 misses at 2*24.
  C.L2Accesses = 100;
  C.L2Misses = 20;
  EXPECT_EQ(C.cycles(24, 8), 1000u + 80 * 8 + 20 * 48);
}
