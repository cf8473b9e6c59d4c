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
#include <cinttypes>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <utility>

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
  C.configure({16, 4, 64});
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
  // Reference for setAssocPreserving: each set is stored most recent way
  // first, so the reshaped set is the old set's first min(old, new) ways
  // padded with invalid ways; an unchanged way count leaves the table
  // alone. Checked on the full tag table after every reshape of a random
  // sequence.
  CacheModel C({16, 4, 64});
  Rng R(23);
  for (int Step = 0; Step < 60; ++Step) {
    for (int I = 0; I < 300; ++I)
      C.access(R.nextBelow(200) * 64);
    CacheModelState Before = C.saveState();
    uint32_t Old = C.config().Assoc;
    uint32_t New = 1 + static_cast<uint32_t>(R.nextBelow(8));
    std::vector<uint64_t> Tags(16 * New, ~0ull);
    for (uint32_t Set = 0; Set < 16; ++Set)
      for (uint32_t W = 0; W < std::min(Old, New); ++W)
        Tags[Set * New + W] = Before.Tags[Set * Old + W];
    C.setAssocPreserving(New);
    CacheModelState After = C.saveState();
    ASSERT_EQ(After.Tags, Tags) << "step " << Step << ": " << Old << " -> "
                                << New;
    EXPECT_EQ(After.Stats.Misses, Before.Stats.Misses);
  }
}

namespace {

/// The textbook stamp LRU, kept here as the independent reference for
/// CacheModel's recency-order sets: every way carries the clock value of
/// its last use, a hit restamps its way, a miss replaces the way with the
/// oldest stamp (invalid ways carry stamp 0, so they fill first), and a
/// way-preserving reshape sorts each set newest first and keeps the most
/// recent min(old, new) ways.
class StampLru {
public:
  explicit StampLru(CacheConfig Cfg)
      : Cfg(Cfg), Tags(size_t{Cfg.Sets} * Cfg.Assoc, ~0ull),
        Stamps(Tags.size(), 0) {}

  bool access(uint64_t Addr) {
    ++Clock;
    uint64_t Block = Addr / Cfg.BlockBytes;
    size_t Base = (Block % Cfg.Sets) * Cfg.Assoc;
    uint64_t Tag = Block / Cfg.Sets;
    size_t Victim = Base;
    for (size_t W = Base; W < Base + Cfg.Assoc; ++W) {
      if (Tags[W] == Tag) {
        Stamps[W] = Clock;
        return true;
      }
      if (Stamps[W] < Stamps[Victim])
        Victim = W;
    }
    Tags[Victim] = Tag;
    Stamps[Victim] = Clock;
    return false;
  }

  void setAssocPreserving(uint32_t New) {
    std::vector<uint64_t> T(size_t{Cfg.Sets} * New, ~0ull), S(T.size(), 0);
    for (uint32_t Set = 0; Set < Cfg.Sets; ++Set) {
      std::vector<uint32_t> Order = recency(Set);
      for (uint32_t W = 0; W < std::min<size_t>(New, Order.size()); ++W) {
        T[Set * New + W] = Tags[Set * Cfg.Assoc + Order[W]];
        S[Set * New + W] = Stamps[Set * Cfg.Assoc + Order[W]];
      }
    }
    Tags = std::move(T);
    Stamps = std::move(S);
    Cfg.Assoc = New;
  }

  /// Valid tags of \p Set, most recently used first.
  std::vector<uint64_t> contents(uint32_t Set) const {
    std::vector<uint64_t> Out;
    for (uint32_t W : recency(Set))
      Out.push_back(Tags[Set * Cfg.Assoc + W]);
    return Out;
  }

private:
  /// Ways of \p Set that hold a block, newest stamp first.
  std::vector<uint32_t> recency(uint32_t Set) const {
    std::vector<uint32_t> Order;
    for (uint32_t W = 0; W < Cfg.Assoc; ++W)
      if (Stamps[Set * Cfg.Assoc + W])
        Order.push_back(W);
    std::sort(Order.begin(), Order.end(), [&](uint32_t A, uint32_t B) {
      return Stamps[Set * Cfg.Assoc + A] > Stamps[Set * Cfg.Assoc + B];
    });
    return Order;
  }

  CacheConfig Cfg;
  std::vector<uint64_t> Tags, Stamps;
  uint64_t Clock = 0;
};

/// The data addresses of \p Program's run on its train or ref input.
std::vector<uint64_t> addressStream(const char *Program, bool Ref) {
  struct Recorder {
    void onMemAccess(uint64_t Addr, bool IsStore) {
      (void)IsStore;
      Out.push_back(Addr);
    }
    std::vector<uint64_t> Out;
  };
  Workload W = WorkloadRegistry::create(Program);
  auto B = lower(*W.Program, LoweringOptions::O2());
  Recorder Rec;
  Interpreter(*B, Ref ? W.Ref : W.Train).runFast(Rec);
  return std::move(Rec.Out);
}

const std::vector<uint64_t> &recordedStream();

/// Every set of \p C, way by way, against \p Ref's recency order.
void expectSameContents(const CacheModel &C, const StampLru &Ref,
                        const std::string &Where) {
  const CacheConfig &G = C.config();
  CacheModelState St = C.saveState();
  for (uint32_t Set = 0; Set < G.Sets; ++Set) {
    std::vector<uint64_t> Want = Ref.contents(Set);
    Want.resize(G.Assoc, ~0ull);
    std::vector<uint64_t> Got(St.Tags.begin() + Set * G.Assoc,
                              St.Tags.begin() + (Set + 1) * G.Assoc);
    ASSERT_EQ(Got, Want) << Where << ", set " << Set;
  }
}

/// Feeds \p Addrs to a CacheModel and a StampLru of geometry \p G and
/// compares every access's hit. With \p Reshape, both are reshaped by
/// setAssocPreserving to a random way count in 1..8 every 1..3000
/// accesses, and their contents are compared after each reshape.
void expectStampExact(CacheConfig G, const std::vector<uint64_t> &Addrs,
                      bool Reshape, uint64_t Seed, const char *Stream) {
  CacheModel C(G);
  StampLru Ref(G);
  Rng R(Seed);
  uint64_t Next = Reshape ? 1 + R.nextBelow(3000) : Addrs.size();
  uint64_t Misses = 0;
  for (size_t N = 0; N < Addrs.size(); ++N) {
    if (N == Next) {
      uint32_t Ways = 1 + static_cast<uint32_t>(R.nextBelow(8));
      C.setAssocPreserving(Ways);
      Ref.setAssocPreserving(Ways);
      expectSameContents(C, Ref,
                         std::string(Stream) + ", reshape at " +
                             std::to_string(N) + " to " +
                             std::to_string(Ways) + " ways");
      if (::testing::Test::HasFatalFailure())
        return;
      Next += 1 + R.nextBelow(3000);
    }
    bool Hit = C.access(Addrs[N]);
    ASSERT_EQ(Hit, Ref.access(Addrs[N]))
        << Stream << ", " << G.Assoc << " ways at start, access " << N
        << " at " << C.config().Assoc << " ways";
    Misses += !Hit;
  }
  EXPECT_EQ(C.stats().Accesses, Addrs.size()) << Stream;
  EXPECT_EQ(C.stats().Misses, Misses) << Stream;
  EXPECT_GT(Misses, 0u) << Stream;
  EXPECT_LT(Misses, Addrs.size()) << Stream;
  expectSameContents(C, Ref, std::string(Stream) + ", end");
}

} // namespace

TEST(Cache, MatchesStampLruReference) {
  // Random streams on 16 sets (a hot region that fits from six ways up,
  // a wider one, stray blocks), registry streams on the DL1 geometry.
  Rng R(31);
  std::vector<uint64_t> Random(200000);
  for (uint64_t &A : Random) {
    uint64_t Pick = R.nextBelow(16);
    A = Pick < 10   ? R.nextBelow(6 * 16 * 64)
        : Pick < 15 ? R.nextBelow(16 * 16 * 64)
                    : (1ull << 40) + R.nextBelow(1ull << 30);
  }
  const std::vector<uint64_t> Mcf = addressStream("mcf", /*Ref=*/false);
  ASSERT_GT(Mcf.size(), 100000u);
  for (uint32_t Ways = 1; Ways <= 8; ++Ways)
    for (bool Reshape : {false, true}) {
      expectStampExact({16, Ways, 64}, Random, Reshape, Ways, "random");
      expectStampExact({512, Ways, 64}, recordedStream(), Reshape, Ways,
                       "mesh ref");
      expectStampExact({512, Ways, 64}, Mcf, Reshape, Ways, "mcf train");
      if (HasFatalFailure())
        return;
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
  static const std::vector<uint64_t> Addrs =
      addressStream("mesh", /*Ref=*/true);
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
  uint64_t Misses = 0;
  for (int I = 0; I < 100; ++I)
    Misses += !P.predictAndUpdate(0x1000, true);
  EXPECT_LT(Misses, 3u);
}

TEST(BranchPredictor, LoopExitCostsOneMiss) {
  BranchPredictor2Bit P;
  // 10 iterations taken, then one not-taken exit, repeated.
  uint64_t MissAtStable = 0;
  for (int Rep = 0; Rep < 20; ++Rep) {
    for (int I = 0; I < 10; ++I)
      P.predictAndUpdate(0x2000, true);
    bool Missed = !P.predictAndUpdate(0x2000, false);
    if (Rep > 2)
      MissAtStable += Missed;
  }
  // A 2-bit counter mispredicts each loop exit exactly once in steady state.
  EXPECT_EQ(MissAtStable, 17u);
}

TEST(BranchPredictor, RandomBranchMispredictsHalf) {
  BranchPredictor2Bit P;
  Rng R(5);
  const int N = 20000;
  uint64_t Misses = 0;
  for (int I = 0; I < N; ++I)
    Misses += !P.predictAndUpdate(0x3000, R.nextBool(0.5));
  double Rate = static_cast<double>(Misses) / N;
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

namespace {

/// FNV-1a over the eight counter fields, folded into \p H.
uint64_t foldCounters(uint64_t H, const PerfCounters &C) {
  for (uint64_t V : {C.Instrs, C.BaseCycles, C.L1Accesses, C.L1Misses,
                     C.L2Accesses, C.L2Misses, C.Branches, C.Mispredicts})
    for (int Byte = 0; Byte < 8; ++Byte) {
      H ^= (V >> (8 * Byte)) & 0xff;
      H *= 0x100000001b3ULL;
    }
  return H;
}

} // namespace

TEST(PerfModelPinned, CountersOnEveryProgram) {
  // Every PerfCounters field of every registry program on both inputs,
  // under the default model, with the L2, and with a 1-, 4- and 8-way DL1,
  // against digests pinned before the recency-order cache. That run()
  // counts the same as runFast under these options is engine_test's
  // EngineDifferential.CacheStats.
  std::vector<std::pair<const char *, PerfModelOptions>> Configs;
  Configs.push_back({"default", PerfModelOptions()});
  PerfModelOptions WithL2;
  WithL2.EnableL2 = true;
  Configs.push_back({"L2", WithL2});
  for (uint32_t Ways : {1u, 4u, 8u}) {
    PerfModelOptions O;
    O.DL1.Assoc = Ways;
    Configs.push_back({Ways == 1 ? "1-way" : Ways == 4 ? "4-way" : "8-way",
                       O});
  }
  struct Pin {
    const char *Program;
    uint64_t Train, Ref; ///< Counter digests over all configurations.
  };
  static const Pin Pins[] = {
      {"art", 0x0da2b2c2825fb4c1ULL, 0xf2d279c2c3238591ULL},
      {"bzip2", 0xb28fe977c7ef2b9cULL, 0x284db6fee0307688ULL},
      {"galgel", 0x4b4f368456dc2d64ULL, 0xb4cde5c0806d3c37ULL},
      {"gcc", 0xb501b09c218dccdcULL, 0x469ea05a2fbf0753ULL},
      {"gzip", 0x03433fa67ecad2cdULL, 0x55b07aa7308fa41cULL},
      {"lucas", 0xa64cd446c50eecb8ULL, 0x596da280865e4e39ULL},
      {"mcf", 0x025d0240481bace3ULL, 0x135ba48a4ad0787cULL},
      {"mgrid", 0x888a722ae2c3e3c6ULL, 0x64ec6a9194c23190ULL},
      {"perlbmk", 0xce2ab062a70be643ULL, 0xfc076bde9a4480aeULL},
      {"vortex", 0xe17429c96e45c4a5ULL, 0x899666f5200b3aa0ULL},
      {"vpr", 0x032880915d5b8cabULL, 0x82bedc19503e8183ULL},
      {"applu", 0xf87def669c7d887bULL, 0xf3a0719b3c5b62a3ULL},
      {"compress95", 0x0bd5ab55346649e0ULL, 0x9f1165cfd3ea02ffULL},
      {"mesh", 0x65018e6964bf10f8ULL, 0xab86e774ba685f69ULL},
      {"swim", 0x642366adcfa6f4bdULL, 0x4904c29a1ce3bce3ULL},
      {"tomcatv", 0xf412f9c5478db08dULL, 0x19378698dbb21926ULL},
  };
  std::string Fresh;
  const std::vector<std::string> Names = WorkloadRegistry::allNames();
  ASSERT_EQ(Names.size(), std::size(Pins));
  for (size_t P = 0; P < Names.size(); ++P) {
    Workload W = WorkloadRegistry::create(Names[P]);
    auto B = lower(*W.Program, LoweringOptions::O2());
    uint64_t Got[2];
    for (int I = 0; I < 2; ++I) {
      const WorkloadInput &In = I ? W.Ref : W.Train;
      uint64_t H = 0xcbf29ce484222325ULL;
      for (const auto &[Name, Opts] : Configs) {
        PerfModel Fast(Opts);
        Interpreter(*B, In).runFast(Fast);
        std::string Where = Names[P] + (I ? " ref " : " train ") + Name;
        EXPECT_GT(Fast.counters().L1Misses, 0u) << Where;
        EXPECT_EQ(Fast.counters().L2Accesses,
                  Opts.EnableL2 ? Fast.counters().L1Misses : 0u)
            << Where;
        H = foldCounters(H, Fast.counters());
      }
      Got[I] = H;
    }
    char Line[96];
    std::snprintf(Line, sizeof(Line),
                  "{\"%s\", 0x%016" PRIx64 "ULL, 0x%016" PRIx64 "ULL},\n",
                  Names[P].c_str(), Got[0], Got[1]);
    Fresh += Line;
    EXPECT_EQ(Names[P], Pins[P].Program);
    EXPECT_EQ(Got[0], Pins[P].Train) << Names[P] << " train";
    EXPECT_EQ(Got[1], Pins[P].Ref) << Names[P] << " ref";
  }
  if (HasFailure())
    std::printf("fresh pins:\n%s", Fresh.c_str());
}
