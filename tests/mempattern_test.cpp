//===- tests/mempattern_test.cpp - address generator semantics ------------==//

#include "ir/Builder.h"
#include "ir/Lowering.h"
#include "vm/Interpreter.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

using namespace spm;

namespace {

/// Runs one single-site access pattern for \p Iters iterations and returns
/// the generated addresses in order.
std::vector<uint64_t> generate(MemAccessSpec Spec, uint64_t RegionBytes,
                               uint64_t Iters, uint64_t Seed = 1) {
  ProgramBuilder PB("p");
  PB.region(MemRegionSpec::fixed("r", RegionBytes));
  uint32_t Main = PB.declare("main");
  PB.define(Main, [&](FunctionBuilder &F) {
    F.loop(TripCountSpec::constant(Iters), [&] { F.code(1, 0, {Spec}); });
  });
  auto P = PB.take();
  auto B = lower(*P, LoweringOptions::O2());

  struct Collect : ExecutionObserver {
    std::vector<uint64_t> Addrs;
    void onMemAccess(uint64_t A, bool) override { Addrs.push_back(A); }
  } C;
  Interpreter Interp(*B, WorkloadInput("t", Seed));
  Interp.run(C);
  return C.Addrs;
}

MemAccessSpec spec(MemAccessSpec::Pattern P) {
  MemAccessSpec M;
  M.RegionIdx = 0;
  M.Pat = P;
  return M;
}

} // namespace

TEST(MemPattern, SequentialAdvancesByStride) {
  MemAccessSpec M = spec(MemAccessSpec::Pattern::Sequential);
  M.Stride = 16;
  auto A = generate(M, 4096, 10);
  ASSERT_EQ(A.size(), 10u);
  for (size_t I = 1; I < A.size(); ++I)
    EXPECT_EQ(A[I] - A[I - 1], 16u);
}

TEST(MemPattern, SequentialWrapsAtWorkingSet) {
  MemAccessSpec M = spec(MemAccessSpec::Pattern::Sequential);
  M.Stride = 64;
  auto A = generate(M, 256, 10); // Region rounds up to 256 bytes.
  ASSERT_EQ(A.size(), 10u);
  uint64_t Base = A[0];
  for (size_t I = 0; I < A.size(); ++I)
    EXPECT_EQ(A[I], Base + (I * 64) % 256);
}

TEST(MemPattern, WorkingSetFractionRestrictsRange) {
  MemAccessSpec M = spec(MemAccessSpec::Pattern::Random);
  M.WorkingSetFrac256 = 64; // Leading quarter of the region.
  auto A = generate(M, 64 * 1024, 5000);
  uint64_t Base = *std::min_element(A.begin(), A.end());
  for (uint64_t X : A)
    EXPECT_LT(X - Base, 16u * 1024) << "outside the quarter working set";
}

TEST(MemPattern, RandomCoversTheWorkingSet) {
  MemAccessSpec M = spec(MemAccessSpec::Pattern::Random);
  auto A = generate(M, 4096, 5000);
  std::set<uint64_t> Distinct(A.begin(), A.end());
  // 512 aligned slots; 5000 draws should hit nearly all of them.
  EXPECT_GT(Distinct.size(), 400u);
  for (uint64_t X : A)
    EXPECT_EQ(X % 8, 0u) << "random accesses are 8-byte aligned";
}

TEST(MemPattern, PointIsConstant) {
  MemAccessSpec M = spec(MemAccessSpec::Pattern::Point);
  M.Offset = 128;
  auto A = generate(M, 4096, 100);
  for (uint64_t X : A)
    EXPECT_EQ(X, A[0]);
}

TEST(MemPattern, PointOffsetWrapsRegion) {
  MemAccessSpec M = spec(MemAccessSpec::Pattern::Point);
  M.Offset = 5000; // Beyond the 4096-byte region.
  auto A = generate(M, 4096, 3);
  // The region base is 4096-aligned, so the offset survives modulo.
  EXPECT_EQ(A[0] % 4096, 5000u % 4096);
  for (uint64_t X : A)
    EXPECT_EQ(X, A[0]);
}

TEST(MemPattern, ChaseIsDeterministicPerSeed) {
  MemAccessSpec M = spec(MemAccessSpec::Pattern::Chase);
  auto A = generate(M, 4096, 200, 7);
  auto B = generate(M, 4096, 200, 7);
  auto C = generate(M, 4096, 200, 8);
  EXPECT_EQ(A, B);
  EXPECT_NE(A, C);
}

TEST(MemPattern, ChaseWandersTheWorkingSet) {
  MemAccessSpec M = spec(MemAccessSpec::Pattern::Chase);
  auto A = generate(M, 4096, 2000);
  std::set<uint64_t> Distinct(A.begin(), A.end());
  EXPECT_GT(Distinct.size(), 200u);
}

TEST(MemPattern, CountEmitsMultipleAccessesPerExecution) {
  MemAccessSpec M = spec(MemAccessSpec::Pattern::Sequential);
  M.Count = 3;
  auto A = generate(M, 4096, 10);
  EXPECT_EQ(A.size(), 30u);
}

TEST(MemPattern, SeparateSitesHaveIndependentCursors) {
  ProgramBuilder PB("p");
  uint32_t R = PB.region(MemRegionSpec::fixed("r", 4096));
  uint32_t Main = PB.declare("main");
  PB.define(Main, [&](FunctionBuilder &F) {
    F.loop(TripCountSpec::constant(5), [&] {
      MemAccessSpec A;
      A.RegionIdx = R;
      A.Pat = MemAccessSpec::Pattern::Sequential;
      A.Stride = 8;
      MemAccessSpec B = A;
      B.Stride = 128;
      F.code(1, 0, {A});
      F.code(1, 0, {B});
    });
  });
  auto P = PB.take();
  auto Bin = lower(*P, LoweringOptions::O2());
  struct Collect : ExecutionObserver {
    std::vector<uint64_t> Addrs;
    void onMemAccess(uint64_t A, bool) override { Addrs.push_back(A); }
  } C;
  Interpreter(*Bin, WorkloadInput("t", 1)).run(C);
  ASSERT_EQ(C.Addrs.size(), 10u);
  // Site A advances by 8, site B by 128, interleaved.
  EXPECT_EQ(C.Addrs[2] - C.Addrs[0], 8u);
  EXPECT_EQ(C.Addrs[3] - C.Addrs[1], 128u);
}

//===----------------------------------------------------------------------===//
// One address formula: runFast's addresses against the % formulas
//===----------------------------------------------------------------------===//

namespace {

/// The address formulas written with %, one cursor set per site seeded as
/// the interpreter seeds its own, checking every address the interpreter
/// emits against them in order.
struct PercentOracle {
  const Interpreter &Geometry; ///< Region bases and sizes.
  std::vector<uint64_t> SeqPos, ChaseState, RandState;
  std::vector<uint64_t> Expected;
  size_t Next = 0;
  uint64_t Checked = 0, Mismatches = 0;
  std::set<uint32_t> Sites; ///< Sites whose addresses were checked.
  std::string FirstMismatch;

  PercentOracle(const Binary &B, const WorkloadInput &In,
                const Interpreter &Geometry)
      : Geometry(Geometry), SeqPos(B.NumMemSites, 0),
        ChaseState(B.NumMemSites), RandState(B.NumMemSites) {
    for (uint32_t I = 0; I < B.NumMemSites; ++I) {
      ChaseState[I] = In.seed() * 0x9e3779b97f4a7c15ULL + I;
      RandState[I] = splitMix64(In.seed() ^ (0x9e3779b97f4a7c15ULL * (I + 1)));
    }
  }

  uint64_t address(const MemAccessSpec &M, uint32_t Site) {
    uint64_t Base = Geometry.regionBase(M.RegionIdx);
    uint64_t Size = Geometry.regionSize(M.RegionIdx);
    uint64_t WS = Size * M.WorkingSetFrac256 / 256;
    if (WS < 64)
      WS = 64;
    switch (M.Pat) {
    case MemAccessSpec::Pattern::Sequential: {
      uint64_t Addr = Base + (SeqPos[Site] % WS);
      SeqPos[Site] += M.Stride;
      return Addr;
    }
    case MemAccessSpec::Pattern::Random: {
      uint64_t Z = splitMix64(RandState[Site] += 0x9e3779b97f4a7c15ULL);
      return Base + static_cast<uint64_t>(
                        (static_cast<unsigned __int128>(Z) * (WS / 8)) >> 64) *
                        8;
    }
    case MemAccessSpec::Pattern::Point:
      return Base + (M.Offset % Size);
    case MemAccessSpec::Pattern::Chase: {
      uint64_t S = ChaseState[Site];
      S = S * 6364136223846793005ULL + 1442695040888963407ULL;
      ChaseState[Site] = S;
      return Base + ((S >> 11) % (WS / 8)) * 8;
    }
    }
    return 0;
  }

  /// Every address expected so far was emitted.
  bool complete() const { return Next == Expected.size(); }

  void onBlock(const LoweredBlock &Blk) {
    if (!complete())
      ++Mismatches; // The previous block's runs were cut short.
    Expected.clear();
    Next = 0;
    for (size_t I = 0; I < Blk.MemOps.size(); ++I) {
      uint32_t Site = Blk.FirstMemSite + static_cast<uint32_t>(I);
      Sites.insert(Site);
      for (uint32_t C = 0; C < Blk.MemOps[I].Count; ++C)
        Expected.push_back(address(Blk.MemOps[I], Site));
    }
  }

  void onMemAccess(uint64_t Addr, bool IsStore) {
    (void)IsStore;
    ++Checked;
    if (Next < Expected.size() && Expected[Next] == Addr) {
      ++Next;
      return;
    }
    if (!Mismatches++)
      FirstMismatch = "address " + std::to_string(Checked) + ": got " +
                      std::to_string(Addr) + ", expected " +
                      (Next < Expected.size() ? std::to_string(Expected[Next])
                                              : std::string("none"));
    ++Next;
  }
};

/// Runs \p B on \p In under runFast, checked address by address against
/// the % formulas. Returns the addresses checked; adds the sites checked to
/// \p Sites.
uint64_t expectPercentFormulas(const Binary &B, const WorkloadInput &In,
                               const std::string &Ctx,
                               std::set<uint32_t> *Sites = nullptr) {
  Interpreter Interp(B, In);
  PercentOracle O(B, In, Interp);
  Interp.runFast(O);
  EXPECT_EQ(O.Mismatches, 0u) << Ctx << ": " << O.FirstMismatch;
  EXPECT_TRUE(O.complete()) << Ctx;
  if (Sites)
    Sites->insert(O.Sites.begin(), O.Sites.end());
  return O.Checked;
}

/// A one-site program: \p Spec in a loop of \p Iters over one region.
std::unique_ptr<Binary> oneSite(const MemAccessSpec &Spec,
                                uint64_t RegionBytes, uint64_t Iters) {
  ProgramBuilder PB("p");
  PB.region(MemRegionSpec::fixed("r", RegionBytes));
  uint32_t Main = PB.declare("main");
  PB.define(Main, [&](FunctionBuilder &F) {
    F.loop(TripCountSpec::constant(Iters), [&] { F.code(1, 0, {Spec}); });
  });
  return lower(*PB.take(), LoweringOptions::O2());
}

} // namespace

TEST(AddressFormula, MatchesPercentFormulasOnEveryRegistrySite) {
  for (const std::string &Name : WorkloadRegistry::allNames()) {
    Workload W = WorkloadRegistry::create(Name);
    auto B = lower(*W.Program, LoweringOptions::O2());
    std::set<uint32_t> Sites;
    for (const WorkloadInput *In : {&W.Train, &W.Ref})
      EXPECT_GT(
          expectPercentFormulas(*B, *In, Name + " " + In->name(), &Sites), 0u)
          << Name;
    EXPECT_EQ(Sites.size(), B->NumMemSites) << Name << ": sites never run";
  }
}

TEST(AddressFormula, MatchesPercentFormulasOnEdgeGeometry) {
  using Pat = MemAccessSpec::Pattern;
  struct Case {
    const char *Why;
    Pat P;
    uint64_t Region, Stride, Offset;
    uint32_t Frac, Count;
  };
  const uint64_t Max = ~0ull;
  const Case Cases[] = {
      {"working set not a power of two", Pat::Sequential, 3000, 24, 0, 100, 3},
      {"working set not a power of two", Pat::Chase, 3000, 8, 0, 100, 2},
      {"working set not a power of two", Pat::Random, 3000, 8, 0, 100, 2},
      {"64-byte floor of the working set", Pat::Sequential, 4096, 8, 0, 1, 1},
      {"64-byte floor of the working set", Pat::Chase, 4096, 8, 0, 1, 1},
      {"64-byte floor of the region", Pat::Sequential, 10, 8, 0, 256, 1},
      {"64-byte floor of the region", Pat::Random, 10, 8, 0, 256, 1},
      {"stride >= working set", Pat::Sequential, 3000, 5000, 0, 256, 2},
      {"stride >= working set", Pat::Sequential, 4096, 1ull << 40, 0, 256, 1},
      {"cursor near 2^64", Pat::Sequential, 3000, Max - 7, 0, 256, 3},
      {"cursor near 2^64", Pat::Sequential, 4096, (1ull << 63) + 1, 0, 77, 1},
      {"offset >= size", Pat::Point, 3000, 8, 5000, 256, 2},
      {"offset >= size", Pat::Point, 3000, 8, Max, 256, 1},
  };
  for (const Case &C : Cases) {
    MemAccessSpec M;
    M.Pat = C.P;
    M.Stride = C.Stride;
    M.Offset = C.Offset;
    M.WorkingSetFrac256 = C.Frac;
    M.Count = C.Count;
    auto B = oneSite(M, C.Region, 300);
    for (uint64_t Seed : {1ull, 0x9e3779b97f4a7c15ULL})
      EXPECT_EQ(expectPercentFormulas(*B, WorkloadInput("t", Seed), C.Why),
                300u * C.Count)
          << C.Why;
  }
}
