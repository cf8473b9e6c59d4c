//===- tests/engine_test.cpp - event-delivery differential tests ----------==//
//
// Proves the virtual entry point (run, which is runFast instantiated on
// ExecutionObserver) produces output byte-identical to runFast on the
// concrete observer types, on real workloads, across every derived
// artifact the pipeline computes: call-loop graph dumps, fixed-interval BBV
// streams, marker interval streams, and cache statistics. Generated
// programs (tests/IrGen.h) and hand-built degenerate shapes run the same
// contract against the RecordingObserver oracle: run() and runFast emit
// identical event streams, and the production drivers match the
// hand-wired virtual stacks. Also pins that run() dispatches virtually
// through the base, the ObserverMux/StaticMux ordering guarantee, and the
// zero-weight call-candidate fallback.
//
//===----------------------------------------------------------------------==//

#include "callloop/Profile.h"
#include "ir/Builder.h"
#include "ir/Lowering.h"
#include "markers/Pipeline.h"
#include "markers/Selector.h"
#include "workloads/Workloads.h"

#include "DiffHarness.h"
#include "IrGen.h"

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

using namespace spm;
using namespace spm::difftest;

namespace {

/// Instruction cap: large enough to cover millions of events, small enough
/// to keep the suite fast. Deliberately truncates every
/// workload mid-run so the differential also covers limit-hit paths.
constexpr uint64_t Cap = 1'500'000;

/// First three registry workloads, each at its ref seed and a perturbed
/// seed — the "3 workloads x 2 seeds" differential matrix.
struct RunCase {
  std::string Name;
  WorkloadInput In;
};

std::vector<RunCase> differentialCases() {
  std::vector<RunCase> Cases;
  std::vector<std::string> Names = WorkloadRegistry::allNames();
  for (size_t I = 0; I < Names.size() && I < 3; ++I) {
    Workload W = WorkloadRegistry::create(Names[I]);
    Cases.push_back({Names[I] + "/seed0", W.Ref});
    WorkloadInput Other = W.Ref;
    Other.setSeed(W.Ref.seed() + 1);
    Cases.push_back({Names[I] + "/seed1", Other});
  }
  return Cases;
}

} // namespace

//===----------------------------------------------------------------------===//
// Differential: virtual run() vs devirtualized runFast
//===----------------------------------------------------------------------===//

// Call-loop graph dump: tracker + GraphProfiler listener under run() vs
// the dense-id fast path (setProfileTarget + runFast) vs the listener stack
// under runFast. All three dumps must be byte-identical.
TEST(EngineDifferential, CallLoopGraphDump) {
  for (const RunCase &RC : differentialCases()) {
    Workload W = WorkloadRegistry::create(
        RC.Name.substr(0, RC.Name.find('/')));
    auto B = lower(*W.Program, LoweringOptions::O2());
    LoopIndex Loops = LoopIndex::build(*B);

    CallLoopGraph G1(*B, Loops);
    {
      CallLoopTracker T(*B, Loops, G1);
      GraphProfiler Prof(G1);
      T.addListener(&Prof);
      Interpreter(*B, RC.In).run(T, Cap);
      G1.finalize();
    }

    CallLoopGraph G2(*B, Loops);
    {
      CallLoopTracker T(*B, Loops, G2);
      T.setProfileTarget(&G2);
      Interpreter(*B, RC.In).runFast(T, Cap);
      G2.finalize();
    }

    CallLoopGraph G3(*B, Loops);
    {
      CallLoopTracker T(*B, Loops, G3);
      GraphProfiler Prof(G3);
      T.addListener(&Prof);
      Interpreter(*B, RC.In).runFast(T, Cap);
      G3.finalize();
    }

    std::string D1 = printGraph(G1);
    EXPECT_EQ(D1, printGraph(G2)) << RC.Name << " (fast path)";
    EXPECT_EQ(D1, printGraph(G3)) << RC.Name << " (fast listener)";
  }
}

// Fixed-length intervals with BBVs and perf counters, and marker-cut
// intervals with the firing trace: the hand-wired ObserverMux stacks under
// run() vs the runFixedIntervals and runMarkerIntervals drivers (StaticMux
// + runFast).
TEST(EngineDifferential, IntervalsAndFirings) {
  for (const RunCase &RC : differentialCases()) {
    Workload W = WorkloadRegistry::create(
        RC.Name.substr(0, RC.Name.find('/')));
    auto B = lower(*W.Program, LoweringOptions::O2());
    expectFixedIdentity(*B, RC.In, 100'000, Cap, RC.Name);
    expectMarkerIdentity(*B, RC.In, Cap, RC.Name);
  }
}

// Whole-run cache statistics: PerfModel alone under run() (one access at
// a time) and runFast (bulk runs), for the default 2-way DL1, with the
// 8-way L2, and with a 1-, 4- and 8-way DL1, so each of CacheModel's run
// loops and the L2 path meet both deliveries.
TEST(EngineDifferential, CacheStats) {
  std::vector<std::pair<std::string, PerfModelOptions>> Configs;
  Configs.push_back({"default", PerfModelOptions()});
  PerfModelOptions WithL2;
  WithL2.EnableL2 = true;
  Configs.push_back({"L2", WithL2});
  for (uint32_t Ways : {1u, 4u, 8u}) {
    PerfModelOptions O;
    O.DL1.Assoc = Ways;
    Configs.push_back({std::to_string(Ways) + "-way", O});
  }
  for (const RunCase &RC : differentialCases()) {
    Workload W = WorkloadRegistry::create(
        RC.Name.substr(0, RC.Name.find('/')));
    auto B = lower(*W.Program, LoweringOptions::O2());

    for (const auto &[Name, Opts] : Configs) {
      PerfModel P1(Opts), P2(Opts);
      RunResult R1 = Interpreter(*B, RC.In).run(P1, Cap);
      RunResult R2 = Interpreter(*B, RC.In).runFast(P2, Cap);
      std::string Ctx = RC.Name + " " + Name;
      expectSameRun(R1, R2, Ctx);
      expectSameCounters(P1.counters(), P2.counters(), Ctx);
    }
  }
}

//===----------------------------------------------------------------------===//
// Event-stream identity and mem-skip equivalence
//===----------------------------------------------------------------------===//

namespace {

/// Observer with no memory handler: runFast drops to the skipAccesses
/// path, which must leave every other event and all RNG-derived state
/// bit-identical to a full run.
struct BlockLog {
  std::vector<uint64_t> Blocks;
  void onBlock(const LoweredBlock &Blk) { Blocks.push_back(Blk.Addr); }
};

} // namespace

// run() instantiates the emitter on ExecutionObserver, so every handler
// must be called virtually through the base. Were the emitter to bind
// qualified calls to ExecutionObserver's own no-op handlers instead, the
// run totals would still match but no event would arrive — so the
// delivered streams and counters are compared against runFast on the
// concrete type, on full and truncated runs. PerfModel has an onMemRun of
// its own, which the virtual interface lacks: run() must still feed it
// every access through onMemAccess.
TEST(EngineDispatch, RunDeliversThroughBaseReference) {
  Workload W = WorkloadRegistry::create("gzip");
  auto B = lower(*W.Program, LoweringOptions::O2());
  for (uint64_t Limit : {Cap, uint64_t(123'456)}) {
    std::string Ctx = "limit " + std::to_string(Limit);
    RecordingObserver Concrete, Virtual;
    ExecutionObserver &VirtualBase = Virtual;
    RunResult R1 = Interpreter(*B, W.Ref).runFast(Concrete, Limit);
    RunResult R2 = Interpreter(*B, W.Ref).run(VirtualBase, Limit);
    expectSameRun(R1, R2, Ctx);
    ASSERT_FALSE(Concrete.Events.empty()) << Ctx;
    ASSERT_EQ(Concrete.Events.size(), Virtual.Events.size()) << Ctx;
    EXPECT_TRUE(Concrete.Events == Virtual.Events) << Ctx;

    PerfModel PConcrete, PVirtual;
    ExecutionObserver &PerfBase = PVirtual;
    RunResult R3 = Interpreter(*B, W.Ref).runFast(PConcrete, Limit);
    RunResult R4 = Interpreter(*B, W.Ref).run(PerfBase, Limit);
    expectSameRun(R3, R4, Ctx + " (perf)");
    ASSERT_GT(PConcrete.counters().L1Accesses, 0u) << Ctx;
    expectSameCounters(PConcrete.counters(), PVirtual.counters(),
                       Ctx + " (perf)");
  }
}

// Mem-event skipping (wantsMemEvents false) must not perturb the shared RNG
// stream: the block trace and run totals stay identical to a full run.
TEST(EngineDifferential, MemSkipPreservesControlFlow) {
  for (const RunCase &RC : differentialCases()) {
    Workload W = WorkloadRegistry::create(
        RC.Name.substr(0, RC.Name.find('/')));
    auto B = lower(*W.Program, LoweringOptions::O2());

    RecordingObserver Full;
    RunResult R1 = Interpreter(*B, RC.In).run(Full, Cap);

    BlockLog Skim;
    RunResult R2 = Interpreter(*B, RC.In).runFast(Skim, Cap);

    expectSameRun(R1, R2, RC.Name);
    std::vector<uint64_t> FullBlocks;
    for (const auto &E : Full.Events)
      if (E.K == RecordingObserver::Event::Kind::Block)
        FullBlocks.push_back(E.A);
    EXPECT_EQ(FullBlocks, Skim.Blocks) << RC.Name;
  }
}

//===----------------------------------------------------------------------===//
// Ordering guarantees
//===----------------------------------------------------------------------===//

namespace {

/// Appends (tag, event-kind, payload) to a shared log; two of these behind
/// a mux expose the exact per-event fan-out interleave.
class TaggedObserver : public ExecutionObserver {
public:
  struct Entry {
    int Tag;
    char Kind;
    uint64_t Payload;
    bool operator==(const Entry &O) const {
      return Tag == O.Tag && Kind == O.Kind && Payload == O.Payload;
    }
  };

  TaggedObserver(int Tag, std::vector<Entry> &Log) : Tag(Tag), Log(Log) {}

  void onBlock(const LoweredBlock &Blk) override {
    Log.push_back({Tag, 'B', Blk.Addr});
  }
  void onMemAccess(uint64_t Addr, bool IsStore) override {
    Log.push_back({Tag, IsStore ? 'S' : 'L', Addr});
  }
  void onBranch(uint64_t Pc, uint64_t, bool, bool, bool) override {
    Log.push_back({Tag, 'J', Pc});
  }
  void onCall(uint64_t, uint32_t Callee) override {
    Log.push_back({Tag, 'C', Callee});
  }
  void onReturn(uint32_t Callee) override {
    Log.push_back({Tag, 'R', Callee});
  }

private:
  int Tag;
  std::vector<Entry> &Log;
};

} // namespace

// ObserverMux under run() and StaticMux under runFast must produce the same
// interleave: for every event, observer 1 sees it before observer 2, and no
// event is reordered across observers. This is the contract
// runMarkerIntervals relies on (tracker fires marker cuts before the
// interval builder accounts the block).
TEST(EngineOrdering, ObserverMuxAndStaticMuxInterleaveAlike) {
  Workload W = WorkloadRegistry::create("gzip");
  auto B = lower(*W.Program, LoweringOptions::O2());
  constexpr uint64_t Limit = 200'000;

  std::vector<TaggedObserver::Entry> VirtualLog;
  {
    TaggedObserver A(1, VirtualLog), C(2, VirtualLog);
    ObserverMux Mux;
    Mux.add(&A);
    Mux.add(&C);
    Interpreter(*B, W.Ref).run(Mux, Limit);
  }

  std::vector<TaggedObserver::Entry> StaticLog;
  {
    TaggedObserver A(1, StaticLog), C(2, StaticLog);
    StaticMux<TaggedObserver, TaggedObserver> Mux(A, C);
    Interpreter(*B, W.Ref).runFast(Mux, Limit);
  }

  ASSERT_FALSE(VirtualLog.empty());
  EXPECT_TRUE(VirtualLog == StaticLog) << "StaticMux reordered under "
                                         "devirtualized dispatch";
  // Spot-check the pairwise property directly: entries alternate 1,2 with
  // identical (kind, payload) pairs.
  for (size_t I = 0; I + 1 < VirtualLog.size(); I += 2) {
    EXPECT_EQ(VirtualLog[I].Tag, 1);
    EXPECT_EQ(VirtualLog[I + 1].Tag, 2);
    EXPECT_EQ(VirtualLog[I].Kind, VirtualLog[I + 1].Kind);
    EXPECT_EQ(VirtualLog[I].Payload, VirtualLog[I + 1].Payload);
  }
}

//===----------------------------------------------------------------------===//
// Zero-weight call-candidate fallback
//===----------------------------------------------------------------------===//

namespace {

class CallCounter : public ExecutionObserver {
public:
  void onCall(uint64_t, uint32_t Callee) override {
    if (Callee >= Counts.size())
      Counts.resize(Callee + 1, 0);
    ++Counts[Callee];
  }
  std::vector<uint64_t> Counts;
};

} // namespace

// A dispatch site whose candidates all carry weight 0 used to feed
// Rand.nextBelow(0) (assert in debug, last-candidate bias in release).
// The fixed interpreter falls back to a uniform pick: the run completes
// and every candidate is reached.
TEST(Interpreter, ZeroWeightCallCandidatesFallBackToUniform) {
  ProgramBuilder PB("zw");
  uint32_t Main = PB.declare("main");
  uint32_t F1 = PB.declare("f1");
  uint32_t F2 = PB.declare("f2");
  PB.define(F1, [&](FunctionBuilder &F) { F.code(5); });
  PB.define(F2, [&](FunctionBuilder &F) { F.code(7); });
  PB.define(Main, [&](FunctionBuilder &F) {
    F.loop(TripCountSpec::constant(400), [&] {
      F.callOneOf({{F1, 0}, {F2, 0}});
    });
  });
  auto P = PB.take();
  auto B = lower(*P, LoweringOptions::O2());

  CallCounter Counter;
  WorkloadInput In("zw", 7);
  RunResult R = Interpreter(*B, In).run(Counter, Cap);
  EXPECT_FALSE(R.HitInstrLimit);

  ASSERT_GT(Counter.Counts.size(), std::max(F1, F2));
  uint64_t N1 = Counter.Counts[F1], N2 = Counter.Counts[F2];
  EXPECT_EQ(N1 + N2, 400u);
  // Uniform fallback: P(all 400 picks land on one side) = 2^-399.
  EXPECT_GT(N1, 0u);
  EXPECT_GT(N2, 0u);

  // The devirtualized engine takes the same fallback branch.
  CallCounter Counter2;
  Interpreter(*B, In).runFast(Counter2, Cap);
  EXPECT_EQ(Counter.Counts, Counter2.Counts);
}

//===----------------------------------------------------------------------===//
// Generated and degenerate programs
//===----------------------------------------------------------------------===//

// 200 generated programs x 2 input seeds, on completed and cap-truncated
// runs alike: run() and runFast, each into a RecordingObserver, agree on
// the run totals and on every event.
TEST(EngineGenerated, RunAndRunFastAgreeOnGeneratedPrograms) {
  for (uint64_t Seed = 0; Seed < 200; ++Seed) {
    auto Prog = irgen::generateProgram(Seed);
    auto B = lower(*Prog, LoweringOptions::O2());
    for (uint64_t InSeed : {Seed, Seed + 1000})
      diffOneProgram(*B, irgen::makeInput(InSeed),
                     "program " + std::to_string(Seed) + " input " +
                         std::to_string(InSeed));
  }
}

// Graph, marker and fixed-interval drivers on generated programs against
// the hand-wired virtual stacks.
TEST(EngineGenerated, DriversMatchVirtualStacks) {
  for (uint64_t Seed = 0; Seed < 8; ++Seed) {
    auto Prog = irgen::generateProgram(Seed * 13 + 3);
    auto B = lower(*Prog, LoweringOptions::O2());
    WorkloadInput In = irgen::makeInput(Seed);
    std::string Ctx = "program " + std::to_string(Seed);
    expectMarkerIdentity(*B, In, FuzzCap, Ctx);
    expectFixedIdentity(*B, In, 10'000, FuzzCap, Ctx);
  }
}

// Edge shapes the generator only hits probabilistically, pinned down: an
// empty program, a zero-trip-only body, a deep nesting chain,
// depth-cap-saturating unconditional self-recursion, a trip-1 loop, and a
// loop far longer than the instruction cap.
TEST(EngineGenerated, DegenerateShapes) {
  auto check = [](std::unique_ptr<SourceProgram> Prog, uint64_t Seed,
                  const std::string &Ctx) {
    auto B = lower(*Prog, LoweringOptions::O2());
    diffOneProgram(*B, WorkloadInput(Ctx, Seed), Ctx);
  };
  {
    ProgramBuilder PB("empty");
    PB.region(MemRegionSpec::fixed("r", 1024));
    PB.declare("main");
    PB.define(0, [](FunctionBuilder &) {});
    check(PB.take(), 1, "empty main");
  }
  {
    ProgramBuilder PB("zerotrip");
    PB.region(MemRegionSpec::fixed("r", 1024));
    PB.declare("main");
    PB.define(0, [](FunctionBuilder &FB) {
      FB.loop(TripCountSpec::constant(0), [&] { FB.code(7); });
    });
    check(PB.take(), 2, "zero-trip loop");
  }
  {
    ProgramBuilder PB("deep");
    PB.region(MemRegionSpec::fixed("r", 1024));
    PB.declare("main");
    PB.define(0, [](FunctionBuilder &FB) {
      std::function<void(int)> Nest = [&](int D) {
        if (D == 0) {
          FB.code(1);
          return;
        }
        FB.loop(TripCountSpec::constant(2), [&] { Nest(D - 1); });
      };
      Nest(12);
    });
    check(PB.take(), 3, "deep nesting");
  }
  {
    ProgramBuilder PB("satdepth");
    PB.region(MemRegionSpec::fixed("r", 1024));
    PB.declare("main");
    PB.define(0, [](FunctionBuilder &FB) {
      FB.code(2);
      FB.callIf(0, 1.0); // Terminates only via the MaxCallDepth cap.
      FB.code(1);
    });
    check(PB.take(), 4, "depth-cap saturation");
  }
  {
    ProgramBuilder PB("trip1");
    PB.region(MemRegionSpec::fixed("r", 1024));
    PB.declare("main");
    PB.define(0, [](FunctionBuilder &FB) {
      FB.loop(TripCountSpec::constant(1), [&] { FB.code(3); });
    });
    check(PB.take(), 5, "trip-1 loop");
  }
  {
    ProgramBuilder PB("bigloop");
    PB.region(MemRegionSpec::fixed("r", 4096));
    PB.declare("main");
    PB.define(0, [](FunctionBuilder &FB) {
      FB.loop(TripCountSpec::constant(1'000'000), [&] { FB.code(8); });
    });
    check(PB.take(), 6, "loop longer than the cap");
  }
}
