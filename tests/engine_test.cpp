//===- tests/engine_test.cpp - event-delivery differential tests ----------==//
//
// Proves the virtual entry point (run, which is runFast instantiated on
// ExecutionObserver) produces output byte-identical to runFast on the
// concrete observer types, on real workloads, across every derived
// artifact the pipeline computes: call-loop graph dumps, fixed-interval BBV
// streams, marker interval streams, and cache statistics. Also pins that
// run() dispatches virtually through the base, the ObserverMux/StaticMux
// ordering guarantee, and the zero-weight call-candidate fallback.
//
//===----------------------------------------------------------------------==//

#include "callloop/Profile.h"
#include "ir/Builder.h"
#include "ir/Lowering.h"
#include "markers/Pipeline.h"
#include "markers/Selector.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

using namespace spm;

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

void expectSameCounters(const PerfCounters &A, const PerfCounters &B,
                        const std::string &Ctx) {
  EXPECT_EQ(A.Instrs, B.Instrs) << Ctx;
  EXPECT_EQ(A.BaseCycles, B.BaseCycles) << Ctx;
  EXPECT_EQ(A.L1Accesses, B.L1Accesses) << Ctx;
  EXPECT_EQ(A.L1Misses, B.L1Misses) << Ctx;
  EXPECT_EQ(A.L2Accesses, B.L2Accesses) << Ctx;
  EXPECT_EQ(A.L2Misses, B.L2Misses) << Ctx;
  EXPECT_EQ(A.Branches, B.Branches) << Ctx;
  EXPECT_EQ(A.Mispredicts, B.Mispredicts) << Ctx;
}

void expectSameIntervals(const std::vector<IntervalRecord> &A,
                         const std::vector<IntervalRecord> &B,
                         const std::string &Ctx) {
  ASSERT_EQ(A.size(), B.size()) << Ctx;
  for (size_t I = 0; I < A.size(); ++I) {
    std::string C = Ctx + " interval " + std::to_string(I);
    EXPECT_EQ(A[I].StartInstr, B[I].StartInstr) << C;
    EXPECT_EQ(A[I].NumInstrs, B[I].NumInstrs) << C;
    EXPECT_EQ(A[I].PhaseId, B[I].PhaseId) << C;
    expectSameCounters(A[I].Perf, B[I].Perf, C);
    ASSERT_EQ(A[I].Vector.size(), B[I].Vector.size()) << C;
    for (size_t J = 0; J < A[I].Vector.size(); ++J) {
      EXPECT_EQ(A[I].Vector[J].first, B[I].Vector[J].first) << C;
      EXPECT_EQ(A[I].Vector[J].second, B[I].Vector[J].second) << C;
    }
  }
}

void expectSameRun(const RunResult &A, const RunResult &B,
                   const std::string &Ctx) {
  EXPECT_EQ(A.TotalInstrs, B.TotalInstrs) << Ctx;
  EXPECT_EQ(A.TotalBlocks, B.TotalBlocks) << Ctx;
  EXPECT_EQ(A.TotalMemAccesses, B.TotalMemAccesses) << Ctx;
  EXPECT_EQ(A.HitInstrLimit, B.HitInstrLimit) << Ctx;
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

// Fixed-length intervals with BBVs and perf counters: legacy hand-wired
// ObserverMux under run() vs the runFixedIntervals driver (StaticMux +
// runFast).
TEST(EngineDifferential, FixedIntervalsAndBbv) {
  constexpr uint64_t Len = 100'000;
  for (const RunCase &RC : differentialCases()) {
    Workload W = WorkloadRegistry::create(
        RC.Name.substr(0, RC.Name.find('/')));
    auto B = lower(*W.Program, LoweringOptions::O2());

    std::vector<IntervalRecord> Legacy;
    {
      PerfModel Perf;
      IntervalBuilder Ivb = IntervalBuilder::fixedLength(Len, &Perf, true);
      ObserverMux Mux;
      Mux.add(&Ivb);
      Mux.add(&Perf);
      Interpreter(*B, RC.In).run(Mux, Cap);
      Legacy = Ivb.takeIntervals();
    }

    std::vector<IntervalRecord> Engine =
        runFixedIntervals(*B, RC.In, Len, true, Cap);
    expectSameIntervals(Legacy, Engine, RC.Name);
  }
}

// Marker-cut variable-length intervals and the firing trace: legacy
// hand-wired stack under run() vs the runMarkerIntervals driver.
TEST(EngineDifferential, MarkerIntervalsAndFirings) {
  for (const RunCase &RC : differentialCases()) {
    Workload W = WorkloadRegistry::create(
        RC.Name.substr(0, RC.Name.find('/')));
    auto B = lower(*W.Program, LoweringOptions::O2());
    LoopIndex Loops = LoopIndex::build(*B);
    auto G = buildCallLoopGraph(*B, Loops, RC.In, Cap);
    SelectorConfig SC;
    SelectionResult Sel = selectMarkers(*G, SC);
    if (Sel.Markers.empty())
      continue; // Nothing to differentiate on this input.

    std::vector<IntervalRecord> LegacyIv;
    std::vector<int32_t> LegacyFirings;
    RunResult LegacyRun;
    {
      PerfModel Perf;
      IntervalBuilder Ivb = IntervalBuilder::markerDriven(&Perf, true);
      CallLoopTracker Tracker(*B, Loops, *G);
      MarkerRuntime Runtime(Sel.Markers, *G);
      Tracker.addListener(&Runtime);
      Runtime.setCallback([&](int32_t Idx) {
        Ivb.requestCut(Idx);
        LegacyFirings.push_back(Idx);
      });
      ObserverMux Mux;
      Mux.add(&Tracker);
      Mux.add(&Ivb);
      Mux.add(&Perf);
      LegacyRun = Interpreter(*B, RC.In).run(Mux, Cap);
      LegacyIv = Ivb.takeIntervals();
    }

    MarkerRun Engine = runMarkerIntervals(*B, Loops, *G, Sel.Markers, RC.In,
                                          /*CollectBbv=*/true,
                                          /*RecordFirings=*/true, Cap);
    EXPECT_EQ(LegacyFirings, Engine.Firings) << RC.Name;
    expectSameRun(LegacyRun, Engine.Run, RC.Name);
    expectSameIntervals(LegacyIv, Engine.Intervals, RC.Name);
  }
}

// Whole-run cache statistics: PerfModel alone under run() and runFast.
TEST(EngineDifferential, CacheStats) {
  for (const RunCase &RC : differentialCases()) {
    Workload W = WorkloadRegistry::create(
        RC.Name.substr(0, RC.Name.find('/')));
    auto B = lower(*W.Program, LoweringOptions::O2());

    PerfModel P1, P2;
    RunResult R1 = Interpreter(*B, RC.In).run(P1, Cap);
    RunResult R2 = Interpreter(*B, RC.In).runFast(P2, Cap);
    expectSameRun(R1, R2, RC.Name);
    expectSameCounters(P1.counters(), P2.counters(), RC.Name);
  }
}

//===----------------------------------------------------------------------===//
// Event-stream identity and mem-skip equivalence
//===----------------------------------------------------------------------===//

namespace {

/// Records the full event sequence, including addresses, for exact
/// stream-identity comparisons.
class RecordingObserver : public ExecutionObserver {
public:
  struct Event {
    enum class Kind { Block, Mem, Branch, Call, Ret } K;
    uint64_t A = 0;
    uint64_t B = 0;
    bool Flag = false;
    bool Backward = false;

    bool operator==(const Event &O) const {
      return K == O.K && A == O.A && B == O.B && Flag == O.Flag &&
             Backward == O.Backward;
    }
  };

  void onBlock(const LoweredBlock &Blk) override {
    Events.push_back({Event::Kind::Block, Blk.Addr, 0, false, false});
  }
  void onMemAccess(uint64_t Addr, bool IsStore) override {
    Events.push_back({Event::Kind::Mem, Addr, 0, IsStore, false});
  }
  void onBranch(uint64_t Pc, uint64_t Target, bool Taken, bool Backward,
                bool Conditional) override {
    (void)Conditional;
    Events.push_back({Event::Kind::Branch, Pc, Target, Taken, Backward});
  }
  void onCall(uint64_t Site, uint32_t Callee) override {
    Events.push_back({Event::Kind::Call, Callee, Site, false, false});
  }
  void onReturn(uint32_t Callee) override {
    Events.push_back({Event::Kind::Ret, Callee, 0, false, false});
  }

  std::vector<Event> Events;
};

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
