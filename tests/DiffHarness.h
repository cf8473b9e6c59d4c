//===- tests/DiffHarness.h - Shared run comparison helpers ----------------===//
//
// The one program-comparison toolkit for every differential suite: the
// generated-program legs of engine_test.cpp and the CFG import fuzz
// (cfgfuzz_test.cpp) drive programs through the virtual run() and the
// devirtualized runFast and assert byte-identical event streams, run
// totals, interval records, graph dumps and cache counters with these
// helpers. Keeping them in one header means a new artifact comparison
// lands in every fuzz leg at once instead of drifting per suite.
//
//===----------------------------------------------------------------------===//

#ifndef SPM_TESTS_DIFFHARNESS_H
#define SPM_TESTS_DIFFHARNESS_H

#include "callloop/Graph.h"
#include "callloop/Profile.h"
#include "markers/Pipeline.h"
#include "markers/Selector.h"
#include "trace/Interval.h"
#include "vm/Interpreter.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

namespace spm {
namespace difftest {

/// Instruction cap per fuzz run: bounds the recursion-saturating programs
/// (ungated self-recursion terminates only via MaxCallDepth) while leaving
/// typical programs room to finish, so both completed and truncated runs
/// are differentiated.
constexpr uint64_t FuzzCap = 250'000;

inline void expectSameCounters(const PerfCounters &A, const PerfCounters &B,
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

inline void expectSameIntervals(const std::vector<IntervalRecord> &A,
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

inline void expectSameRun(const RunResult &A, const RunResult &B,
                          const std::string &Ctx) {
  EXPECT_EQ(A.TotalInstrs, B.TotalInstrs) << Ctx;
  EXPECT_EQ(A.TotalBlocks, B.TotalBlocks) << Ctx;
  EXPECT_EQ(A.TotalMemAccesses, B.TotalMemAccesses) << Ctx;
  EXPECT_EQ(A.HitInstrLimit, B.HitInstrLimit) << Ctx;
}

/// Whole marker runs: totals, firing trace and every interval.
inline void expectSameMarkerRun(const MarkerRun &A, const MarkerRun &B,
                                const std::string &Ctx) {
  expectSameRun(A.Run, B.Run, Ctx);
  EXPECT_EQ(A.Firings, B.Firings) << Ctx;
  expectSameIntervals(A.Intervals, B.Intervals, Ctx);
}

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

/// Runs the stream differential on one (program, input) pair: the virtual
/// run() and the devirtualized runFast, each into a RecordingObserver, must
/// agree on the run totals and on every event.
inline void diffOneProgram(const Binary &B, const WorkloadInput &In,
                           const std::string &Ctx,
                           uint64_t Cap = FuzzCap) {
  RecordingObserver Legacy, Fast;
  RunResult R1 = Interpreter(B, In).run(Legacy, Cap);
  RunResult R2 = Interpreter(B, In).runFast(Fast, Cap);
  expectSameRun(R1, R2, Ctx + " (fast)");
  ASSERT_EQ(Legacy.Events.size(), Fast.Events.size()) << Ctx;
  EXPECT_TRUE(Legacy.Events == Fast.Events) << Ctx << " (fast)";
}

/// Fixed-interval identity: the hand-wired ObserverMux stack under the
/// virtual run() must reproduce runFixedIntervals' records (BBVs and
/// counters included) exactly.
inline void expectFixedIdentity(const Binary &B, const WorkloadInput &In,
                                uint64_t Len, uint64_t Cap,
                                const std::string &Ctx) {
  std::vector<IntervalRecord> Ref =
      runFixedIntervals(B, In, Len, /*CollectBbv=*/true, Cap);
  PerfModel Perf;
  IntervalBuilder Ivb = IntervalBuilder::fixedLength(Len, &Perf, true);
  ObserverMux Mux;
  Mux.add(&Ivb);
  Mux.add(&Perf);
  Interpreter(B, In).run(Mux, Cap);
  expectSameIntervals(Ref, Ivb.takeIntervals(), Ctx + " (fixed, virtual)");
}

/// Marker-pipeline identity: the call-loop graph profiled through a
/// GraphProfiler listener under run(), and the marker intervals and firing
/// trace of the hand-wired ObserverMux stack under run(), must be
/// byte-identical to the buildCallLoopGraph / runMarkerIntervals drivers.
inline void expectMarkerIdentity(const Binary &B, const WorkloadInput &In,
                                 uint64_t Cap, const std::string &Ctx) {
  LoopIndex Loops = LoopIndex::build(B);
  auto GRef = buildCallLoopGraph(B, Loops, In, Cap);
  CallLoopGraph G(B, Loops);
  {
    CallLoopTracker T(B, Loops, G);
    GraphProfiler Prof(G);
    T.addListener(&Prof);
    Interpreter(B, In).run(T, Cap);
    G.finalize();
  }
  EXPECT_EQ(printGraph(*GRef), printGraph(G)) << Ctx << " (graph, virtual)";

  SelectorConfig SC;
  SC.ILower = 100;
  SelectionResult Sel = selectMarkers(*GRef, SC);
  MarkerRun Ref = runMarkerIntervals(B, Loops, *GRef, Sel.Markers, In,
                                     /*CollectBbv=*/true,
                                     /*RecordFirings=*/true, Cap);
  MarkerRun Got;
  PerfModel Perf;
  IntervalBuilder Ivb = IntervalBuilder::markerDriven(&Perf, true);
  CallLoopTracker Tracker(B, Loops, *GRef);
  MarkerRuntime Runtime(Sel.Markers, *GRef);
  Tracker.addListener(&Runtime);
  Runtime.setCallback([&](int32_t Idx) {
    Ivb.requestCut(Idx);
    Got.Firings.push_back(Idx);
  });
  ObserverMux Mux;
  Mux.add(&Tracker);
  Mux.add(&Ivb);
  Mux.add(&Perf);
  Got.Run = Interpreter(B, In).run(Mux, Cap);
  Got.Intervals = Ivb.takeIntervals();
  expectSameMarkerRun(Ref, Got, Ctx + " (markers, virtual)");
}

} // namespace difftest
} // namespace spm

#endif // SPM_TESTS_DIFFHARNESS_H
