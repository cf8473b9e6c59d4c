//===- tests/DiffHarness.h - Shared cross-tier comparison helpers ---------===//
//
// The one program-comparison toolkit for every differential suite: the
// bytecode fuzz (bytecodefuzz_test.cpp) and the CFG import fuzz
// (cfgfuzz_test.cpp) both drive generated programs through all four
// execution tiers — tree walk, devirtualized runFast, plain bytecode,
// fused bytecode — and assert byte-identical event streams, run totals,
// interval records, and cache counters with these helpers. Keeping them
// in one header means a new artifact comparison lands in every fuzz leg
// at once instead of drifting per suite.
//
//===----------------------------------------------------------------------===//

#ifndef SPM_TESTS_DIFFHARNESS_H
#define SPM_TESTS_DIFFHARNESS_H

#include "callloop/Graph.h"
#include "markers/Pipeline.h"
#include "markers/Selector.h"
#include "trace/Interval.h"
#include "vm/Bytecode.h"
#include "vm/Interpreter.h"

#include <gtest/gtest.h>

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

/// Records the full event sequence, including addresses, for exact
/// stream-identity comparisons across tiers.
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

/// Event-less observer for runs where only the checkpoint matters.
struct NullObs {};

/// Runs the full four-tier stream differential on one (program, input)
/// pair: tree walk, devirtualized walk, plain bytecode, and fused
/// bytecode (superops + tapes). The modules must be compiled and verified
/// by the caller.
inline void diffOneProgram(const Binary &B, const BytecodeModule &M,
                           const BytecodeModule &F, const WorkloadInput &In,
                           const std::string &Ctx,
                           uint64_t Cap = FuzzCap) {
  RecordingObserver Legacy, Fast, Bc, Fz;
  RunResult R1 = Interpreter(B, In).run(Legacy, Cap);
  RunResult R2 = Interpreter(B, In).runFast(Fast, Cap);
  RunResult R3 = Interpreter(B, In).runBytecode(M, Bc, Cap);
  RunResult R4 = Interpreter(B, In).runBytecode(F, Fz, Cap);
  expectSameRun(R1, R2, Ctx + " (fast)");
  expectSameRun(R1, R3, Ctx + " (bytecode)");
  expectSameRun(R1, R4, Ctx + " (fused)");
  ASSERT_EQ(Legacy.Events.size(), Bc.Events.size()) << Ctx;
  ASSERT_EQ(Legacy.Events.size(), Fz.Events.size()) << Ctx;
  EXPECT_TRUE(Legacy.Events == Fast.Events) << Ctx << " (fast)";
  EXPECT_TRUE(Legacy.Events == Bc.Events) << Ctx << " (bytecode)";
  EXPECT_TRUE(Legacy.Events == Fz.Events) << Ctx << " (fused)";
}

/// Marker-pipeline identity across the three instrumented tiers (runFast,
/// plain bytecode, fused bytecode): the profiled call-loop graph, selected
/// markers, intervals, and firing traces must be byte-identical whichever
/// tier drives the pipeline.
inline void expectMarkerIdentity(const Binary &B, const BytecodeModule &M,
                                 const BytecodeModule &F,
                                 const WorkloadInput &In, uint64_t Cap,
                                 const std::string &Ctx) {
  LoopIndex Loops = LoopIndex::build(B);
  auto GFast = buildCallLoopGraph(B, Loops, In, Cap);
  auto GPlain = buildCallLoopGraph(B, Loops, In, Cap, &M);
  auto GFused = buildCallLoopGraph(B, Loops, In, Cap, &F);
  EXPECT_EQ(printGraph(*GFast), printGraph(*GPlain)) << Ctx << " (bytecode)";
  EXPECT_EQ(printGraph(*GFast), printGraph(*GFused)) << Ctx << " (fused)";

  SelectorConfig SC;
  SC.ILower = 100;
  SelectionResult Sel = selectMarkers(*GFast, SC);
  MarkerRun Fast = runMarkerIntervals(B, Loops, *GFast, Sel.Markers, In,
                                      true, true, Cap);
  MarkerRun Plain =
      runMarkerIntervals(B, Loops, *GFast, Sel.Markers, In, true, true, Cap,
                         PerfModelOptions(), &M);
  MarkerRun Fused =
      runMarkerIntervals(B, Loops, *GFast, Sel.Markers, In, true, true, Cap,
                         PerfModelOptions(), &F);
  expectSameIntervals(Fast.Intervals, Plain.Intervals, Ctx + " (bytecode)");
  expectSameIntervals(Fast.Intervals, Fused.Intervals, Ctx + " (fused)");
  EXPECT_EQ(Fast.Firings, Plain.Firings) << Ctx;
  EXPECT_EQ(Fast.Firings, Fused.Firings) << Ctx;
  expectSameRun(Fast.Run, Plain.Run, Ctx);
  expectSameRun(Fast.Run, Fused.Run, Ctx);
}

} // namespace difftest
} // namespace spm

#endif // SPM_TESTS_DIFFHARNESS_H
