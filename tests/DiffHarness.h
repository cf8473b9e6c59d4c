//===- tests/DiffHarness.h - Shared run comparison helpers ----------------===//
//
// The one program-comparison toolkit for every differential suite: the
// generated-program legs of shard_test.cpp and the CFG import fuzz
// (cfgfuzz_test.cpp) drive programs through the virtual run() and the
// devirtualized runFast, whole and cut into segment chains, and assert
// byte-identical event streams, run totals, interval records, and cache
// counters with these helpers. Keeping them in one header means a new
// artifact comparison lands in every fuzz leg at once instead of drifting
// per suite.
//
// It also holds the one serial segment chain every checkpoint suite uses
// (shard_test, faultfuzz_test, attribution_test, cfgfuzz_test): a run cut
// at chosen instruction boundaries, each segment a fresh interpreter and
// observer stack restored from the previous boundary's serialized
// PipelineCheckpoint.
//
//===----------------------------------------------------------------------===//

#ifndef SPM_TESTS_DIFFHARNESS_H
#define SPM_TESTS_DIFFHARNESS_H

#include "callloop/Graph.h"
#include "markers/Checkpoint.h"
#include "markers/Pipeline.h"
#include "markers/Selector.h"
#include "trace/Interval.h"
#include "vm/Interpreter.h"

#include <gtest/gtest.h>

#include <memory>
#include <optional>
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

/// Event-less observer for runs where only the checkpoint matters.
struct NullObs {};

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

//===----------------------------------------------------------------------===//
// Serial segment chains
//===----------------------------------------------------------------------===//
//
// A chain stack owns a fresh interpreter plus the observers of one driver,
// exposed as `Obs`, and knows which PipelineCheckpoint sections those
// observers fill (save/restore) and which outputs they produce
// (takeOutputs). runChainSegment drives any of them.

/// What every chain stack carries besides its observers. Stacks are
/// pinned in place: their muxes and callbacks hold member addresses.
struct ChainStackBase {
  const Binary &B;
  const WorkloadInput &In;
  Interpreter Interp;

  ChainStackBase(const Binary &B, const WorkloadInput &In)
      : B(B), In(In), Interp(B, In) {}
  ChainStackBase(const ChainStackBase &) = delete;
  ChainStackBase &operator=(const ChainStackBase &) = delete;
};

/// The full marker pipeline, identical to the stack `spm_tool checkpoint
/// save/resume` builds: tracker -> marker runtime -> interval builder ->
/// perf model under one mux. Firings are recorded in order.
struct MarkerStack : ChainStackBase {
  PerfModel Perf;
  IntervalBuilder Ivb;
  CallLoopTracker Tracker;
  MarkerRuntime Runtime;
  StaticMux<CallLoopTracker, IntervalBuilder, PerfModel> Obs;
  std::vector<int32_t> Firings;

  MarkerStack(const Binary &B, const LoopIndex &Loops, const CallLoopGraph &G,
              const MarkerSet &M, const WorkloadInput &In,
              bool CollectBbv = true)
      : ChainStackBase(B, In),
        Ivb(IntervalBuilder::markerDriven(&Perf, CollectBbv)),
        Tracker(B, Loops, G), Runtime(M, G), Obs(Tracker, Ivb, Perf) {
    Tracker.addListener(&Runtime);
    Runtime.setCallback([this](int32_t Idx) {
      Ivb.requestCut(Idx);
      Firings.push_back(Idx);
    });
  }
  void save(PipelineCheckpoint &C) const {
    C.HasTracker = true;
    C.Tracker = Tracker.saveState();
    C.HasInterval = true;
    C.Interval = Ivb.saveState();
    C.HasPerf = true;
    C.Perf = Perf.saveState();
    C.HasMarkers = true;
    C.Markers = Runtime.saveState();
  }
  bool restore(const PipelineCheckpoint &C) {
    if (!C.HasTracker || !C.HasInterval || !C.HasPerf || !C.HasMarkers ||
        !Tracker.restoreState(C.Tracker) || !Perf.restoreState(C.Perf) ||
        !Runtime.restoreState(C.Markers))
      return false;
    Ivb.restoreState(C.Interval);
    return true;
  }
  void takeOutputs(MarkerRun &Out) {
    for (IntervalRecord &R : Ivb.takeIntervals())
      Out.Intervals.push_back(std::move(R));
    Out.Firings.insert(Out.Firings.end(), Firings.begin(), Firings.end());
  }
};

/// Fixed-length intervals with the perf model, as runFixedIntervals wires
/// them.
struct FixedStack : ChainStackBase {
  PerfModel Perf;
  IntervalBuilder Ivb;
  StaticMux<IntervalBuilder, PerfModel> Obs;

  FixedStack(const Binary &B, const WorkloadInput &In, uint64_t Len,
             bool CollectBbv = true)
      : ChainStackBase(B, In),
        Ivb(IntervalBuilder::fixedLength(Len, &Perf, CollectBbv)),
        Obs(Ivb, Perf) {}
  void save(PipelineCheckpoint &C) const {
    C.HasInterval = true;
    C.Interval = Ivb.saveState();
    C.HasPerf = true;
    C.Perf = Perf.saveState();
  }
  bool restore(const PipelineCheckpoint &C) {
    if (!C.HasInterval || !C.HasPerf || !Perf.restoreState(C.Perf))
      return false;
    Ivb.restoreState(C.Interval);
    return true;
  }
  void takeOutputs(MarkerRun &Out) {
    for (IntervalRecord &R : Ivb.takeIntervals())
      Out.Intervals.push_back(std::move(R));
  }
};

/// Call-loop graph profiling, as buildCallLoopGraph wires it: a tracker
/// recording straight into \p G. Every segment of a chain profiles into
/// the same graph; the caller finalizes it after the last segment.
struct GraphStack : ChainStackBase {
  CallLoopTracker Obs;

  GraphStack(const Binary &B, const LoopIndex &Loops, CallLoopGraph &G,
             const WorkloadInput &In)
      : ChainStackBase(B, In), Obs(B, Loops, G) {
    Obs.setProfileTarget(&G);
  }
  void save(PipelineCheckpoint &C) const {
    C.HasTracker = true;
    C.Tracker = Obs.saveState();
  }
  bool restore(const PipelineCheckpoint &C) {
    return C.HasTracker && Obs.restoreState(C.Tracker);
  }
  void takeOutputs(MarkerRun &) {}
};

/// Runs one segment on the fresh stack \p S: from the run start when \p From is
/// empty, else restored from the serialized checkpoint \p From (the `checkpoint
/// resume` flow), up to \p Until instructions. \p Last closes the run
/// (onRunEnd) as an uninterrupted run does at its cap; an earlier segment
/// closes it only when the program finished before the boundary. Appends the
/// segment's outputs to \p Out, sets Out.Run to the cumulative totals, and
/// returns the serialized boundary checkpoint (the `checkpoint save` flow;
/// empty when \p Last).
template <class StackT>
std::string runChainSegment(StackT &S, const std::string &From,
                            uint64_t Until, bool Last, MarkerRun &Out,
                            const std::string &Ctx) {
  std::optional<PipelineCheckpoint> Prev;
  if (From.empty()) {
    S.Obs.onRunStart(S.B, S.In);
  } else {
    std::string Err;
    Prev = parseCheckpoint(From, &Err);
    EXPECT_TRUE(Prev.has_value()) << Ctx << ": " << Err;
    if (!Prev)
      return {};
    EXPECT_EQ(Prev->Seed, S.In.seed()) << Ctx;
    EXPECT_TRUE(Prev->Interp.validateFor(S.B, &Err)) << Ctx << ": " << Err;
    EXPECT_TRUE(S.restore(*Prev)) << Ctx;
  }
  const InterpCheckpoint *FromI = Prev ? &Prev->Interp : nullptr;
  PipelineCheckpoint C;
  InterpCheckpoint *OutI = Last ? nullptr : &C.Interp;
  RunResult R = S.Interp.runFastSegment(S.Obs, FromI, Until, OutI);
  bool Ended = FromI && FromI->Finished;
  if (!Ended && (Last || C.Interp.Finished))
    S.Obs.onRunEnd(R.TotalInstrs);
  std::string Bytes;
  if (!Last) {
    C.Seed = S.In.seed();
    S.save(C);
    Bytes = serializeCheckpoint(C);
  }
  S.takeOutputs(Out);
  Out.Run = R;
  return Bytes;
}

/// Runs a whole chain: one fresh stack from \p Make per boundary in
/// \p Until (ascending; the last is the run's cap), each resumed from the
/// previous boundary's serialized checkpoint. Outputs concatenate in
/// segment order, so the result must equal the uninterrupted run's.
template <class MakeFn>
MarkerRun runSegmentChain(MakeFn &&Make, const std::vector<uint64_t> &Until,
                          const std::string &Ctx) {
  MarkerRun Out;
  std::string Bytes;
  for (size_t I = 0; I < Until.size(); ++I) {
    auto S = Make();
    Bytes = runChainSegment(*S, Bytes, Until[I], I + 1 == Until.size(), Out,
                            Ctx + " segment " + std::to_string(I));
  }
  return Out;
}

/// Boundaries that cut a run of \p Total instructions into \p N segments
/// at I*Total/N; the last is \p Cap, so the final segment ends exactly as
/// an uninterrupted run capped at \p Cap does.
inline std::vector<uint64_t> evenBoundaries(uint64_t Total, unsigned N,
                                            uint64_t Cap) {
  std::vector<uint64_t> Until;
  for (unsigned I = 1; I < N; ++I)
    Until.push_back(Total * I / N);
  Until.push_back(Cap);
  return Until;
}

/// Instruction count of an uninterrupted run capped at \p Cap.
inline uint64_t runLength(const Binary &B, const WorkloadInput &In,
                          uint64_t Cap) {
  NullObs O;
  return Interpreter(B, In).runFast(O, Cap).TotalInstrs;
}

/// Fixed-interval identity across a segment cut: a 3-segment FixedStack
/// chain must reproduce runFixedIntervals' records (BBVs and counters
/// included) exactly.
inline void expectFixedIdentity(const Binary &B, const WorkloadInput &In,
                                uint64_t Len, uint64_t Cap,
                                const std::string &Ctx) {
  std::vector<IntervalRecord> Ref =
      runFixedIntervals(B, In, Len, /*CollectBbv=*/true, Cap);
  MarkerRun Got = runSegmentChain(
      [&] { return std::make_unique<FixedStack>(B, In, Len); },
      evenBoundaries(runLength(B, In, Cap), 3, Cap), Ctx + " fixed chain");
  expectSameIntervals(Ref, Got.Intervals, Ctx + " (fixed chain)");
}

/// Marker-pipeline identity across a segment cut: the call-loop graph
/// profiled through a 3-segment chain, and the marker intervals and firing
/// trace of a 3-segment chain, must be byte-identical to the uninterrupted
/// buildCallLoopGraph / runMarkerIntervals drivers.
inline void expectMarkerIdentity(const Binary &B, const WorkloadInput &In,
                                 uint64_t Cap, const std::string &Ctx) {
  LoopIndex Loops = LoopIndex::build(B);
  auto GRef = buildCallLoopGraph(B, Loops, In, Cap);
  SelectorConfig SC;
  SC.ILower = 100;
  SelectionResult Sel = selectMarkers(*GRef, SC);
  MarkerRun Ref = runMarkerIntervals(B, Loops, *GRef, Sel.Markers, In,
                                     /*CollectBbv=*/true,
                                     /*RecordFirings=*/true, Cap);
  std::vector<uint64_t> Until = evenBoundaries(Ref.Run.TotalInstrs, 3, Cap);

  CallLoopGraph G(B, Loops);
  runSegmentChain(
      [&] { return std::make_unique<GraphStack>(B, Loops, G, In); }, Until,
      Ctx + " graph chain");
  G.finalize();
  EXPECT_EQ(printGraph(*GRef), printGraph(G)) << Ctx << " (graph chain)";

  MarkerRun Got = runSegmentChain(
      [&] {
        return std::make_unique<MarkerStack>(B, Loops, *GRef, Sel.Markers,
                                             In);
      },
      Until, Ctx + " marker chain");
  expectSameMarkerRun(Ref, Got, Ctx + " (marker chain)");
}

} // namespace difftest
} // namespace spm

#endif // SPM_TESTS_DIFFHARNESS_H
