//===- vm/Interpreter.h - Binary interpreter --------------------*- C++ -*-===//
//
// Part of the SPM project: reproduction of "Selecting Software Phase Markers
// with Code Structure Analysis" (CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Executes a lowered Binary on a WorkloadInput, publishing instrumentation
/// events to an ExecutionObserver. Execution is fully deterministic given
/// (binary structure, input parameters, input seed): loop trip counts,
/// branch outcomes, and data addresses come from the input's random stream
/// and per-site cursors, never from wall-clock or global state. Two
/// lowerings of the same source executed on the same input therefore take
/// identical structural paths — the property Sec. 5.3.1 of the paper relies
/// on for cross-binary markers.
///
//===----------------------------------------------------------------------===//

#ifndef SPM_VM_INTERPRETER_H
#define SPM_VM_INTERPRETER_H

#include "ir/Binary.h"
#include "ir/Input.h"
#include "support/Metrics.h"
#include "support/Random.h"
#include "support/Trace.h"
#include "vm/Observer.h"

#include <cstdint>
#include <limits>
#include <vector>

namespace spm {

/// Summary of one execution.
struct RunResult {
  uint64_t TotalInstrs = 0;
  uint64_t TotalBlocks = 0;
  uint64_t TotalMemAccesses = 0;
  bool HitInstrLimit = false;
};

namespace vm_detail {

/// Books one finished run into the metrics registry: the per-entry-point
/// run counter plus the retired-event totals. Gated on the spmtrace runtime
/// switch (one relaxed load when off; compiled out entirely with
/// SPM_TRACE=OFF) and called once per run, never per event.
inline void recordRunMetrics(const char *RunCounter, const RunResult &R) {
  if (!spmTraceEnabled())
    return;
  MetricsRegistry &M = metrics();
  M.counter(RunCounter).forceAdd(1);
  M.counter("vm.instrs_retired").forceAdd(R.TotalInstrs);
  M.counter("vm.blocks_retired").forceAdd(R.TotalBlocks);
  M.counter("vm.mem_accesses").forceAdd(R.TotalMemAccesses);
}

} // namespace vm_detail

/// The interpreter's one emitter: the exec tree hands every event to it,
/// and it dispatches the event into \p ObsT at once, unbuffered (see the
/// dispatch helpers in vm/Observer.h). When \p ObsT has an onMemRun
/// handler, each MemAccessSpec's accesses are staged in a small reused
/// buffer and delivered as one bulk record; otherwise each address is
/// dispatched as it is generated.
template <class ObsT> struct StaticEmitter {
  static constexpr bool BulkMem = ObserverTraits<ObsT>::OwnMemRun;

  ObsT &Obs;
  std::vector<uint64_t> RunBuf;

  explicit StaticEmitter(ObsT &Obs) : Obs(Obs) {}

  static constexpr bool wantsMem() { return wantsMemEvents<ObsT>(); }
  void block(const LoweredBlock &Blk) { dispatchBlock(Obs, Blk); }
  void beginMemRun() {
    if constexpr (BulkMem)
      RunBuf.clear();
  }
  void memAddr(uint64_t Addr, bool IsStore) {
    if constexpr (BulkMem)
      RunBuf.push_back(Addr);
    else
      dispatchMemAccess(Obs, Addr, IsStore);
  }
  void endMemRun(bool IsStore) {
    if constexpr (BulkMem)
      if (!RunBuf.empty())
        dispatchMemRun(Obs, RunBuf.data(),
                       static_cast<uint32_t>(RunBuf.size()), IsStore);
  }
  void branch(uint64_t Pc, uint64_t Target, bool Taken, bool Backward,
              bool Conditional) {
    dispatchBranch(Obs, Pc, Target, Taken, Backward, Conditional);
  }
  void call(uint64_t SiteAddr, uint32_t Callee) {
    dispatchCall(Obs, SiteAddr, Callee);
  }
  void ret(uint32_t Callee) { dispatchReturn(Obs, Callee); }
};

/// The interpreter. Construct once per (binary, input) pair and call run().
class Interpreter {
public:
  /// Maximum dynamic call depth; probability-guarded recursion deeper than
  /// this silently skips the call (documented workload semantics, asserted
  /// on in tests).
  static constexpr unsigned MaxCallDepth = 256;

  Interpreter(const Binary &B, const WorkloadInput &In);

  /// Runs to completion or until \p MaxInstrs retire. Returns the summary.
  /// The entry point for observers whose concrete type is unknown at the
  /// call site (an ObserverMux stack, say): runFast instantiated on
  /// ExecutionObserver itself, so each event is one virtual call.
  RunResult run(ExecutionObserver &Obs,
                uint64_t MaxInstrs = std::numeric_limits<uint64_t>::max());

  /// Devirtualized engine: the exec tree emits every event directly into
  /// \p Obs with zero buffering — handler calls bind statically and
  /// handlers \p Obs never overrides vanish at compile time (memory events
  /// are then not even materialized; see skipAccesses). \p Obs may be any
  /// type with (a subset of) the ExecutionObserver handler signatures — a
  /// concrete observer, a StaticMux, or a plain struct; ObsT must be its
  /// most-derived type, or ExecutionObserver itself for virtual dispatch
  /// (which is what run() is).
  template <class ObsT>
  RunResult runFast(ObsT &Obs,
                    uint64_t MaxInstrsIn =
                        std::numeric_limits<uint64_t>::max()) {
    SPM_TRACE_SPAN("vm.runFast");
    MaxInstrs = MaxInstrsIn;
    Result = RunResult();
    dispatchRunStart(Obs, B, In);
    StaticEmitter<ObsT> E{Obs};
    execFunctionT(/*FuncId=*/0, /*Depth=*/0, E);
    dispatchRunEnd(Obs, Result.TotalInstrs);
    vm_detail::recordRunMetrics("vm.runs_fast", Result);
    return Result;
  }

  /// Resolved byte size of region \p Idx under the constructor's input.
  uint64_t regionSize(uint32_t Idx) const {
    assert(Idx < RegionSizes.size() && "region index out of range");
    return RegionSizes[Idx];
  }

  /// Base address of region \p Idx in the simulated data address space.
  uint64_t regionBase(uint32_t Idx) const {
    assert(Idx < RegionSizes.size() && "region index out of range");
    return DataBase + static_cast<uint64_t>(Idx) * RegionSpacing;
  }

private:
  // Regions live far above code addresses, spaced so they never overlap.
  static constexpr uint64_t DataBase = 1ull << 32;
  static constexpr uint64_t RegionSpacing = 1ull << 30;

  // The single exec tree. Emit is always a StaticEmitter<ObsT>; the tree is
  // a template over it so each observer type gets its own fully inlined
  // copy. Defined after the class so every instantiation inlines fully.
  template <class Emit>
  bool execFunctionT(uint32_t FuncId, unsigned Depth, Emit &E);
  /// Kept out of line so the inliner's budget, not unrelated edits in
  /// this header, cannot move the layout of the profiling loop.
  template <class Emit>
  [[gnu::noinline]] bool execNodesT(const std::vector<ExecNode> &Nodes,
                                    unsigned Depth, Emit &E);
  template <class Emit> bool execNodeT(const ExecNode &N, unsigned Depth, Emit &E);
  /// Everything after a call node's site block: probability gate, depth
  /// cap, callee selection, call/ret events, callee execution.
  template <class Emit>
  bool execCallTailT(const ExecNode &N, const LoweredBlock &Site,
                     unsigned Depth, Emit &E);

  /// Callee selection for a call site (weighted RNG draw or round-robin
  /// cursor).
  uint32_t chooseCallee(const std::vector<CallStmt::Candidate> &Cands,
                        bool RoundRobin, uint32_t RRSite) {
    if (Cands.size() == 1)
      return Cands[0].Callee;
    if (RoundRobin)
      return Cands[RRCursor[RRSite]++ % Cands.size()].Callee;
    uint64_t Total = 0;
    for (const auto &Cand : Cands)
      Total += Cand.Weight;
    if (Total == 0)
      // All weights zero: the weighted draw is undefined, fall back to a
      // uniform pick over the candidates.
      return Cands[Rand.nextBelow(Cands.size())].Callee;
    uint64_t Pick = Rand.nextBelow(Total);
    for (const auto &Cand : Cands) {
      if (Pick < Cand.Weight)
        return Cand.Callee;
      Pick -= Cand.Weight;
    }
    return Cands.back().Callee;
  }

  /// Emits the block event and its memory accesses; returns false when the
  /// instruction budget is exhausted.
  template <class Emit> bool execBlockT(const LoweredBlock &Blk, Emit &E);
  /// Emits every memory run of \p Blk, one beginMemRun/endMemRun pair per
  /// MemAccessSpec, and returns the number of addresses emitted. The one
  /// address formula, with the per-run invariants (region base, working-set
  /// size, slot count) hoisted out of the address loop.
  template <class Emit>
  uint64_t emitMemRunsT(const LoweredBlock &Blk, Emit &E);
  /// Advances all address-generation state (per-site cursors and counters)
  /// exactly as emitting the site's Count addresses would, without
  /// materializing them. Used when the sink provably ignores memory
  /// events. Address generation never touches the shared control-flow RNG,
  /// so skipping is invisible to the rest of the stream by construction.
  void skipAccesses(const MemAccessSpec &M, uint32_t Site);
  uint64_t evalTrip(const TripCountSpec &T, uint32_t Site);
  bool evalCond(const CondSpec &C, uint32_t Site);

  const Binary &B;
  const WorkloadInput &In;
  Rng Rand;
  uint64_t MaxInstrs = 0;
  RunResult Result;

  std::vector<uint64_t> RegionSizes;
  std::vector<uint64_t> SeqPos;       ///< Per mem site sequential cursor.
  std::vector<uint64_t> ChaseState;   ///< Per mem site chase LCG state.
  std::vector<uint64_t> RandState;    ///< Per mem site SplitMix counter.
  std::vector<uint64_t> SchedCursor;  ///< Per trip site schedule cursor.
  std::vector<uint64_t> CondCounter;  ///< Per cond site periodic counter.
  std::vector<uint64_t> RRCursor;     ///< Per call site round-robin cursor.
};

//===----------------------------------------------------------------------===//
// Exec tree (shared by run and runFast) — header-inline so
// every emitter instantiation, including runFast's per-observer ones,
// compiles into its caller with full inlining of the evaluators below.
//===----------------------------------------------------------------------===//

inline void Interpreter::skipAccesses(const MemAccessSpec &M,
                                      uint32_t Site) {
  switch (M.Pat) {
  case MemAccessSpec::Pattern::Sequential:
    SeqPos[Site] += static_cast<uint64_t>(M.Stride) * M.Count;
    return;
  case MemAccessSpec::Pattern::Point:
    return;
  case MemAccessSpec::Pattern::Chase: {
    uint64_t S = ChaseState[Site];
    for (uint32_t C = 0; C < M.Count; ++C)
      S = S * 6364136223846793005ULL + 1442695040888963407ULL;
    ChaseState[Site] = S;
    return;
  }
  case MemAccessSpec::Pattern::Random:
    // The counter-based stream seeks in O(1): advance the counter exactly
    // as M.Count draws would.
    RandState[Site] += 0x9e3779b97f4a7c15ULL * M.Count;
    return;
  }
  assert(false && "unknown memory pattern");
}

inline uint64_t Interpreter::evalTrip(const TripCountSpec &T,
                                      uint32_t Site) {
  switch (T.K) {
  case TripCountSpec::Kind::Constant:
    return T.Value;
  case TripCountSpec::Kind::Uniform:
    return Rand.nextInRange(T.Lo, T.Hi);
  case TripCountSpec::Kind::Param:
    return static_cast<uint64_t>(In.get(T.ParamName)) * T.Num / T.Den;
  case TripCountSpec::Kind::ParamUniform: {
    auto P = static_cast<uint64_t>(In.get(T.ParamName));
    uint64_t Lo = P * T.LoNum / T.Den;
    uint64_t Hi = P * T.HiNum / T.Den;
    if (Lo > Hi)
      Lo = Hi;
    return Rand.nextInRange(Lo, Hi);
  }
  case TripCountSpec::Kind::Schedule:
    return T.Values[SchedCursor[Site]++ % T.Values.size()];
  }
  assert(false && "unknown trip count kind");
  return 1;
}

inline bool Interpreter::evalCond(const CondSpec &C, uint32_t Site) {
  switch (C.K) {
  case CondSpec::Kind::Bernoulli:
    return Rand.nextBool(C.P);
  case CondSpec::Kind::Periodic:
    return (CondCounter[Site]++ % C.Period) < C.TrueCount;
  }
  assert(false && "unknown condition kind");
  return false;
}

template <class Emit>
uint64_t Interpreter::emitMemRunsT(const LoweredBlock &Blk, Emit &E) {
  uint64_t Emitted = 0;
  for (size_t I = 0; I < Blk.MemOps.size(); ++I) {
    const MemAccessSpec &Ms = Blk.MemOps[I];
    const uint32_t Site = Blk.FirstMemSite + static_cast<uint32_t>(I);
    const uint64_t Base = regionBase(Ms.RegionIdx);
    const uint64_t Size = RegionSizes[Ms.RegionIdx];
    // Active working set: the leading fraction of the region this site
    // uses, never below one 64-byte line.
    uint64_t WS = Size * Ms.WorkingSetFrac256 / 256;
    if (WS < 64)
      WS = 64;
    const uint64_t Slots = WS / 8;
    E.beginMemRun();
    switch (Ms.Pat) {
    case MemAccessSpec::Pattern::Sequential: {
      // Walk the working set with Stride, wrapping.
      uint64_t P = SeqPos[Site];
      for (uint32_t C = 0; C < Ms.Count; ++C) {
        E.memAddr(Base + (P % WS), Ms.IsStore);
        P += Ms.Stride;
      }
      SeqPos[Site] = P;
      break;
    }
    case MemAccessSpec::Pattern::Random: {
      // Counter-based stream, mapped to [0, Slots) by fixed-point scaling:
      // negligible bias for slot counts far below 2^64.
      uint64_t S = RandState[Site];
      for (uint32_t C = 0; C < Ms.Count; ++C) {
        uint64_t Z = splitMix64(S += 0x9e3779b97f4a7c15ULL);
        uint64_t Slot = static_cast<uint64_t>(
            (static_cast<unsigned __int128>(Z) * Slots) >> 64);
        E.memAddr(Base + Slot * 8, Ms.IsStore);
      }
      RandState[Site] = S;
      break;
    }
    case MemAccessSpec::Pattern::Point: {
      const uint64_t Addr = Base + (Ms.Offset % Size);
      for (uint32_t C = 0; C < Ms.Count; ++C)
        E.memAddr(Addr, Ms.IsStore);
      break;
    }
    case MemAccessSpec::Pattern::Chase: {
      // Dependent random walk with a per-site LCG so the chain is
      // reproducible and independent of the shared random stream.
      uint64_t S = ChaseState[Site];
      for (uint32_t C = 0; C < Ms.Count; ++C) {
        S = S * 6364136223846793005ULL + 1442695040888963407ULL;
        E.memAddr(Base + ((S >> 11) % Slots) * 8, Ms.IsStore);
      }
      ChaseState[Site] = S;
      break;
    }
    }
    E.endMemRun(Ms.IsStore);
    Emitted += Ms.Count;
  }
  return Emitted;
}

template <class Emit>
bool Interpreter::execBlockT(const LoweredBlock &Blk, Emit &E) {
  E.block(Blk);
  Result.TotalInstrs += Blk.NumInstrs;
  ++Result.TotalBlocks;
  if (E.wantsMem()) {
    Result.TotalMemAccesses += emitMemRunsT(Blk, E);
  } else {
    for (size_t I = 0; I < Blk.MemOps.size(); ++I) {
      const MemAccessSpec &M = Blk.MemOps[I];
      skipAccesses(M, Blk.FirstMemSite + static_cast<uint32_t>(I));
      Result.TotalMemAccesses += M.Count;
    }
  }
  if (Result.TotalInstrs >= MaxInstrs) {
    Result.HitInstrLimit = true;
    return false;
  }
  return true;
}

template <class Emit>
bool Interpreter::execFunctionT(uint32_t FuncId, unsigned Depth, Emit &E) {
  const LoweredFunction &F = B.func(FuncId);
  return execBlockT(B.block(F.EntryBlock), E) &&
         execNodesT(F.Body, Depth, E) &&
         execBlockT(B.block(F.ExitBlock), E);
}

template <class Emit>
bool Interpreter::execNodesT(const std::vector<ExecNode> &Nodes,
                             unsigned Depth, Emit &E) {
  for (const ExecNode &N : Nodes)
    if (!execNodeT(N, Depth, E))
      return false;
  return true;
}

template <class Emit>
bool Interpreter::execCallTailT(const ExecNode &N, const LoweredBlock &Site,
                                unsigned Depth, Emit &E) {
  if (N.CallProb < 1.0 && !Rand.nextBool(N.CallProb))
    return true;
  if (Depth + 1 >= MaxCallDepth)
    return true; // Guarded-recursion depth cap; see header comment.

  uint32_t Callee = chooseCallee(N.Candidates, N.RoundRobin, N.RRSite);
  E.call(Site.termAddr(), Callee);
  if (!execFunctionT(Callee, Depth + 1, E))
    return false;
  E.ret(Callee);
  return true;
}

template <class Emit>
bool Interpreter::execNodeT(const ExecNode &N, unsigned Depth, Emit &E) {
  switch (N.K) {
  case ExecNode::Kind::Code:
    return execBlockT(B.block(N.Block), E);

  case ExecNode::Kind::Loop: {
    uint64_t Trip = evalTrip(N.Trip, N.TripSite);
    const LoweredBlock &Header = B.block(N.Block);
    const LoweredBlock &Latch = B.block(N.LatchBlock);
    for (uint64_t I = 0; I < Trip; ++I) {
      if (!execBlockT(Header, E) || !execNodesT(N.Children, Depth, E) ||
          !execBlockT(Latch, E))
        return false;
      bool Taken = I + 1 < Trip;
      E.branch(Latch.termAddr(), Header.Addr, Taken, /*Backward=*/true,
               /*Conditional=*/true);
    }
    return true;
  }

  case ExecNode::Kind::If: {
    const LoweredBlock &Cond = B.block(N.Block);
    if (!execBlockT(Cond, E))
      return false;
    bool TakeThen = evalCond(N.Cond, N.CondSite);
    // The lowered branch skips the then-part when the condition is false.
    E.branch(Cond.termAddr(), Cond.Term.TargetAddr, /*Taken=*/!TakeThen,
             /*Backward=*/false, /*Conditional=*/true);
    return execNodesT(TakeThen ? N.Children : N.ElseChildren, Depth, E);
  }

  case ExecNode::Kind::Call: {
    const LoweredBlock &Site = B.block(N.Block);
    if (!execBlockT(Site, E))
      return false;
    return execCallTailT(N, Site, Depth, E);
  }
  }
  assert(false && "unknown exec node kind");
  return false;
}

} // namespace spm

#endif // SPM_VM_INTERPRETER_H
