//===- trace/Interval.h - Execution intervals and BBVs ----------*- C++ -*-===//
//
// Part of the SPM project: reproduction of "Selecting Software Phase Markers
// with Code Structure Analysis" (CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Interval framing: slicing an execution into contiguous intervals, either
/// fixed-length (the SimPoint 2.0 baseline) or variable-length cut at
/// marker firings (the paper's VLIs, Sec. 5.2/5.3). Each interval records
/// its Basic Block Vector — per static block, executions weighted by the
/// block's instruction count (Sec. 2.2) — and the performance-counter delta
/// the phase metrics consume.
///
/// Event ordering contract: the call-loop tracker must be registered on the
/// ObserverMux *before* the IntervalBuilder, and the PerfModel *after* it.
/// Marker firings then request a cut before the new interval's first block
/// is accounted anywhere, so interval boundaries are exact.
///
//===----------------------------------------------------------------------===//

#ifndef SPM_TRACE_INTERVAL_H
#define SPM_TRACE_INTERVAL_H

#include "support/Metrics.h"
#include "uarch/PerfModel.h"
#include "vm/Observer.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <vector>

namespace spm {

/// Sparse basic-block vector: (global block id, weight) sorted by id.
using Bbv = std::vector<std::pair<uint32_t, double>>;

/// Phase id of the interval before the first marker fires.
constexpr int32_t ProloguePhase = -1;

/// One recorded interval.
struct IntervalRecord {
  uint64_t StartInstr = 0;
  uint64_t NumInstrs = 0;
  uint64_t NumBlocks = 0; ///< Dynamic block executions in the interval.
  uint64_t NumMem = 0;    ///< Dynamic memory accesses in the interval.
  /// Wall-clock time the interval was open, as observed by the builder.
  /// Host-dependent — excluded from determinism comparisons and from the
  /// serialized checkpoint state (a restored interval restarts its clock).
  uint64_t WallNs = 0;
  /// Marker index that began this interval (ProloguePhase before the first
  /// firing). For fixed-length slicing this stays ProloguePhase; clustering
  /// assigns phases afterwards.
  int32_t PhaseId = ProloguePhase;
  PerfCounters Perf; ///< Counter delta over the interval.
  Bbv Vector;        ///< Empty unless BBV collection was enabled.

  PerfMetrics metrics() const { return PerfModel::metricsFor(Perf); }
};

/// Mutable state of an IntervalBuilder at a segment boundary: the partial
/// interval in progress (position, phase attribution, pending cut, the
/// counter snapshot deltas are taken against, and the partial BBV).
/// Completed Records are deliberately not part of the state — segmented
/// runs collect them per segment and concatenate; an interval spanning a
/// boundary is emitted exactly once, by the segment where it cuts, with the
/// carried partial making its content exact.
struct IntervalBuilderState {
  uint64_t StartInstr = 0;
  uint64_t CurInstrs = 0;
  uint64_t CurBlocks = 0;
  uint64_t CurMem = 0;
  int32_t CurPhase = ProloguePhase;
  bool PendingCut = false;
  int32_t PendingPhase = ProloguePhase;
  PerfCounters LastPerf;
  Bbv Partial; ///< Touched blocks of the open interval, in touch order.
};

/// Observer that frames intervals. Construct in fixed-length mode or in
/// marker mode (where cuts arrive via requestCut, typically wired to a
/// MarkerRuntime callback).
class IntervalBuilder : public ExecutionObserver {
public:
  /// Fixed-length intervals of \p Len instructions (cuts at the first block
  /// boundary at or past the length).
  static IntervalBuilder fixedLength(uint64_t Len, const PerfModel *Perf,
                                     bool CollectBbv) {
    return IntervalBuilder(Len, Perf, CollectBbv);
  }

  /// Marker-driven variable-length intervals.
  static IntervalBuilder markerDriven(const PerfModel *Perf,
                                      bool CollectBbv) {
    return IntervalBuilder(0, Perf, CollectBbv);
  }

  /// Marker callback: the interval in progress ends; the next one is
  /// attributed to \p MarkerIdx. Consecutive cuts with no execution in
  /// between collapse (the later marker wins).
  void requestCut(int32_t MarkerIdx) {
    PendingCut = true;
    PendingPhase = MarkerIdx;
  }

  void onRunStart(const Binary &B, const WorkloadInput &In) override {
    (void)In;
    if (CollectBbv && Stamp.size() < B.Blocks.size()) {
      DenseW.resize(B.Blocks.size(), 0.0);
      Stamp.resize(B.Blocks.size(), 0);
    }
    // Static per-block memory-access counts, so onBlock attributes memory
    // with one table load instead of walking MemOps every execution.
    if (MemPerBlock.size() < B.Blocks.size()) {
      MemPerBlock.assign(B.Blocks.size(), 0);
      for (size_t I = 0; I < B.Blocks.size(); ++I)
        for (const MemAccessSpec &M : B.Blocks[I].MemOps)
          MemPerBlock[I] += M.Count;
    }
    LastCut = std::chrono::steady_clock::now();
  }

  void onBlock(const LoweredBlock &Blk) override {
    if (PendingCut) {
      cut();
      CurPhase = PendingPhase;
      PendingCut = false;
    } else if (FixedLen && CurInstrs >= FixedLen) {
      cut();
    }
    CurInstrs += Blk.NumInstrs;
    ++CurBlocks;
    if (Blk.GlobalId < MemPerBlock.size()) {
      CurMem += MemPerBlock[Blk.GlobalId];
    } else { // Standalone use without onRunStart.
      for (const MemAccessSpec &M : Blk.MemOps)
        CurMem += M.Count;
    }
    if (CollectBbv) {
      uint32_t Id = Blk.GlobalId;
      if (Id >= Stamp.size()) { // Standalone use without onRunStart.
        DenseW.resize(Id + 1, 0.0);
        Stamp.resize(Id + 1, 0);
      }
      // Epoch stamping (not a weight test): blocks with zero instructions
      // must still appear in the vector, as the old sparse map's entries
      // did.
      if (Stamp[Id] != Epoch) {
        Stamp[Id] = Epoch;
        DenseW[Id] = 0.0;
        Touched.push_back(Id);
      }
      DenseW[Id] += Blk.NumInstrs;
    }
  }

  void onRunEnd(uint64_t TotalInstrs) override {
    (void)TotalInstrs;
    cut();
  }

  const std::vector<IntervalRecord> &intervals() const { return Records; }
  std::vector<IntervalRecord> takeIntervals() { return std::move(Records); }

  IntervalBuilderState saveState() const {
    IntervalBuilderState St;
    St.StartInstr = StartInstr;
    St.CurInstrs = CurInstrs;
    St.CurBlocks = CurBlocks;
    St.CurMem = CurMem;
    St.CurPhase = CurPhase;
    St.PendingCut = PendingCut;
    St.PendingPhase = PendingPhase;
    St.LastPerf = LastPerf;
    St.Partial.reserve(Touched.size());
    for (uint32_t Id : Touched)
      St.Partial.push_back({Id, DenseW[Id]});
    return St;
  }

  /// Restores a boundary snapshot into a fresh builder (same mode and BBV
  /// setting as the one that produced it). Records stay untouched: the
  /// restored builder continues the open interval and emits it on its own
  /// next cut.
  void restoreState(const IntervalBuilderState &St) {
    StartInstr = St.StartInstr;
    CurInstrs = St.CurInstrs;
    CurBlocks = St.CurBlocks;
    CurMem = St.CurMem;
    CurPhase = St.CurPhase;
    // Wall time restarts at the boundary: segments of a resumed run each
    // contribute only the time they actually held the interval open.
    LastCut = std::chrono::steady_clock::now();
    PendingCut = St.PendingCut;
    PendingPhase = St.PendingPhase;
    LastPerf = St.LastPerf;
    Touched.clear();
    ++Epoch;
    for (const auto &[Id, W] : St.Partial) {
      if (Id >= Stamp.size()) {
        DenseW.resize(Id + 1, 0.0);
        Stamp.resize(Id + 1, 0);
      }
      Stamp[Id] = Epoch;
      DenseW[Id] = W;
      Touched.push_back(Id);
    }
  }

private:
  IntervalBuilder(uint64_t FixedLen, const PerfModel *Perf, bool CollectBbv)
      : FixedLen(FixedLen), Perf(Perf), CollectBbv(CollectBbv) {}

  void cut() {
    // The guard is on blocks as well as instructions: an interval holding
    // only zero-instruction blocks must still be emitted, or its block and
    // memory counts would leak into the next interval and break the
    // per-phase attribution exactness invariant (tests/attribution_test).
    if (CurInstrs == 0 && CurBlocks == 0)
      return; // Nothing accumulated; keep waiting.
    auto Now = std::chrono::steady_clock::now();
    IntervalRecord R;
    R.StartInstr = StartInstr;
    R.NumInstrs = CurInstrs;
    R.NumBlocks = CurBlocks;
    R.NumMem = CurMem;
    R.WallNs = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Now - LastCut)
            .count());
    R.PhaseId = CurPhase;
    if (Perf) {
      R.Perf = Perf->counters() - LastPerf;
      LastPerf = Perf->counters();
    }
    if (CollectBbv) {
      std::sort(Touched.begin(), Touched.end());
      R.Vector.reserve(Touched.size());
      for (uint32_t Id : Touched)
        R.Vector.push_back({Id, DenseW[Id]});
      Touched.clear();
      ++Epoch;
    }
    StartInstr += CurInstrs;
    CurInstrs = 0;
    CurBlocks = 0;
    CurMem = 0;
    LastCut = Now;
    if (spmTraceEnabled()) {
      tracePhaseInterval(R.PhaseId, R.WallNs, R.NumInstrs, R.NumMem);
      static MetricCounter &C = metrics().counter("intervals.cut");
      C.forceAdd(1);
    }
    Records.push_back(std::move(R));
  }

  uint64_t FixedLen; ///< 0 => marker mode.
  const PerfModel *Perf;
  bool CollectBbv;

  uint64_t StartInstr = 0;
  uint64_t CurInstrs = 0;
  uint64_t CurBlocks = 0;
  uint64_t CurMem = 0;
  int32_t CurPhase = ProloguePhase;
  bool PendingCut = false;
  int32_t PendingPhase = ProloguePhase;
  PerfCounters LastPerf;
  /// Static memory accesses per block execution, indexed by GlobalId.
  std::vector<uint64_t> MemPerBlock;
  std::chrono::steady_clock::time_point LastCut =
      std::chrono::steady_clock::now();
  // Dense per-block BBV accumulator: DenseW[id] is valid for the current
  // interval iff Stamp[id] == Epoch; Touched lists the valid ids.
  std::vector<double> DenseW;
  std::vector<uint64_t> Stamp;
  std::vector<uint32_t> Touched;
  uint64_t Epoch = 1;
  std::vector<IntervalRecord> Records;
};

/// Total instructions across \p Intervals.
inline uint64_t totalInstructions(const std::vector<IntervalRecord> &Ivs) {
  uint64_t T = 0;
  for (const IntervalRecord &R : Ivs)
    T += R.NumInstrs;
  return T;
}

} // namespace spm

#endif // SPM_TRACE_INTERVAL_H
