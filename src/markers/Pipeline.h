//===- markers/Pipeline.h - One-call profiling/marking runs -----*- C++ -*-===//
//
// Part of the SPM project: reproduction of "Selecting Software Phase Markers
// with Code Structure Analysis" (CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Convenience drivers that wire interpreter + tracker + marker runtime +
/// performance model + interval builder in the correct observer order.
/// Every experiment harness goes through these, so event-ordering
/// subtleties live in exactly one place.
///
//===----------------------------------------------------------------------===//

#ifndef SPM_MARKERS_PIPELINE_H
#define SPM_MARKERS_PIPELINE_H

#include "callloop/Profile.h"
#include "markers/MarkerSet.h"
#include "markers/Runtime.h"
#include "support/Parallel.h"
#include "trace/Interval.h"
#include "vm/Interpreter.h"

#include <limits>
#include <memory>
#include <vector>

namespace spm {

/// Result of a marker-instrumented run.
struct MarkerRun {
  std::vector<IntervalRecord> Intervals;
  /// Sequence of marker indices in firing order (the "phase marker trace"
  /// compared across binaries in Sec. 5.3.1). Only filled when requested.
  std::vector<int32_t> Firings;
  RunResult Run;
};

/// Runs \p B on \p In with fixed-length intervals of \p Len instructions.
inline std::vector<IntervalRecord>
runFixedIntervals(const Binary &B, const WorkloadInput &In, uint64_t Len,
                  bool CollectBbv,
                  uint64_t MaxInstrs = std::numeric_limits<uint64_t>::max(),
                  const PerfModelOptions &PerfOpts = PerfModelOptions()) {
  SPM_TRACE_SPAN("pipeline.fixed_intervals");
  PerfModel Perf(PerfOpts);
  IntervalBuilder Ivb = IntervalBuilder::fixedLength(Len, &Perf, CollectBbv);
  StaticMux<IntervalBuilder, PerfModel> Mux(Ivb, Perf);
  Interpreter Interp(B, In);
  Interp.runFast(Mux, MaxInstrs);
  return Ivb.takeIntervals();
}

/// Runs \p B on \p In with the markers of \p M cutting variable-length
/// intervals. \p G and \p Loops must belong to \p B.
inline MarkerRun
runMarkerIntervals(const Binary &B, const LoopIndex &Loops,
                   const CallLoopGraph &G, const MarkerSet &M,
                   const WorkloadInput &In, bool CollectBbv,
                   bool RecordFirings = false,
                   uint64_t MaxInstrs = std::numeric_limits<uint64_t>::max(),
                   const PerfModelOptions &PerfOpts = PerfModelOptions()) {
  SPM_TRACE_SPAN("pipeline.marker_intervals");
  MarkerRun Out;
  PerfModel Perf(PerfOpts);
  IntervalBuilder Ivb = IntervalBuilder::markerDriven(&Perf, CollectBbv);
  CallLoopTracker Tracker(B, Loops, G);
  MarkerRuntime Runtime(M, G);
  Tracker.addListener(&Runtime);
  Runtime.setCallback([&](int32_t Idx) {
    Ivb.requestCut(Idx);
    if (RecordFirings)
      Out.Firings.push_back(Idx);
  });

  // Declaration order is the fan-out order, same contract as ObserverMux:
  // tracker fires markers first, so cuts precede interval accounting,
  // which precedes counter updates.
  StaticMux<CallLoopTracker, IntervalBuilder, PerfModel> Mux(Tracker, Ivb,
                                                             Perf);
  Interpreter Interp(B, In);
  Out.Run = Interp.runFast(Mux, MaxInstrs);
  Out.Intervals = Ivb.takeIntervals();
  return Out;
}

/// Profiles one binary on several inputs, one annotated call-loop graph
/// per input, fanning the runs out over the ambient parallelJobs() (each
/// interpreter run owns all of its observer state, so runs are
/// independent). Results are ordered like \p Inputs regardless of job
/// count — slot I is always input I's graph.
inline std::vector<std::unique_ptr<CallLoopGraph>>
buildCallLoopGraphs(const Binary &B, const LoopIndex &Loops,
                    const std::vector<const WorkloadInput *> &Inputs) {
  return parallelMap(Inputs.size(), [&](size_t I) {
    return buildCallLoopGraph(B, Loops, *Inputs[I]);
  });
}

} // namespace spm

#endif // SPM_MARKERS_PIPELINE_H
