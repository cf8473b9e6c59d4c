//===- callloop/Profile.h - Offline call-loop graph profiling --*- C++ -*-===//
//
// Part of the SPM project: reproduction of "Selecting Software Phase Markers
// with Code Structure Analysis" (CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// GraphProfiler turns tracker edge-end events into the annotated call-loop
/// graph (Sec. 4.2); buildCallLoopGraph is the one-call driver that runs a
/// binary on an input under the profiler — the equivalent of the paper's
/// ATOM profiling pass, which "runs in a matter of minutes" there and in
/// milliseconds here.
///
//===----------------------------------------------------------------------===//

#ifndef SPM_CALLLOOP_PROFILE_H
#define SPM_CALLLOOP_PROFILE_H

#include "callloop/Graph.h"
#include "callloop/Tracker.h"
#include "vm/Interpreter.h"

#include <limits>
#include <memory>

namespace spm {

/// Accumulates hierarchical-instruction-count statistics per edge.
/// The listener-indirection form of profiling; the production driver below
/// uses CallLoopTracker::setProfileTarget instead (same stats, no per-edge
/// virtual call or hash lookup), so this class mainly serves tests and
/// callers composing their own listener stacks.
class GraphProfiler : public TrackerListener {
public:
  explicit GraphProfiler(CallLoopGraph &G) : G(G) {}

  void onEdgeEnd(NodeId From, NodeId To, uint64_t HierInstrs) override {
    G.addTraversal(From, To, HierInstrs);
  }

private:
  CallLoopGraph &G;
};

/// Profiles \p B on \p In and returns the finalized call-loop graph.
inline std::unique_ptr<CallLoopGraph>
buildCallLoopGraph(const Binary &B, const LoopIndex &Loops,
                   const WorkloadInput &In,
                   uint64_t MaxInstrs = std::numeric_limits<uint64_t>::max()) {
  SPM_TRACE_SPAN("pipeline.build_graph");
  auto G = std::make_unique<CallLoopGraph>(B, Loops);
  CallLoopTracker Tracker(B, Loops, *G);
  Tracker.setProfileTarget(G.get());

  Interpreter Interp(B, In);
  Interp.runFast(Tracker, MaxInstrs);
  G->finalize();
  return G;
}

} // namespace spm

#endif // SPM_CALLLOOP_PROFILE_H
