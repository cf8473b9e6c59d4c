//===- markers/Runtime.h - Online marker firing ----------------*- C++ -*-===//
//
// Part of the SPM project: reproduction of "Selecting Software Phase Markers
// with Code Structure Analysis" (CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// MarkerRuntime is the deployed form of a marker set: the lightweight
/// instrumentation a binary-rewriting tool (OM/ALTO in the paper) would
/// insert. It listens to the call-loop tracker's edge-begin events and
/// fires a callback whenever a marked edge is traversed — honoring each
/// marker's iteration-grouping factor N, whose per-entry counter resets at
/// every loop entry so grouping is aligned to entries, as Sec. 5.2
/// describes. Firing order across two compilations of the same source is
/// identical, which is what makes marker-defined simulation points
/// cross-binary portable.
///
//===----------------------------------------------------------------------===//

#ifndef SPM_MARKERS_RUNTIME_H
#define SPM_MARKERS_RUNTIME_H

#include "callloop/Tracker.h"
#include "markers/MarkerSet.h"
#include "support/Metrics.h"

#include <functional>
#include <vector>

namespace spm {

/// Fires callbacks when markers execute. All per-event lookups go through
/// flat CSR tables keyed by the edge's destination node — no hashing on the
/// hot path; a row holds the (rare) markers and counter resets anchored at
/// that node, so the common no-marker edge costs two array loads.
class MarkerRuntime : public TrackerListener {
public:
  using FireCallback = std::function<void(int32_t MarkerIdx)>;

  MarkerRuntime(const MarkerSet &M, const CallLoopGraph &G) : M(M) {
    GroupCounter.assign(M.size(), 0);
    uint32_t N = G.numNodes();

    // CSR build, pass 1: row sizes (cell I+1 so the prefix sum lands the
    // row starts in place).
    std::vector<uint32_t> ResetCount(N + 1, 0), MarkCount(N + 1, 0);
    for (size_t I = 0; I < M.size(); ++I) {
      const Marker &Mk = M[I];
      if (Mk.GroupN > 1 && G.node(Mk.From).K == NodeKind::LoopHead)
        ++ResetCount[Mk.From + 1];
      ++MarkCount[Mk.To + 1];
    }
    for (uint32_t I = 0; I < N; ++I) {
      ResetCount[I + 1] += ResetCount[I];
      MarkCount[I + 1] += MarkCount[I];
    }
    ResetRow = std::move(ResetCount);
    MarkRow = std::move(MarkCount);

    // Pass 2: fill in marker-index order (per-row order preserved).
    ResetList.resize(ResetRow[N]);
    MarkFrom.resize(MarkRow[N]);
    MarkIdx.resize(MarkRow[N]);
    std::vector<uint32_t> RCur(ResetRow.begin(), ResetRow.end());
    std::vector<uint32_t> MCur(MarkRow.begin(), MarkRow.end());
    for (size_t I = 0; I < M.size(); ++I) {
      const Marker &Mk = M[I];
      if (Mk.GroupN > 1 && G.node(Mk.From).K == NodeKind::LoopHead)
        ResetList[RCur[Mk.From]++] = static_cast<int32_t>(I);
      MarkFrom[MCur[Mk.To]] = Mk.From;
      MarkIdx[MCur[Mk.To]++] = static_cast<int32_t>(I);
    }
  }

  void setCallback(FireCallback CB) { Callback = std::move(CB); }

  void onEdgeBegin(NodeId From, NodeId To) override {
    // A traversal into a loop head is a loop entry: re-align the grouping
    // counters of that loop's grouped markers.
    for (uint32_t I = ResetRow[To], E = ResetRow[To + 1]; I != E; ++I)
      GroupCounter[ResetList[I]] = 0;

    int32_t Idx = -1;
    for (uint32_t I = MarkRow[To], E = MarkRow[To + 1]; I != E; ++I)
      if (MarkFrom[I] == From) {
        Idx = MarkIdx[I];
        break;
      }
    if (Idx < 0)
      return;
    const Marker &Mk = M[Idx];
    if (Mk.GroupN > 1 && (GroupCounter[Idx]++ % Mk.GroupN) != 0)
      return;
    ++Fired;
    if (spmTraceEnabled()) {
      // Interned once; firings are the hottest metric site in the stack.
      static MetricCounter &C = metrics().counter("markers.fired");
      C.forceAdd(1);
    }
    if (Callback)
      Callback(Idx);
  }

  /// Total marker firings so far.
  uint64_t fireCount() const { return Fired; }

private:
  const MarkerSet &M;
  FireCallback Callback;
  std::vector<uint64_t> GroupCounter;
  // Grouped loop-head markers to re-align on entry to node To:
  // ResetList[ResetRow[To] .. ResetRow[To+1]).
  std::vector<uint32_t> ResetRow;
  std::vector<int32_t> ResetList;
  // Markers whose edge lands on node To: parallel (MarkFrom, MarkIdx)
  // spans MarkRow[To] .. MarkRow[To+1).
  std::vector<uint32_t> MarkRow;
  std::vector<NodeId> MarkFrom;
  std::vector<int32_t> MarkIdx;
  uint64_t Fired = 0;
};

} // namespace spm

#endif // SPM_MARKERS_RUNTIME_H
