//===- callloop/Tracker.h - Runtime call/loop edge detection ----*- C++ -*-===//
//
// Part of the SPM project: reproduction of "Selecting Software Phase Markers
// with Code Structure Analysis" (CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// CallLoopTracker maintains a shadow stack of active procedure and loop
/// contexts from the raw instrumentation stream, and reports every
/// traversal of a call-loop-graph edge: when it begins (the instrumentation
/// point a software phase marker fires at) and when it ends (with the
/// hierarchical instruction count the graph profiler records). Loops are
/// recognized purely from the binary: a block is a loop header iff some
/// backward branch targets it, and the loop's extent is the static region
/// from the branch to its target (Sec. 4.2). Both the offline profiler
/// (GraphProfiler) and the online marker detector (MarkerRuntime) are
/// listeners of this tracker, which guarantees that markers fire at exactly
/// the construct boundaries the profile measured.
///
/// Head/body discipline (Sec. 4.2):
///  - Loop entry pushes LoopHead then LoopBody; every re-arrival at the
///    header while that body is on top ends one body traversal (iteration)
///    and begins the next; leaving the loop's static region ends body and
///    head.
///  - A call pushes the callee's ProcHead only when the callee is not
///    already active (a recursive *episode* boundary) and always pushes a
///    ProcBody (one per activation); returns unwind symmetrically.
///
//===----------------------------------------------------------------------===//

#ifndef SPM_CALLLOOP_TRACKER_H
#define SPM_CALLLOOP_TRACKER_H

#include "callloop/Graph.h"
#include "vm/Observer.h"

#include <vector>

namespace spm {

/// Receives edge traversal events from the tracker.
class TrackerListener {
public:
  virtual ~TrackerListener();

  /// Traversal of (From -> To) is beginning. This is the marker trigger
  /// point: the code location (call site, loop entry, backward branch) has
  /// just executed.
  virtual void onEdgeBegin(NodeId From, NodeId To) {
    (void)From;
    (void)To;
  }

  /// Traversal of (From -> To) finished, having hierarchically executed
  /// \p HierInstrs instructions.
  virtual void onEdgeEnd(NodeId From, NodeId To, uint64_t HierInstrs) {
    (void)From;
    (void)To;
    (void)HierInstrs;
  }
};

/// Mutable state of a CallLoopTracker at a segment boundary: the shadow
/// stack (with each open frame's partial hierarchical count) and the
/// per-function activation depths. Carrying the open frames is what makes
/// boundary-spanning traversals exact across a checkpoint — the closing
/// segment finishes the count the opening segment started.
struct TrackerCheckpoint {
  struct FrameState {
    uint8_t K = 0; ///< NodeKind.
    NodeId Node = RootNode;
    NodeId EdgeFrom = RootNode;
    uint64_t Hier = 0;
    int32_t LoopId = -1;
    uint32_t FuncId = 0;
  };
  std::vector<FrameState> Stack;
  std::vector<uint32_t> ActiveDepth;
};

/// The shadow-stack observer. Register listeners before running.
class CallLoopTracker : public ExecutionObserver {
public:
  /// \p G is used only for its static node numbering; the tracker never
  /// mutates it unless setProfileTarget() opts in.
  CallLoopTracker(const Binary &B, const LoopIndex &Loops,
                  const CallLoopGraph &G)
      : B(B), Loops(Loops), G(G) {}

  void addListener(TrackerListener *L) { Listeners.push_back(L); }

  /// Fast-path profiling: record every edge traversal directly into \p P
  /// (which must be the graph the tracker was constructed with), bypassing
  /// the TrackerListener indirection. Edge ids are interned once per
  /// construct and cached on the shadow-stack frames, so the steady-state
  /// hot path does no hashing — a frame pop is one array-indexed stat
  /// update. Produces exactly the stats a GraphProfiler listener would.
  void setProfileTarget(CallLoopGraph *P) {
    assert((!P || P == &G) && "profile target must be the bound graph");
    PG = P;
    if (PG) {
      LoopBodyEdge.assign(Loops.size(), ~0u);
      ProcBodyEdge.assign(B.Funcs.size(), ~0u);
      LoopHeadCache.assign(Loops.size(), EdgeCache());
      ProcHeadCache.assign(B.Funcs.size(), EdgeCache());
    }
  }

  void onRunStart(const Binary &Bin, const WorkloadInput &In) override;
  void onBlock(const LoweredBlock &Blk) override;
  void onCall(uint64_t SiteAddr, uint32_t Callee) override;
  void onReturn(uint32_t Callee) override;
  void onRunEnd(uint64_t TotalInstrs) override;

  /// Current shadow-stack depth (for tests).
  size_t depth() const { return Stack.size(); }

  /// Snapshots the shadow stack and activation depths at a segment
  /// boundary.
  TrackerCheckpoint saveState() const;

  /// Silently rebuilds the tracker from a boundary snapshot: no listener
  /// events fire (the opening segment already fired the onEdgeBegin events
  /// for the frames being restored), and edge ids are re-interned when a
  /// profile target is set. Returns false on shape mismatch with the bound
  /// binary.
  bool restoreState(const TrackerCheckpoint &St);

private:
  struct Frame {
    NodeKind K = NodeKind::Root;
    NodeId Node = RootNode;
    NodeId EdgeFrom = RootNode; ///< Source of the edge this frame traverses.
    uint64_t Hier = 0;          ///< Hierarchical instructions so far.
    int32_t LoopId = -1;        ///< For loop frames.
    uint32_t FuncId = 0;        ///< Owning function (loop & proc frames).
    uint32_t EdgeId = ~0u;      ///< Interned edge id when profiling direct.
  };

  /// Monomorphic inline cache: last-seen edge source per construct, for the
  /// two node kinds whose incoming edge source varies (heads).
  struct EdgeCache {
    NodeId From = ~0u;
    uint32_t Id = ~0u;
  };

  NodeId currentCtx() const { return Stack.back().Node; }

  /// Interned edge id for (From -> Node), cached per construct. Body edges
  /// have a fixed source (their head), so a plain dense slot suffices;
  /// head edges key the cache on the last-seen source.
  uint32_t internCached(NodeKind K, NodeId Node, NodeId From, int32_t LoopId,
                        uint32_t FuncId) {
    switch (K) {
    case NodeKind::LoopBody: {
      uint32_t &Slot = LoopBodyEdge[LoopId];
      if (Slot == ~0u)
        Slot = PG->internEdge(From, Node);
      return Slot;
    }
    case NodeKind::ProcBody: {
      uint32_t &Slot = ProcBodyEdge[FuncId];
      if (Slot == ~0u)
        Slot = PG->internEdge(From, Node);
      return Slot;
    }
    case NodeKind::LoopHead: {
      EdgeCache &C = LoopHeadCache[LoopId];
      if (C.From != From) {
        C.From = From;
        C.Id = PG->internEdge(From, Node);
      }
      return C.Id;
    }
    case NodeKind::ProcHead: {
      EdgeCache &C = ProcHeadCache[FuncId];
      if (C.From != From) {
        C.From = From;
        C.Id = PG->internEdge(From, Node);
      }
      return C.Id;
    }
    default:
      return PG->internEdge(From, Node);
    }
  }

  void pushFrame(NodeKind K, NodeId Node, NodeId From, int32_t LoopId,
                 uint32_t FuncId) {
    uint32_t EdgeId = PG ? internCached(K, Node, From, LoopId, FuncId) : ~0u;
    for (TrackerListener *L : Listeners)
      L->onEdgeBegin(From, Node);
    Stack.push_back({K, Node, From, 0, LoopId, FuncId, EdgeId});
    refreshRegion();
  }

  void popFrame() {
    assert(Stack.size() > 1 && "cannot pop the root frame");
    Frame F = Stack.back();
    Stack.pop_back();
    endTraversal(F, Stack.back());
    refreshRegion();
  }

  /// Ends \p F's traversal: its hierarchical count goes to \p Parent and
  /// to the profile edge, and the listeners see the edge end.
  void endTraversal(const Frame &F, Frame &Parent) {
    Parent.Hier += F.Hier;
    if (PG)
      PG->addTraversalById(F.EdgeId, F.Hier);
    for (TrackerListener *L : Listeners)
      L->onEdgeEnd(F.EdgeFrom, F.Node, F.Hier);
  }

  /// Ends the top loop body's traversal (one iteration) and begins the
  /// next on the same frame: the events and stats of a pop followed by a
  /// push of the same head->body edge, without rebuilding the frame.
  void nextIteration() {
    Frame &Body = Stack.back();
    assert(Body.K == NodeKind::LoopBody && Stack.size() > 2 &&
           "iteration without a loop body on top");
    endTraversal(Body, Stack[Stack.size() - 2]);
    for (TrackerListener *L : Listeners)
      L->onEdgeBegin(Body.EdgeFrom, Body.Node);
    Body.Hier = 0;
  }

  /// Caches the static region of the top frame's loop as [RegionLo,
  /// RegionLo + RegionLast] while a loop body is on top, and the whole
  /// address space otherwise, so the per-block exit test is one subtract
  /// and compare. Called whenever the top frame changes.
  void refreshRegion() {
    const Frame &Top = Stack.back();
    if (Top.K != NodeKind::LoopBody) {
      RegionLo = 0;
      RegionLast = ~0ull;
      return;
    }
    const StaticLoop &SL = Loops.loop(Top.LoopId);
    assert(SL.EndAddr > SL.HeaderAddr && "empty loop region");
    RegionLo = SL.HeaderAddr;
    RegionLast = SL.EndAddr - SL.HeaderAddr - 1;
  }

  /// Pops loop frames whose static region no longer contains \p Blk; the
  /// pop loop runs only when the cached region test fails.
  void maintainLoops(const LoweredBlock &Blk) {
    if (Blk.Addr - RegionLo > RegionLast)
      popExitedLoops(Blk);
  }
  void popExitedLoops(const LoweredBlock &Blk);
  /// Pushes loop \p L's head and body frames (loop entry).
  void enterLoop(int32_t L, uint32_t FuncId);

  const Binary &B;
  const LoopIndex &Loops;
  const CallLoopGraph &G;
  CallLoopGraph *PG = nullptr; ///< Direct profile target (opt-in, mutable).
  std::vector<TrackerListener *> Listeners;
  std::vector<Frame> Stack;
  uint64_t RegionLo = 0;       ///< Top loop's region start; see
  uint64_t RegionLast = ~0ull; ///< refreshRegion(). Size minus one.
  std::vector<uint32_t> ActiveDepth;  ///< Per function activation count.
  std::vector<uint32_t> LoopBodyEdge; ///< LoopId -> head->body edge id.
  std::vector<uint32_t> ProcBodyEdge; ///< FuncId -> head->body edge id.
  std::vector<EdgeCache> LoopHeadCache; ///< LoopId -> last head-entry edge.
  std::vector<EdgeCache> ProcHeadCache; ///< FuncId -> last episode edge.
};

// Inline so the engines' per-observer instantiations compile the per-block
// path into the block loop; loop entry and exit stay out of line.
inline void CallLoopTracker::onBlock(const LoweredBlock &Blk) {
  maintainLoops(Blk);

  int32_t L = Loops.headerLoop(Blk.GlobalId);
  if (L >= 0) {
    const Frame &Top = Stack.back();
    if (Top.K == NodeKind::LoopBody && Top.LoopId == L)
      // Back at the header with this loop's body on top: one iteration
      // ended, the next begins.
      nextIteration();
    else
      enterLoop(L, Blk.FuncId);
  }

  Stack.back().Hier += Blk.NumInstrs;
}

} // namespace spm

#endif // SPM_CALLLOOP_TRACKER_H
