//===- callloop/Graph.h - Hierarchical call-loop graph ----------*- C++ -*-===//
//
// Part of the SPM project: reproduction of "Selecting Software Phase Markers
// with Code Structure Analysis" (CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's central data structure (Sec. 4): a call graph extended with
/// loop nodes, where every procedure and loop is represented by a *head*
/// node and a *body* node. The head of a loop tracks entry-to-exit
/// behavior; the body tracks per-iteration behavior. The head of a
/// procedure tracks whole recursive episodes; the body tracks individual
/// activations (head and body carry identical information for non-recursive
/// procedures). Every edge is annotated with the traversal count C, the
/// average hierarchical instruction count A, its standard deviation
/// (reported as CoV = stddev/A), and the maximum — exactly the annotations
/// of Fig. 2 plus the max needed by the SimPoint limit heuristics
/// (Sec. 5.2).
///
//===----------------------------------------------------------------------===//

#ifndef SPM_CALLLOOP_GRAPH_H
#define SPM_CALLLOOP_GRAPH_H

#include "ir/Binary.h"
#include "support/Stats.h"

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

namespace spm {

/// Graph node kinds.
enum class NodeKind : uint8_t { Root, ProcHead, ProcBody, LoopHead, LoopBody };

/// Dense node id. The numbering is a pure function of the binary's shape:
///   0                      -> Root (the whole-program context)
///   1 + 2*F, 2 + 2*F       -> ProcHead/ProcBody of function F
///   LB + 2*L, LB + 2*L + 1 -> LoopHead/LoopBody of static loop L,
/// where LB = 1 + 2*NumFuncs. Cross-binary marker mapping goes through
/// source statement ids, not these ids.
using NodeId = uint32_t;

constexpr NodeId RootNode = 0;

/// One node of the call-loop graph.
struct CallLoopNode {
  NodeKind K = NodeKind::Root;
  uint32_t Index = 0;       ///< FuncId or LoopId.
  uint32_t SrcStmtId = ~0u; ///< Loop statement / ~0 for procedures & root.
  std::string Label;
};

/// One annotated edge.
struct CallLoopEdge {
  NodeId From = 0;
  NodeId To = 0;
  /// Distribution of the hierarchical dynamic instruction count per
  /// traversal: count() == C, mean() == A, cov(), max().
  RunningStat Hier;
};

/// The call-loop graph for one binary. Nodes are created eagerly from the
/// binary's static shape; edges appear as the profiler observes traversals.
class CallLoopGraph {
public:
  /// Builds the node table for \p B / \p Loops with no edges yet.
  CallLoopGraph(const Binary &B, const LoopIndex &Loops);

  /// Synthetic constructor for tests and the algorithm benchmarks: a node
  /// table of \p NumFuncs functions and \p NumLoops loops with generated
  /// labels, not backed by any binary.
  CallLoopGraph(uint32_t NumFuncs, uint32_t NumLoops);

  uint32_t numFuncs() const { return NumFuncs; }
  uint32_t numLoops() const { return NumLoops; }
  uint32_t numNodes() const { return static_cast<uint32_t>(Nodes.size()); }
  size_t numEdges() const { return Edges.size(); }

  NodeId procHead(uint32_t FuncId) const { return 1 + 2 * FuncId; }
  NodeId procBody(uint32_t FuncId) const { return 2 + 2 * FuncId; }
  NodeId loopHead(uint32_t LoopId) const { return LoopBase + 2 * LoopId; }
  NodeId loopBody(uint32_t LoopId) const { return LoopBase + 2 * LoopId + 1; }

  const CallLoopNode &node(NodeId Id) const {
    assert(Id < Nodes.size() && "node id out of range");
    return Nodes[Id];
  }

  /// Records one traversal of (From -> To) with hierarchical count \p Hier.
  void addTraversal(NodeId From, NodeId To, uint64_t Hier) {
    edgeRef(From, To).Hier.add(static_cast<double>(Hier));
  }

  /// Interns edge (From -> To) and returns its dense id — a stable index
  /// consumers can cache (e.g. on tracker frames) to record traversals
  /// without re-hashing the node pair on every event.
  uint32_t internEdge(NodeId From, NodeId To);

  /// The edge with interned id \p Id.
  CallLoopEdge &edgeById(uint32_t Id) {
    assert(Id < Edges.size() && "edge id out of range");
    return Edges[Id];
  }

  /// Records one traversal on a previously interned edge.
  void addTraversalById(uint32_t Id, uint64_t Hier) {
    assert(!Finalized && "graph already finalized");
    edgeById(Id).Hier.add(static_cast<double>(Hier));
  }

  /// Installs deserialized statistics on an edge (profile loading).
  void setEdgeStats(NodeId From, NodeId To, RunningStat Stats) {
    edgeRef(From, To).Hier = std::move(Stats);
  }

  /// Overrides a node's label and source statement (profile loading into a
  /// synthetically constructed node table).
  void setNodeInfo(NodeId Id, std::string Label, uint32_t SrcStmtId) {
    assert(Id < Nodes.size() && "node id out of range");
    Nodes[Id].Label = std::move(Label);
    Nodes[Id].SrcStmtId = SrcStmtId;
  }

  /// Returns the edge, creating it with empty stats if absent. The
  /// reference is invalidated by the next intern of a *new* edge; use
  /// internEdge + addTraversalById to hold onto an edge across inserts.
  CallLoopEdge &edgeRef(NodeId From, NodeId To) {
    return Edges[internEdge(From, To)];
  }

  /// Returns the edge or null when never traversed.
  const CallLoopEdge *findEdge(NodeId From, NodeId To) const;

  /// All edges in a deterministic order (by From, then To).
  std::vector<const CallLoopEdge *> sortedEdges() const;

  /// Incoming edges of \p Id (deterministic order). Built lazily; call
  /// finalize() after profiling before using the adjacency queries.
  const std::vector<const CallLoopEdge *> &incoming(NodeId Id) const {
    assert(Finalized && "call finalize() before adjacency queries");
    return Incoming[Id];
  }
  const std::vector<const CallLoopEdge *> &outgoing(NodeId Id) const {
    assert(Finalized && "call finalize() before adjacency queries");
    return Outgoing[Id];
  }

  /// Freezes the edge set and builds adjacency lists.
  void finalize();
  bool finalized() const { return Finalized; }

private:
  static uint64_t key(NodeId From, NodeId To) {
    return (static_cast<uint64_t>(From) << 32) | To;
  }

  uint32_t NumFuncs = 0;
  uint32_t NumLoops = 0;
  NodeId LoopBase = 1;
  std::vector<CallLoopNode> Nodes;
  // Dense edge storage indexed by interned edge id. Interning a new edge
  // may relocate the vector, so edge *pointers* (findEdge, sortedEdges,
  // adjacency lists) are only stable once profiling is done; ids are always
  // stable — which is what the hot path caches.
  std::vector<CallLoopEdge> Edges;
  std::unordered_map<uint64_t, uint32_t> EdgeMap; ///< key(From,To) -> id.
  std::vector<std::vector<const CallLoopEdge *>> Incoming;
  std::vector<std::vector<const CallLoopEdge *>> Outgoing;
  bool Finalized = false;
};

/// Renders the graph as text (one line per edge with C/A/CoV/max).
std::string printGraph(const CallLoopGraph &G);

/// Renders the graph in Graphviz DOT format.
std::string printGraphDot(const CallLoopGraph &G);

} // namespace spm

#endif // SPM_CALLLOOP_GRAPH_H
