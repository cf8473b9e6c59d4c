//===- callloop/Graph.cpp -------------------------------------------------==//

#include "callloop/Graph.h"

#include <algorithm>
#include <cstdio>

using namespace spm;

CallLoopGraph::CallLoopGraph(const Binary &B, const LoopIndex &Loops) {
  NumFuncs = static_cast<uint32_t>(B.Funcs.size());
  NumLoops = static_cast<uint32_t>(Loops.size());
  LoopBase = 1 + 2 * NumFuncs;
  Nodes.resize(1 + 2 * NumFuncs + 2 * NumLoops);

  Nodes[RootNode] = {NodeKind::Root, 0, ~0u, "<root>"};
  for (uint32_t F = 0; F < NumFuncs; ++F) {
    const std::string &Name = B.func(F).Name;
    Nodes[procHead(F)] = {NodeKind::ProcHead, F, ~0u, Name + ".head"};
    Nodes[procBody(F)] = {NodeKind::ProcBody, F, ~0u, Name + ".body"};
  }
  for (uint32_t L = 0; L < NumLoops; ++L) {
    const StaticLoop &Loop = Loops.loop(L);
    std::string Base = B.func(Loop.FuncId).Name + ".loop.s" +
                       std::to_string(Loop.SrcStmtId);
    Nodes[loopHead(L)] = {NodeKind::LoopHead, L, Loop.SrcStmtId,
                          Base + ".head"};
    Nodes[loopBody(L)] = {NodeKind::LoopBody, L, Loop.SrcStmtId,
                          Base + ".body"};
  }
}

CallLoopGraph::CallLoopGraph(uint32_t NumFuncsIn, uint32_t NumLoopsIn) {
  NumFuncs = NumFuncsIn;
  NumLoops = NumLoopsIn;
  LoopBase = 1 + 2 * NumFuncs;
  Nodes.resize(1 + 2 * NumFuncs + 2 * NumLoops);
  Nodes[RootNode] = {NodeKind::Root, 0, ~0u, "<root>"};
  // Names are built by appending: under -O3 (Release) GCC 12 raises a
  // false -Wrestrict on `"f" + std::to_string(F)`, which -Werror makes fatal.
  for (uint32_t F = 0; F < NumFuncs; ++F) {
    std::string Name = "f";
    Name += std::to_string(F);
    Nodes[procHead(F)] = {NodeKind::ProcHead, F, ~0u, Name + ".head"};
    Nodes[procBody(F)] = {NodeKind::ProcBody, F, ~0u, Name + ".body"};
  }
  for (uint32_t L = 0; L < NumLoops; ++L) {
    std::string Name = "loop";
    Name += std::to_string(L);
    Nodes[loopHead(L)] = {NodeKind::LoopHead, L, L, Name + ".head"};
    Nodes[loopBody(L)] = {NodeKind::LoopBody, L, L, Name + ".body"};
  }
}

uint32_t CallLoopGraph::internEdge(NodeId From, NodeId To) {
  assert(!Finalized && "graph already finalized");
  assert(From < Nodes.size() && To < Nodes.size() && "node id out of range");
  auto [It, Inserted] =
      EdgeMap.try_emplace(key(From, To), static_cast<uint32_t>(Edges.size()));
  if (Inserted) {
    CallLoopEdge E;
    E.From = From;
    E.To = To;
    Edges.push_back(std::move(E));
  }
  return It->second;
}

const CallLoopEdge *CallLoopGraph::findEdge(NodeId From, NodeId To) const {
  auto It = EdgeMap.find(key(From, To));
  return It == EdgeMap.end() ? nullptr : &Edges[It->second];
}

std::vector<const CallLoopEdge *> CallLoopGraph::sortedEdges() const {
  std::vector<const CallLoopEdge *> Out;
  Out.reserve(Edges.size());
  for (const auto &E : Edges)
    Out.push_back(&E);
  std::sort(Out.begin(), Out.end(),
            [](const CallLoopEdge *A, const CallLoopEdge *B) {
              if (A->From != B->From)
                return A->From < B->From;
              return A->To < B->To;
            });
  return Out;
}

void CallLoopGraph::finalize() {
  assert(!Finalized && "finalize called twice");
  Incoming.assign(Nodes.size(), {});
  Outgoing.assign(Nodes.size(), {});
  for (const CallLoopEdge *E : sortedEdges()) {
    Outgoing[E->From].push_back(E);
    Incoming[E->To].push_back(E);
  }
  Finalized = true;
}

std::string spm::printGraph(const CallLoopGraph &G) {
  std::string Out;
  char Buf[256];
  for (const CallLoopEdge *E : G.sortedEdges()) {
    std::snprintf(Buf, sizeof(Buf),
                  "%-28s -> %-28s C=%-10llu A=%-12.1f CoV=%5.1f%% max=%.0f\n",
                  G.node(E->From).Label.c_str(), G.node(E->To).Label.c_str(),
                  static_cast<unsigned long long>(E->Hier.count()),
                  E->Hier.mean(), E->Hier.cov() * 100.0, E->Hier.max());
    Out += Buf;
  }
  return Out;
}

std::string spm::printGraphDot(const CallLoopGraph &G) {
  std::string Out = "digraph callloop {\n  node [shape=box];\n";
  char Buf[256];
  // Emit only nodes that participate in at least one edge.
  std::vector<bool> Live(G.numNodes(), false);
  auto Edges = G.sortedEdges();
  for (const CallLoopEdge *E : Edges)
    Live[E->From] = Live[E->To] = true;
  for (NodeId N = 0; N < G.numNodes(); ++N) {
    if (!Live[N])
      continue;
    std::snprintf(Buf, sizeof(Buf), "  n%u [label=\"%s\"];\n", N,
                  G.node(N).Label.c_str());
    Out += Buf;
  }
  for (const CallLoopEdge *E : Edges) {
    std::snprintf(Buf, sizeof(Buf),
                  "  n%u -> n%u [label=\"C=%llu A=%.0f CoV=%.0f%%\"];\n",
                  E->From, E->To,
                  static_cast<unsigned long long>(E->Hier.count()),
                  E->Hier.mean(), E->Hier.cov() * 100.0);
    Out += Buf;
  }
  Out += "}\n";
  return Out;
}
