//===- callloop/ProfileIO.cpp ---------------------------------------------==//

#include "callloop/ProfileIO.h"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <sstream>

using namespace spm;

std::string spm::serializeProfile(const CallLoopGraph &G, const Binary &B,
                                  const LoopIndex &Loops) {
  std::string Out = "spm-profile v1\n";
  char Buf[256];

  std::snprintf(Buf, sizeof(Buf), "funcs %u\n", G.numFuncs());
  Out += Buf;
  for (uint32_t F = 0; F < G.numFuncs(); ++F) {
    std::snprintf(Buf, sizeof(Buf), "func %u %s\n", F,
                  B.func(F).Name.c_str());
    Out += Buf;
  }

  std::snprintf(Buf, sizeof(Buf), "loops %u\n", G.numLoops());
  Out += Buf;
  for (uint32_t L = 0; L < G.numLoops(); ++L) {
    const StaticLoop &SL = Loops.loop(L);
    std::snprintf(Buf, sizeof(Buf), "loop %u %u %u\n", L, SL.FuncId,
                  SL.SrcStmtId);
    Out += Buf;
  }

  auto Edges = G.sortedEdges();
  std::snprintf(Buf, sizeof(Buf), "edges %zu\n", Edges.size());
  Out += Buf;
  for (const CallLoopEdge *E : Edges) {
    // %.17g round-trips doubles exactly.
    std::snprintf(Buf, sizeof(Buf),
                  "edge %u %u %" PRIu64 " %.17g %.17g %.17g %.17g %.17g\n",
                  E->From, E->To, E->Hier.count(), E->Hier.mean(),
                  E->Hier.m2(), E->Hier.sum(), E->Hier.max(),
                  E->Hier.min());
    Out += Buf;
  }
  return Out;
}

std::optional<CallLoopProfileFile> spm::parseProfile(const std::string &Text,
                                                     std::string *Error) {
  size_t LineNo = 0;
  auto Fail = [&](const char *Slug, const std::string &Detail)
      -> std::optional<CallLoopProfileFile> {
    if (Error)
      *Error = std::string("profile[") + Slug + "]: " + Detail + " (line " +
               std::to_string(LineNo) + ")";
    return std::nullopt;
  };

  std::istringstream In(Text);
  std::string Line;
  auto NextLine = [&](std::string &Out) {
    while (std::getline(In, Out)) {
      ++LineNo;
      if (!Out.empty() && Out[0] != '#')
        return true;
    }
    return false;
  };
  // Every record ends at its last field; End is the %n offset after it.
  auto AtEnd = [&](int End) {
    return Line.find_first_not_of(" \t", End) == std::string::npos;
  };

  if (!NextLine(Line) || Line != "spm-profile v1")
    return Fail("header", "missing 'spm-profile v1' header");

  CallLoopProfileFile P;
  uint32_t NumFuncs = 0, NumLoops = 0;
  size_t NumEdges = 0;

  int End = 0;
  if (!NextLine(Line) ||
      std::sscanf(Line.c_str(), "funcs %u%n", &NumFuncs, &End) != 1 ||
      !AtEnd(End))
    return Fail("funcs", "expected 'funcs <N>'");
  P.FuncNames.resize(NumFuncs);
  for (uint32_t I = 0; I < NumFuncs; ++I) {
    uint32_t Id = 0;
    char Name[200] = {};
    if (!NextLine(Line) ||
        std::sscanf(Line.c_str(), "func %u %199s%n", &Id, Name, &End) != 2 ||
        !AtEnd(End) || Id >= NumFuncs)
      return Fail("func", "expected 'func <id> <name>' with id < funcs");
    P.FuncNames[Id] = Name;
  }

  if (!NextLine(Line) ||
      std::sscanf(Line.c_str(), "loops %u%n", &NumLoops, &End) != 1 ||
      !AtEnd(End))
    return Fail("loops", "expected 'loops <N>'");
  P.LoopInfo.resize(NumLoops);
  for (uint32_t I = 0; I < NumLoops; ++I) {
    uint32_t Id = 0, FuncId = 0, Stmt = 0;
    if (!NextLine(Line) ||
        std::sscanf(Line.c_str(), "loop %u %u %u%n", &Id, &FuncId, &Stmt,
                    &End) != 3 ||
        !AtEnd(End) || Id >= NumLoops || FuncId >= NumFuncs)
      return Fail("loop", "expected 'loop <id> <funcId> <srcStmt>' with "
                          "id < loops and funcId < funcs");
    P.LoopInfo[Id] = {FuncId, Stmt};
  }

  P.Graph = std::make_unique<CallLoopGraph>(NumFuncs, NumLoops);
  for (uint32_t F = 0; F < NumFuncs; ++F) {
    P.Graph->setNodeInfo(P.Graph->procHead(F), P.FuncNames[F] + ".head",
                         ~0u);
    P.Graph->setNodeInfo(P.Graph->procBody(F), P.FuncNames[F] + ".body",
                         ~0u);
  }
  for (uint32_t L = 0; L < NumLoops; ++L) {
    auto [FuncId, Stmt] = P.LoopInfo[L];
    std::string Base =
        P.FuncNames[FuncId] + ".loop.s" + std::to_string(Stmt);
    P.Graph->setNodeInfo(P.Graph->loopHead(L), Base + ".head", Stmt);
    P.Graph->setNodeInfo(P.Graph->loopBody(L), Base + ".body", Stmt);
  }

  if (!NextLine(Line) ||
      std::sscanf(Line.c_str(), "edges %zu%n", &NumEdges, &End) != 1 ||
      !AtEnd(End))
    return Fail("edges", "expected 'edges <N>'");
  for (size_t I = 0; I < NumEdges; ++I) {
    uint32_t From = 0, To = 0;
    uint64_t Count = 0;
    double Mean = 0, M2 = 0, Sum = 0, Max = 0, Min = 0;
    if (!NextLine(Line) ||
        std::sscanf(Line.c_str(),
                    "edge %u %u %" SCNu64 " %lg %lg %lg %lg %lg%n", &From,
                    &To, &Count, &Mean, &M2, &Sum, &Max, &Min, &End) != 8)
      return Fail("edge", "expected 'edge <from> <to> <count> <mean> <m2> "
                          "<sum> <max> <min>'");
    if (!AtEnd(End))
      return Fail("trailing", "unexpected '" + Line.substr(End) +
                                  "' after the edge fields");
    if (From >= P.Graph->numNodes() || To >= P.Graph->numNodes())
      return Fail("node", "edge references unknown node");
    if (Count == 0)
      return Fail("count", "edge with zero traversals");
    // The moments must be what a RunningStat can hold: a NaN M2 alone
    // makes the selector's CoV threshold NaN and silently drops markers.
    for (double V : {Mean, M2, Sum, Max, Min})
      if (!std::isfinite(V))
        return Fail("nonfinite", "edge moments must be finite");
    if (M2 < 0)
      return Fail("m2", "negative second moment");
    if (!(Min <= Mean && Mean <= Max))
      return Fail("range", "edge violates min <= mean <= max");
    // Welford's running mean and the plain running sum round differently,
    // so they agree only to a relative tolerance, never exactly.
    constexpr double SumTolerance = 1e-6;
    double Expected = static_cast<double>(Count) * Mean;
    if (std::fabs(Sum - Expected) >
        SumTolerance * std::max(std::fabs(Sum), std::fabs(Expected)))
      return Fail("sum", "edge sum disagrees with count * mean");
    P.Graph->setEdgeStats(
        From, To, RunningStat::fromMoments(Count, Mean, M2, Sum, Max, Min));
  }

  P.Graph->finalize();
  return P;
}
