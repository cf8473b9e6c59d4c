//===- cfg/Import.cpp - Structural recovery into the mini-IR --------------===//

#include "cfg/Import.h"

#include "cfg/Structure.h"
#include "ir/Builder.h"
#include "ir/Verify.h"
#include "support/FailPoint.h"

#include <algorithm>
#include <cassert>
#include <sstream>

using namespace spm;
using namespace spm::cfg;

namespace {

/// One block of the working graph. Node splitting appends clones that
/// share the original's definition but drop its statement id (a split
/// block is new code; fresh ids are assigned by the builder).
struct WorkBlock {
  const CfgBlockDef *Def = nullptr;
  bool Clone = false;
  std::vector<uint32_t> Succs; ///< Dense indices.
};

/// Imports one function: shape validation, reducibility (with optional
/// node splitting), loop recovery, and the structured walk that replays
/// the graph into a FunctionBuilder.
class FunctionImporter {
public:
  FunctionImporter(const CfgFunctionDef &F, const ImportOptions &Opts,
                   ImportedProgram &IP, std::string *Err)
      : F(F), Opts(Opts), IP(IP), Err(Err) {}

  bool run(FunctionBuilder &FB) {
    if (!buildWork() || !checkEntryAndExit() || !legalize())
      return false;
    // Splitting may change reachability shape; re-validate cheaply.
    if (!checkEntryAndExit())
      return false;
    if (!analyze())
      return false;
    Visited.assign(Blks.size(), false);
    Visited[Entry] = true;
    Visited[Exit] = true;
    if (!emitSeq(FB, Blks[Entry].Succs[0], Exit, /*Depth=*/0))
      return false;
    for (uint32_t I = 0; I < Blks.size(); ++I)
      if (!Visited[I])
        return fail("unstructured", "block " + blockName(I) +
                                        " is never reached by the "
                                        "structured walk");
    return true;
  }

  uint32_t prologueIntOps() const {
    const CfgBlockDef &D = *Blks[Entry].Def;
    return D.HasInt ? D.IntOps : 2;
  }

private:
  std::string blockName(uint32_t Dense) const {
    std::string S = std::to_string(Blks[Dense].Def->Id);
    if (Blks[Dense].Clone)
      S += "'";
    return S;
  }

  bool fail(const char *Slug, const std::string &Detail) {
    if (Err) {
      *Err = "cfg[";
      *Err += Slug;
      *Err += "]: func " + F.Name + ": " + Detail;
    }
    return false;
  }

  bool buildWork() {
    Blks.clear();
    Blks.reserve(F.Blocks.size());
    for (const CfgBlockDef &B : F.Blocks)
      Blks.push_back({&B, false, {}});
    for (uint32_t I = 0; I < Blks.size(); ++I) {
      const CfgBlockDef &B = *Blks[I].Def;
      if (B.Succs.size() > 2)
        return fail("too-many-successors",
                    "block " + std::to_string(B.Id) + " has " +
                        std::to_string(B.Succs.size()) +
                        " successors (max 2)");
      for (uint32_t SuccId : B.Succs) {
        int32_t S = F.indexOf(SuccId);
        assert(S >= 0 && "parser validated edge endpoints");
        Blks[I].Succs.push_back(static_cast<uint32_t>(S));
      }
    }
    Entry = static_cast<uint32_t>(F.indexOf(static_cast<uint32_t>(F.Entry)));
    return true;
  }

  FlowGraph graph() const {
    FlowGraph G;
    G.Entry = Entry;
    G.Succs.reserve(Blks.size());
    for (const WorkBlock &W : Blks)
      G.Succs.push_back(W.Succs);
    G.computePreds();
    return G;
  }

  /// Entry shape, reachability, unique exit, and exit reachability.
  bool checkEntryAndExit() {
    FlowGraph G = graph();
    if (!G.Preds[Entry].empty())
      return fail("bad-entry", "entry block " + blockName(Entry) +
                                   " has predecessors");
    if (Blks[Entry].Succs.size() != 1)
      return fail("bad-entry", "entry block must have exactly one successor");
    const CfgBlockDef &E = *Blks[Entry].Def;
    if (E.HasFp || E.HasStmt || E.HasTrip || E.HasCond || E.HasCall ||
        !E.MemOps.empty())
      return fail("stray-annotation",
                  "entry block carries annotations other than int=");

    std::vector<bool> Reach = G.reachable();
    for (uint32_t I = 0; I < Blks.size(); ++I)
      if (!Reach[I])
        return fail("unreachable-block", "block " + blockName(I) +
                                             " is unreachable from the entry");

    int32_t Found = -1;
    for (uint32_t I = 0; I < Blks.size(); ++I) {
      if (!Blks[I].Succs.empty())
        continue;
      if (Found >= 0)
        return fail("multiple-exits",
                    "blocks " + blockName(static_cast<uint32_t>(Found)) +
                        " and " + blockName(I) + " both have no successors");
      Found = static_cast<int32_t>(I);
    }
    if (Found < 0)
      return fail("no-exit", "no block without successors");
    Exit = static_cast<uint32_t>(Found);
    if (Blks[Exit].Def->annotated())
      return fail("stray-annotation", "exit block carries annotations");

    // Every block must reach the exit (no infinite regions).
    std::vector<bool> ToExit(Blks.size(), false);
    std::vector<uint32_t> Work{Exit};
    ToExit[Exit] = true;
    while (!Work.empty()) {
      uint32_t N = Work.back();
      Work.pop_back();
      for (uint32_t Pr : G.Preds[N])
        if (!ToExit[Pr]) {
          ToExit[Pr] = true;
          Work.push_back(Pr);
        }
    }
    for (uint32_t I = 0; I < Blks.size(); ++I)
      if (!ToExit[I])
        return fail("no-path-to-exit",
                    "block " + blockName(I) + " cannot reach the exit");
    return true;
  }

  /// T1-T2 reducibility; irreducible regions are rejected or node-split.
  bool legalize() {
    while (true) {
      FlowGraph G = graph();
      std::vector<uint32_t> Stuck;
      if (reducible(G, &Stuck))
        return true;
      if (!Opts.SplitIrreducible) {
        std::string Ids;
        for (uint32_t N : Stuck) {
          if (!Ids.empty())
            Ids += ", ";
          Ids += blockName(N);
        }
        return fail("irreducible",
                    "irreducible region (blocks surviving T1-T2 "
                    "reduction): " +
                        Ids + "; re-run with irreducible splitting to "
                              "legalize by node cloning");
      }
      if (!splitOne(G, Stuck))
        return false;
      if (Blks.size() > Opts.MaxBlocksAfterSplit)
        return fail("split-limit",
                    "node splitting exceeded " +
                        std::to_string(Opts.MaxBlocksAfterSplit) +
                        " blocks");
    }
  }

  /// Clones one multi-predecessor block of the stuck region, one copy per
  /// distinct predecessor. Picking the highest-numbered candidate biases
  /// the surviving unique loop header toward the earliest block, which
  /// keeps the recovered structure close to the obvious reading.
  bool splitOne(const FlowGraph &G, const std::vector<uint32_t> &Stuck) {
    int32_t Victim = -1;
    for (uint32_t N : Stuck) {
      if (N == Entry)
        continue;
      std::vector<uint32_t> Preds = distinctPreds(G, N);
      if (Preds.size() < 2)
        continue;
      if (Victim < 0 ||
          Blks[N].Def->Id > Blks[Victim].Def->Id ||
          (Blks[N].Def->Id == Blks[Victim].Def->Id &&
           N > static_cast<uint32_t>(Victim)))
        Victim = static_cast<int32_t>(N);
    }
    if (Victim < 0)
      return fail("irreducible", "irreducible region with no splittable "
                                 "multi-predecessor block");
    uint32_t V = static_cast<uint32_t>(Victim);
    std::vector<uint32_t> Preds = distinctPreds(G, V);
    // First predecessor keeps the original slot (demoted to a clone: the
    // statement id cannot be duplicated across copies); the rest get
    // fresh clones with edges retargeted.
    Blks[V].Clone = true;
    for (size_t PI = 1; PI < Preds.size(); ++PI) {
      uint32_t NewIdx = static_cast<uint32_t>(Blks.size());
      WorkBlock C;
      C.Def = Blks[V].Def;
      C.Clone = true;
      for (uint32_t S : Blks[V].Succs)
        C.Succs.push_back(S == V ? NewIdx : S); // Keep self loops local.
      Blks.push_back(std::move(C));
      for (uint32_t &S : Blks[Preds[PI]].Succs)
        if (S == V)
          S = NewIdx;
      ++IP.SplitBlocks;
    }
    return true;
  }

  std::vector<uint32_t> distinctPreds(const FlowGraph &G, uint32_t N) const {
    std::vector<uint32_t> Out;
    for (uint32_t Pr : G.Preds[N])
      if (Pr != N && std::find(Out.begin(), Out.end(), Pr) == Out.end())
        Out.push_back(Pr);
    std::sort(Out.begin(), Out.end());
    return Out;
  }

  bool analyze() {
    FlowGraph G = graph();
    Doms = computeDominators(G);

    FlowGraph R; // Reversed graph rooted at the exit, for postdominators.
    R.Entry = Exit;
    R.Succs = G.Preds;
    R.computePreds();
    PDoms = computeDominators(R);

    std::string Detail;
    if (!findNaturalLoops(G, Doms, Loops, &Detail))
      return fail("loop-multiple-latches", Detail);
    LoopAt.assign(Blks.size(), -1);
    for (size_t I = 0; I < Loops.size(); ++I)
      LoopAt[Loops[I].Header] = static_cast<int32_t>(I);
    return true;
  }

  bool strayOn(uint32_t Dense, bool AllowInt, bool AllowFp, bool AllowMem,
               bool AllowStmt, bool AllowTrip, bool AllowCond,
               bool AllowCall, const char *Role) {
    const CfgBlockDef &D = *Blks[Dense].Def;
    const char *What = nullptr;
    if (D.HasInt && !AllowInt)
      What = "int=";
    else if (D.HasFp && !AllowFp)
      What = "fp=";
    else if (!D.MemOps.empty() && !AllowMem)
      What = "mem=";
    else if (D.HasStmt && !AllowStmt)
      What = "stmt=";
    else if (D.HasTrip && !AllowTrip)
      What = "trip=";
    else if (D.HasCond && !AllowCond)
      What = "cond=";
    else if (D.HasCall && !AllowCall)
      What = "call=";
    if (!What)
      return true;
    fail("stray-annotation", std::string(What) + " on " + Role + " block " +
                                 blockName(Dense));
    return false;
  }

  void maybeStmtId(FunctionBuilder &FB, uint32_t Dense) {
    const WorkBlock &W = Blks[Dense];
    if (W.Def->HasStmt && !W.Clone)
      FB.nextStmtId(W.Def->StmtId);
  }

  /// Structured walk: emits the statement list covering the region from
  /// \p Cur (inclusive) to \p Stop (exclusive) into \p FB.
  bool emitSeq(FunctionBuilder &FB, uint32_t Cur, uint32_t Stop,
               uint32_t Depth) {
    while (Cur != Stop) {
      if (Cur == Exit)
        return fail("unstructured", "walk reached the function exit inside "
                                    "a nested region");
      if (Visited[Cur])
        return fail("unstructured",
                    "block " + blockName(Cur) + " reached twice (break/"
                    "continue/goto shapes are not structurable)");
      Visited[Cur] = true;
      const CfgBlockDef &D = *Blks[Cur].Def;
      const std::vector<uint32_t> &Succs = Blks[Cur].Succs;

      if (LoopAt[Cur] >= 0) {
        uint32_t ExitSucc = 0;
        if (!emitLoop(FB, Cur, Depth, ExitSucc))
          return false;
        Cur = ExitSucc;
        continue;
      }

      if (Succs.size() == 2) {
        if (D.HasTrip)
          return fail("stray-annotation",
                      "trip= on block " + blockName(Cur) +
                          ", which is not a loop header");
        if (!D.HasCond)
          return fail("branch-missing-cond",
                      "two-successor block " + blockName(Cur) +
                          " has no cond= annotation");
        if (!strayOn(Cur, false, false, false, true, false, true, false,
                     "branch"))
          return false;
        uint32_t Join = static_cast<uint32_t>(PDoms.Idom[Cur]);
        maybeStmtId(FB, Cur);
        bool Ok = true;
        FB.branch(
            D.Cond,
            [&] {
              if (Succs[0] != Join)
                Ok = Ok && emitSeq(FB, Succs[0], Join, Depth);
            },
            [&] {
              if (Succs[1] != Join)
                Ok = Ok && emitSeq(FB, Succs[1], Join, Depth);
            });
        if (!Ok)
          return false;
        Cur = Join;
        continue;
      }

      if (Succs.size() == 1) {
        if (D.HasTrip)
          return fail("stray-annotation",
                      "trip= on block " + blockName(Cur) +
                          ", which is not a loop header");
        if (D.HasCond)
          return fail("stray-annotation",
                      "cond= on one-successor block " + blockName(Cur));
        if (D.HasCall) {
          if (!strayOn(Cur, false, false, false, true, false, false, true,
                       "call"))
            return false;
          maybeStmtId(FB, Cur);
          FB.callOneOf(D.Candidates, D.RoundRobin, D.CallProb);
        } else {
          maybeStmtId(FB, Cur);
          FB.code(D.HasInt ? D.IntOps : 0, D.HasFp ? D.FpOps : 0, D.MemOps);
        }
        Cur = Succs[0];
        continue;
      }

      // Zero successors: only the unique exit qualifies, handled above.
      return fail("unstructured",
                  "block " + blockName(Cur) + " has no successors but is "
                                              "not the exit");
    }
    return true;
  }

  bool emitLoop(FunctionBuilder &FB, uint32_t Header, uint32_t Depth,
                uint32_t &ExitSucc) {
    const NaturalLoop &L = Loops[LoopAt[Header]];
    const CfgBlockDef &D = *Blks[Header].Def;
    const std::vector<uint32_t> &Succs = Blks[Header].Succs;
    if (!D.HasTrip)
      return fail("loop-missing-trip",
                  "loop header " + blockName(Header) +
                      " has no trip= annotation");
    if (!strayOn(Header, true, false, false, true, true, false, false,
                 "loop-header"))
      return false;
    if (Succs.size() != 2)
      return fail("loop-shape", "loop header " + blockName(Header) +
                                    " must have an in-loop and an exit "
                                    "successor");
    bool In0 = L.InLoop[Succs[0]], In1 = L.InLoop[Succs[1]];
    if (In0 == In1)
      return fail("loop-shape",
                  "loop header " + blockName(Header) +
                      " needs exactly one successor outside the loop "
                      "(bottom-exit loops are not structurable)");
    uint32_t BodyFirst = In0 ? Succs[0] : Succs[1];
    ExitSucc = In0 ? Succs[1] : Succs[0];

    uint32_t Latch = L.Latch;
    if (Latch != Header) {
      if (LoopAt[Latch] >= 0)
        return fail("loop-shape", "latch " + blockName(Latch) +
                                      " is itself a loop header");
      if (Blks[Latch].Succs.size() != 1 || Blks[Latch].Succs[0] != Header)
        return fail("loop-shape",
                    "latch " + blockName(Latch) +
                        " must branch only back to its header");
      if (Blks[Latch].Def->annotated())
        return fail("stray-annotation",
                    "latch block " + blockName(Latch) +
                        " carries annotations");
      if (Visited[Latch])
        return fail("unstructured",
                    "latch " + blockName(Latch) + " reached twice");
      Visited[Latch] = true;
    } else if (BodyFirst != Header) {
      return fail("loop-shape", "self-loop header " + blockName(Header) +
                                    " with a non-empty body");
    }

    CfgLoopInfo Info;
    Info.FuncId = F.Id;
    Info.FuncName = F.Name;
    Info.HeaderId = D.Id;
    Info.LatchId = Blks[Latch].Def->Id;
    Info.Depth = Depth + 1;
    Info.TripText = tripSpecText(D.Trip);
    IP.Loops.push_back(std::move(Info));

    maybeStmtId(FB, Header);
    bool Ok = true;
    FB.loop(
        D.Trip,
        [&] {
          if (Latch != Header && BodyFirst != Latch)
            Ok = Ok && emitSeq(FB, BodyFirst, Latch, Depth + 1);
        },
        D.HasInt ? D.IntOps : 1);
    return Ok;
  }

  const CfgFunctionDef &F;
  const ImportOptions &Opts;
  ImportedProgram &IP;
  std::string *Err;

  std::vector<WorkBlock> Blks;
  uint32_t Entry = 0, Exit = 0;
  DomTree Doms, PDoms;
  std::vector<NaturalLoop> Loops;
  std::vector<int32_t> LoopAt;
  std::vector<bool> Visited;
};

} // namespace

std::optional<ImportedProgram> cfg::importCfg(const CfgProgram &P,
                                              const ImportOptions &Opts,
                                              std::string *Err) {
  failpointCheck("cfg.import");
  ImportedProgram IP;
  ProgramBuilder PB(P.Name);
  for (const MemRegionSpec &R : P.Regions)
    PB.region(R);
  for (const CfgFunctionDef &F : P.Funcs)
    PB.declare(F.Name);

  std::vector<uint32_t> Prologue;
  for (const CfgFunctionDef &F : P.Funcs) {
    FunctionImporter FI(F, Opts, IP, Err);
    bool Ok = true;
    PB.define(F.Id, [&](FunctionBuilder &FB) { Ok = FI.run(FB); });
    if (!Ok)
      return std::nullopt;
    Prologue.push_back(FI.prologueIntOps());
  }
  IP.Program = PB.take();
  for (size_t I = 0; I < Prologue.size(); ++I)
    IP.Program->Functions[I]->PrologueIntOps = Prologue[I];
  // Whole-program checks no single function sees, chiefly that every
  // call-graph cycle is guarded (a call below probability 1, or one in a
  // skippable branch arm or loop body) so the program terminates.
  std::string Diag = verify(*IP.Program);
  if (!Diag.empty()) {
    if (Err)
      *Err = "cfg[verify]: " + Diag;
    return std::nullopt;
  }
  return IP;
}

std::string cfg::printLoopForest(const ImportedProgram &IP) {
  std::string Out;
  const SourceProgram &Prog = *IP.Program;
  for (const auto &F : Prog.Functions) {
    size_t Count = 0;
    for (const CfgLoopInfo &L : IP.Loops)
      Count += L.FuncId == F->Id;
    Out += "func " + std::to_string(F->Id) + " " + F->Name + ": " +
           std::to_string(Count) + (Count == 1 ? " loop\n" : " loops\n");
    for (const CfgLoopInfo &L : IP.Loops) {
      if (L.FuncId != F->Id)
        continue;
      Out.append(2 * L.Depth, ' ');
      Out += "loop header " + std::to_string(L.HeaderId) + " latch " +
             std::to_string(L.LatchId) + " trip " + L.TripText + "\n";
    }
  }
  return Out;
}

namespace {

void collectStmtParams(const StmtList &Stmts, std::vector<std::string> &Out) {
  for (const StmtPtr &S : Stmts) {
    switch (S->kind()) {
    case Stmt::Kind::Loop: {
      const auto &L = static_cast<const LoopStmt &>(*S);
      if (L.Trip.K == TripCountSpec::Kind::Param ||
          L.Trip.K == TripCountSpec::Kind::ParamUniform)
        Out.push_back(L.Trip.ParamName);
      collectStmtParams(L.Body, Out);
      break;
    }
    case Stmt::Kind::If: {
      const auto &I = static_cast<const IfStmt &>(*S);
      collectStmtParams(I.Then, Out);
      collectStmtParams(I.Else, Out);
      break;
    }
    case Stmt::Kind::Code:
    case Stmt::Kind::Call:
      break;
    }
  }
}

} // namespace

std::vector<std::string> cfg::referencedParams(const SourceProgram &P) {
  std::vector<std::string> Out;
  for (const MemRegionSpec &R : P.Regions)
    if (!R.SizeParam.empty())
      Out.push_back(R.SizeParam);
  for (const auto &F : P.Functions)
    collectStmtParams(F->Body, Out);
  std::sort(Out.begin(), Out.end());
  Out.erase(std::unique(Out.begin(), Out.end()), Out.end());
  return Out;
}
