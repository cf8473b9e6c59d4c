//===- ir/Verify.cpp ------------------------------------------------------==//

#include "ir/Verify.h"

#include "ir/Binary.h"
#include "ir/SourceProgram.h"

#include <set>
#include <vector>

using namespace spm;

namespace {

/// Collects a diagnostic trail; empty means valid.
class Checker {
public:
  void fail(const std::string &Msg) {
    if (Diag.empty())
      Diag = Msg;
  }
  bool ok() const { return Diag.empty(); }
  const std::string &diag() const { return Diag; }

private:
  std::string Diag;
};

class SourceVerifier {
public:
  explicit SourceVerifier(const SourceProgram &P) : P(P) {}

  std::string run() {
    if (P.Functions.empty())
      return "program has no functions";
    for (const auto &F : P.Functions) {
      CurFunc = F->Id;
      visit(F->Body, /*GuardedDepth=*/0);
      if (!C.ok())
        return C.diag();
    }
    checkGuardedRecursion();
    return C.diag();
  }

private:
  void visit(const StmtList &Stmts, unsigned GuardedDepth) {
    for (const StmtPtr &S : Stmts)
      visitStmt(*S, GuardedDepth);
  }

  void visitStmt(const Stmt &S, unsigned GuardedDepth) {
    if (!StmtIds.insert(S.stmtId()).second)
      C.fail("duplicate statement id " + std::to_string(S.stmtId()));
    switch (S.kind()) {
    case Stmt::Kind::Code: {
      const auto &CS = static_cast<const CodeStmt &>(S);
      for (const MemAccessSpec &M : CS.MemOps) {
        if (M.RegionIdx >= P.Regions.size())
          C.fail("memory access references undeclared region");
        if (M.Count == 0)
          C.fail("memory access with zero count");
        if (M.WorkingSetFrac256 == 0 || M.WorkingSetFrac256 > 256)
          C.fail("working-set fraction out of (0,256]");
        if (M.Pat == MemAccessSpec::Pattern::Sequential && M.Stride == 0)
          C.fail("sequential access with zero stride");
      }
      break;
    }
    case Stmt::Kind::Loop: {
      const auto &LS = static_cast<const LoopStmt &>(S);
      if (LS.Trip.K == TripCountSpec::Kind::Schedule && LS.Trip.Values.empty())
        C.fail("loop with empty trip schedule");
      visit(LS.Body, GuardedDepth + mayTripZero(LS.Trip));
      break;
    }
    case Stmt::Kind::If: {
      const auto &IS = static_cast<const IfStmt &>(S);
      visit(IS.Then, GuardedDepth + mayEval(IS.Cond, false));
      visit(IS.Else, GuardedDepth + mayEval(IS.Cond, true));
      break;
    }
    case Stmt::Kind::Call: {
      const auto &CS = static_cast<const CallStmt &>(S);
      if (CS.Candidates.empty())
        C.fail("call site with no candidates");
      uint32_t TotalWeight = 0;
      for (const auto &Cand : CS.Candidates) {
        if (Cand.Callee >= P.Functions.size())
          C.fail("call to undeclared function");
        else
          CallEdges.emplace_back(CurFunc, Cand.Callee,
                                 CS.Prob < 1.0 || GuardedDepth > 0);
        TotalWeight += Cand.Weight;
      }
      if (TotalWeight == 0)
        C.fail("call site with zero total weight");
      break;
    }
    }
  }

  /// True when \p C can evaluate to \p Value, i.e. when the arm taken on
  /// the other value can be skipped.
  static bool mayEval(const CondSpec &C, bool Value) {
    switch (C.K) {
    case CondSpec::Kind::Bernoulli:
      return Value ? C.P > 0.0 : C.P < 1.0;
    case CondSpec::Kind::Periodic:
      return Value ? C.TrueCount > 0 : C.TrueCount < C.Period;
    }
    return false;
  }

  /// True when a loop with trip \p T can run its body zero times. A
  /// parameter-sized trip counts as non-zero unless its scale is 0: the
  /// inputs are not known here.
  static bool mayTripZero(const TripCountSpec &T) {
    switch (T.K) {
    case TripCountSpec::Kind::Constant:
      return T.Value == 0;
    case TripCountSpec::Kind::Uniform:
      return T.Lo == 0;
    case TripCountSpec::Kind::Param:
      return T.Num == 0;
    case TripCountSpec::Kind::ParamUniform:
      return T.LoNum == 0 || T.HiNum == 0;
    case TripCountSpec::Kind::Schedule:
      for (uint64_t V : T.Values)
        if (V == 0)
          return true;
      return false;
    }
    return false;
  }

  /// Every call-graph cycle must contain at least one guarded edge, otherwise
  /// execution cannot terminate. A call is guarded when its own Prob < 1 or
  /// when it sits in an if-arm or loop body that can be skipped
  /// (GuardedDepth > 0). We check the stronger and simpler property that
  /// the subgraph of *unguarded* edges is acyclic.
  void checkGuardedRecursion() {
    size_t N = P.Functions.size();
    std::vector<std::vector<uint32_t>> Adj(N);
    for (const auto &[From, To, Guarded] : CallEdges)
      if (!Guarded)
        Adj[From].push_back(To);
    // Iterative three-color DFS.
    std::vector<uint8_t> Color(N, 0);
    for (uint32_t Root = 0; Root < N; ++Root) {
      if (Color[Root])
        continue;
      std::vector<std::pair<uint32_t, size_t>> Stack{{Root, 0}};
      Color[Root] = 1;
      while (!Stack.empty()) {
        auto &[U, I] = Stack.back();
        if (I == Adj[U].size()) {
          Color[U] = 2;
          Stack.pop_back();
          continue;
        }
        uint32_t V = Adj[U][I++];
        if (Color[V] == 1) {
          C.fail("unguarded call-graph cycle through function '" +
                 P.Functions[V]->Name + "'");
          return;
        }
        if (Color[V] == 0) {
          Color[V] = 1;
          Stack.emplace_back(V, 0);
        }
      }
    }
  }

  const SourceProgram &P;
  Checker C;
  std::set<uint32_t> StmtIds;
  uint32_t CurFunc = 0;
  std::vector<std::tuple<uint32_t, uint32_t, bool>> CallEdges;
};

class BinaryVerifier {
public:
  explicit BinaryVerifier(const Binary &B) : B(B) {}

  std::string run() {
    checkBlocks();
    if (!C.ok())
      return C.diag();
    for (const LoweredFunction &F : B.Funcs)
      visit(F.Body, F);
    return C.diag();
  }

private:
  void checkBlocks() {
    uint64_t PrevEnd = 0;
    for (size_t I = 0; I < B.Blocks.size(); ++I) {
      const LoweredBlock &Blk = B.Blocks[I];
      if (Blk.GlobalId != I)
        C.fail("block global id mismatch");
      if (Blk.Addr < PrevEnd)
        C.fail("overlapping or non-monotonic block addresses");
      PrevEnd = Blk.endAddr();
      if (Blk.NumInstrs == 0)
        C.fail("empty block");
      if (Blk.NumInstrs != Blk.Mix.total())
        C.fail("block instruction count disagrees with mix");
      if (Blk.FuncId >= B.Funcs.size())
        C.fail("block references undeclared function");
      for (const MemAccessSpec &M : Blk.MemOps)
        if (M.RegionIdx >= B.Regions.size())
          C.fail("block memory access references undeclared region");
      if (Blk.Term.K == Terminator::Kind::BackBranch) {
        if (Blk.Term.TargetAddr >= Blk.Addr)
          C.fail("backward branch targets a non-lower address");
        int32_t H = B.blockAt(Blk.Term.TargetAddr);
        if (H < 0)
          C.fail("backward branch target is not a block start");
        else if (B.block(H).FuncId != Blk.FuncId)
          C.fail("backward branch crosses functions");
      }
    }
  }

  void visit(const std::vector<ExecNode> &Nodes, const LoweredFunction &F) {
    for (const ExecNode &N : Nodes) {
      if (N.Block >= B.Blocks.size() ||
          B.block(N.Block).FuncId != F.Id) {
        C.fail("exec node references a foreign block");
        continue;
      }
      switch (N.K) {
      case ExecNode::Kind::Code:
        break;
      case ExecNode::Kind::Loop:
        if (N.LatchBlock >= B.Blocks.size() ||
            B.block(N.LatchBlock).Term.K != Terminator::Kind::BackBranch)
          C.fail("loop exec node without a back-branch latch");
        else if (B.block(N.LatchBlock).Term.TargetAddr !=
                 B.block(N.Block).Addr)
          C.fail("loop latch does not target its header");
        if (N.TripSite >= B.NumTripSites)
          C.fail("trip site id out of range");
        visit(N.Children, F);
        break;
      case ExecNode::Kind::If:
        if (N.CondSite >= B.NumCondSites)
          C.fail("cond site id out of range");
        visit(N.Children, F);
        visit(N.ElseChildren, F);
        break;
      case ExecNode::Kind::Call:
        if (N.Candidates.empty())
          C.fail("call exec node with no candidates");
        for (const auto &Cand : N.Candidates)
          if (Cand.Callee >= B.Funcs.size())
            C.fail("call exec node targets undeclared function");
        if (N.RRSite >= B.NumRRSites)
          C.fail("round-robin site id out of range");
        break;
      }
    }
  }

  const Binary &B;
  Checker C;
};

} // namespace

std::string spm::verify(const SourceProgram &P) {
  return SourceVerifier(P).run();
}

std::string spm::verify(const Binary &B) { return BinaryVerifier(B).run(); }
