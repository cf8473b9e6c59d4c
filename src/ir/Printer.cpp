//===- ir/Printer.cpp -----------------------------------------------------==//

#include "ir/Printer.h"

#include "ir/Binary.h"
#include "ir/SourceProgram.h"

#include <cstdio>

using namespace spm;

namespace {

void indentTo(std::string &Out, unsigned Depth) {
  Out.append(2 * Depth, ' ');
}

void printStmts(const StmtList &Stmts, const SourceProgram &P,
                std::string &Out, unsigned Depth);

void printStmt(const Stmt &S, const SourceProgram &P, std::string &Out,
               unsigned Depth) {
  indentTo(Out, Depth);
  char Buf[128];
  switch (S.kind()) {
  case Stmt::Kind::Code: {
    const auto &CS = static_cast<const CodeStmt &>(S);
    uint32_t Loads = 0, Stores = 0;
    for (const auto &M : CS.MemOps)
      (M.IsStore ? Stores : Loads) += M.Count;
    std::snprintf(Buf, sizeof(Buf),
                  "s%u: code int=%u fp=%u ld=%u st=%u\n", S.stmtId(),
                  CS.IntOps, CS.FpOps, Loads, Stores);
    Out += Buf;
    break;
  }
  case Stmt::Kind::Loop: {
    const auto &LS = static_cast<const LoopStmt &>(S);
    std::snprintf(Buf, sizeof(Buf), "s%u: loop {\n", S.stmtId());
    Out += Buf;
    printStmts(LS.Body, P, Out, Depth + 1);
    indentTo(Out, Depth);
    Out += "}\n";
    break;
  }
  case Stmt::Kind::If: {
    const auto &IS = static_cast<const IfStmt &>(S);
    std::snprintf(Buf, sizeof(Buf), "s%u: if {\n", S.stmtId());
    Out += Buf;
    printStmts(IS.Then, P, Out, Depth + 1);
    if (!IS.Else.empty()) {
      indentTo(Out, Depth);
      Out += "} else {\n";
      printStmts(IS.Else, P, Out, Depth + 1);
    }
    indentTo(Out, Depth);
    Out += "}\n";
    break;
  }
  case Stmt::Kind::Call: {
    const auto &CS = static_cast<const CallStmt &>(S);
    std::snprintf(Buf, sizeof(Buf), "s%u: call", S.stmtId());
    Out += Buf;
    for (const auto &Cand : CS.Candidates) {
      Out += ' ';
      Out += P.Functions[Cand.Callee]->Name;
    }
    if (CS.Prob < 1.0) {
      std::snprintf(Buf, sizeof(Buf), " (p=%.2f)", CS.Prob);
      Out += Buf;
    }
    Out += '\n';
    break;
  }
  }
}

void printStmts(const StmtList &Stmts, const SourceProgram &P,
                std::string &Out, unsigned Depth) {
  for (const StmtPtr &S : Stmts)
    printStmt(*S, P, Out, Depth);
}

const char *roleName(BlockRole R) {
  switch (R) {
  case BlockRole::Entry:
    return "entry";
  case BlockRole::Straight:
    return "code";
  case BlockRole::LoopHeader:
    return "loop-head";
  case BlockRole::LoopLatch:
    return "latch";
  case BlockRole::CondHead:
    return "cond";
  case BlockRole::CallSite:
    return "call";
  case BlockRole::Exit:
    return "exit";
  }
  return "?";
}

const char *termName(Terminator::Kind K) {
  switch (K) {
  case Terminator::Kind::Fallthrough:
    return "fall";
  case Terminator::Kind::BackBranch:
    return "bwd-br";
  case Terminator::Kind::CondForward:
    return "fwd-br";
  case Terminator::Kind::Call:
    return "call";
  case Terminator::Kind::Ret:
    return "ret";
  }
  return "?";
}

} // namespace

std::string spm::printProgram(const SourceProgram &P) {
  std::string Out = "program " + P.Name + "\n";
  for (size_t I = 0; I < P.Regions.size(); ++I) {
    const MemRegionSpec &R = P.Regions[I];
    Out += "  region " + R.Name + " ";
    if (R.SizeParam.empty())
      Out += std::to_string(R.FixedSize) + "B\n";
    else
      Out += "param(" + R.SizeParam + ")*" + std::to_string(R.SizeScale) +
             "B\n";
  }
  for (const auto &F : P.Functions) {
    Out += "func " + F->Name + " {\n";
    printStmts(F->Body, P, Out, 1);
    Out += "}\n";
  }
  return Out;
}

std::string spm::printBinary(const Binary &B) {
  std::string Out = "binary " + B.Name + "\n";
  char Buf[192];
  for (const LoweredFunction &F : B.Funcs) {
    Out += "func " + F.Name + ":\n";
    for (const LoweredBlock &Blk : B.Blocks) {
      if (Blk.FuncId != F.Id)
        continue;
      std::snprintf(Buf, sizeof(Buf),
                    "  b%-4u %#10llx  n=%-4u %-9s %-6s", Blk.GlobalId,
                    static_cast<unsigned long long>(Blk.Addr), Blk.NumInstrs,
                    roleName(Blk.Role), termName(Blk.Term.K));
      Out += Buf;
      if (Blk.Term.K == Terminator::Kind::BackBranch ||
          Blk.Term.K == Terminator::Kind::CondForward) {
        std::snprintf(Buf, sizeof(Buf), " ->%#llx",
                      static_cast<unsigned long long>(Blk.Term.TargetAddr));
        Out += Buf;
      }
      if (Blk.SrcStmtId != ~0u) {
        std::snprintf(Buf, sizeof(Buf), "  src=s%u", Blk.SrcStmtId);
        Out += Buf;
      }
      Out += '\n';
    }
  }
  return Out;
}
