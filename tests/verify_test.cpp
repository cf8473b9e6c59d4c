//===- tests/verify_test.cpp - verifier error-path coverage ---------------==//
//
// White-box tests for every diagnostic the source and binary verifiers can
// produce: each test constructs (or corrupts) exactly one violation and
// checks the verifier names it.
//
//===----------------------------------------------------------------------===//

#include "ir/Builder.h"
#include "ir/Lowering.h"
#include "ir/Verify.h"

#include <gtest/gtest.h>

using namespace spm;

namespace {

MemAccessSpec seqLoad(uint32_t Region);

/// A minimal valid program to corrupt.
std::unique_ptr<SourceProgram> validProgram() {
  ProgramBuilder PB("ok");
  uint32_t R = PB.region(MemRegionSpec::fixed("buf", 1024));
  uint32_t Main = PB.declare("main");
  uint32_t Leaf = PB.declare("leaf");
  PB.define(Leaf, [&](FunctionBuilder &F) { F.code(3); });
  PB.define(Main, [&](FunctionBuilder &F) {
    F.loop(TripCountSpec::constant(5), [&] {
      F.code(2, 0, {seqLoad(R)});
      F.call(Leaf);
    });
  });
  return PB.take();
}

MemAccessSpec seqLoad(uint32_t Region) {
  MemAccessSpec M;
  M.RegionIdx = Region;
  M.Pat = MemAccessSpec::Pattern::Sequential;
  return M;
}

void expectDiag(const SourceProgram &P, const std::string &Fragment) {
  std::string Diag = verify(P);
  EXPECT_NE(Diag.find(Fragment), std::string::npos)
      << "expected '" << Fragment << "', got '" << Diag << "'";
}

void expectDiag(const Binary &B, const std::string &Fragment) {
  std::string Diag = verify(B);
  EXPECT_NE(Diag.find(Fragment), std::string::npos)
      << "expected '" << Fragment << "', got '" << Diag << "'";
}

} // namespace

TEST(VerifySource, ValidProgramPasses) {
  EXPECT_EQ(verify(*validProgram()), "");
}

TEST(VerifySource, EmptyProgram) {
  SourceProgram P;
  expectDiag(P, "no functions");
}

TEST(VerifySource, DuplicateStmtIds) {
  auto P = validProgram();
  // Force a collision.
  static_cast<LoopStmt &>(*P->Functions[0]->Body[0])
      .Body[0]
      ->setStmtId(static_cast<LoopStmt &>(*P->Functions[0]->Body[0])
                      .stmtId());
  expectDiag(*P, "duplicate statement id");
}

TEST(VerifySource, ZeroCountAccess) {
  auto P = validProgram();
  auto &Loop = static_cast<LoopStmt &>(*P->Functions[0]->Body[0]);
  static_cast<CodeStmt &>(*Loop.Body[0]).MemOps[0].Count = 0;
  expectDiag(*P, "zero count");
}

TEST(VerifySource, BadWorkingSetFraction) {
  auto P = validProgram();
  auto &Loop = static_cast<LoopStmt &>(*P->Functions[0]->Body[0]);
  static_cast<CodeStmt &>(*Loop.Body[0]).MemOps[0].WorkingSetFrac256 = 0;
  expectDiag(*P, "working-set fraction");
}

TEST(VerifySource, ZeroStrideSequential) {
  auto P = validProgram();
  auto &Loop = static_cast<LoopStmt &>(*P->Functions[0]->Body[0]);
  static_cast<CodeStmt &>(*Loop.Body[0]).MemOps[0].Stride = 0;
  expectDiag(*P, "zero stride");
}

TEST(VerifySource, UndeclaredRegion) {
  auto P = validProgram();
  auto &Loop = static_cast<LoopStmt &>(*P->Functions[0]->Body[0]);
  static_cast<CodeStmt &>(*Loop.Body[0]).MemOps[0].RegionIdx = 42;
  expectDiag(*P, "undeclared region");
}

TEST(VerifySource, EmptyTripSchedule) {
  auto P = validProgram();
  auto &Loop = static_cast<LoopStmt &>(*P->Functions[0]->Body[0]);
  Loop.Trip.K = TripCountSpec::Kind::Schedule;
  Loop.Trip.Values.clear();
  expectDiag(*P, "empty trip schedule");
}

TEST(VerifySource, CallToUndeclaredFunction) {
  auto P = validProgram();
  auto &Loop = static_cast<LoopStmt &>(*P->Functions[0]->Body[0]);
  static_cast<CallStmt &>(*Loop.Body[1]).Candidates[0].Callee = 9;
  expectDiag(*P, "undeclared function");
}

TEST(VerifySource, ZeroWeightDispatch) {
  auto P = validProgram();
  auto &Loop = static_cast<LoopStmt &>(*P->Functions[0]->Body[0]);
  static_cast<CallStmt &>(*Loop.Body[1]).Candidates[0].Weight = 0;
  expectDiag(*P, "zero total weight");
}

TEST(VerifySource, EmptyCandidateList) {
  auto P = validProgram();
  auto &Loop = static_cast<LoopStmt &>(*P->Functions[0]->Body[0]);
  static_cast<CallStmt &>(*Loop.Body[1]).Candidates.clear();
  expectDiag(*P, "no candidates");
}

TEST(VerifySource, UnguardedMutualRecursion) {
  ProgramBuilder PB("mutual");
  uint32_t A = PB.declare("a");
  uint32_t B = PB.declare("b");
  PB.define(A, [&](FunctionBuilder &F) { F.call(B); });
  PB.define(B, [&](FunctionBuilder &F) { F.call(A); });
  auto P = PB.take();
  expectDiag(*P, "cycle");
}

TEST(VerifySource, GuardedMutualRecursionOk) {
  ProgramBuilder PB("mutual");
  uint32_t A = PB.declare("a");
  uint32_t B = PB.declare("b");
  PB.define(A, [&](FunctionBuilder &F) {
    F.code(1);
    F.callIf(B, 0.5);
  });
  PB.define(B, [&](FunctionBuilder &F) {
    F.code(1);
    F.callIf(A, 0.5);
  });
  auto P = PB.take();
  EXPECT_EQ(verify(*P), "");
}

namespace {

/// A self-recursive function whose only call sits inside whatever
/// \p Wrap appends around it.
std::string verifySelfCallIn(
    const std::function<void(FunctionBuilder &, std::function<void()>)>
        &Wrap) {
  ProgramBuilder PB("self");
  uint32_t A = PB.declare("a");
  PB.define(A, [&](FunctionBuilder &F) {
    F.code(1);
    Wrap(F, [&] { F.call(A); });
  });
  return verify(*PB.take());
}

} // namespace

TEST(VerifySource, SkippableArmGuardsRecursion) {
  using Body = std::function<void()>;
  // Each arm guards exactly when the predicate can take the other one.
  EXPECT_EQ(verifySelfCallIn([](FunctionBuilder &F, Body Call) {
              F.branch(CondSpec::bernoulli(0.3), Call);
            }),
            "");
  EXPECT_EQ(verifySelfCallIn([](FunctionBuilder &F, Body Call) {
              F.branch(CondSpec::bernoulli(0.3), [&] { F.code(1); }, Call);
            }),
            "");
  EXPECT_EQ(verifySelfCallIn([](FunctionBuilder &F, Body Call) {
              F.branch(CondSpec::periodic(3, 2), Call);
            }),
            "");
  EXPECT_EQ(verifySelfCallIn([](FunctionBuilder &F, Body Call) {
              F.branch(CondSpec::bernoulli(1.0), Call);
            }),
            "unguarded call-graph cycle through function 'a'");
  EXPECT_EQ(verifySelfCallIn([](FunctionBuilder &F, Body Call) {
              F.branch(CondSpec::bernoulli(0.0), [&] { F.code(1); }, Call);
            }),
            "unguarded call-graph cycle through function 'a'");
  EXPECT_EQ(verifySelfCallIn([](FunctionBuilder &F, Body Call) {
              F.branch(CondSpec::periodic(3, 3), Call);
            }),
            "unguarded call-graph cycle through function 'a'");
  EXPECT_EQ(verifySelfCallIn([](FunctionBuilder &F, Body Call) {
              F.branch(CondSpec::periodic(3, 0), [&] { F.code(1); }, Call);
            }),
            "unguarded call-graph cycle through function 'a'");
}

TEST(VerifySource, ZeroTripLoopGuardsRecursion) {
  using Body = std::function<void()>;
  auto inLoop = [](TripCountSpec T) {
    return verifySelfCallIn(
        [&](FunctionBuilder &F, Body Call) { F.loop(T, Call); });
  };
  TripCountSpec Sched;
  Sched.K = TripCountSpec::Kind::Schedule;
  Sched.Values = {2, 0, 1};
  EXPECT_EQ(inLoop(TripCountSpec::uniform(0, 1)), "");
  EXPECT_EQ(inLoop(Sched), "");
  EXPECT_EQ(inLoop(TripCountSpec::param("n", 0)), "");
  Sched.Values = {2, 1};
  const std::string Cycle = "unguarded call-graph cycle through function 'a'";
  EXPECT_EQ(inLoop(TripCountSpec::uniform(1, 3)), Cycle);
  EXPECT_EQ(inLoop(TripCountSpec::constant(4)), Cycle);
  EXPECT_EQ(inLoop(Sched), Cycle);
  // The inputs are unknown here, so a parameter-sized trip may not be 0.
  EXPECT_EQ(inLoop(TripCountSpec::param("n")), Cycle);
}

//===----------------------------------------------------------------------===//
// Binary verifier
//===----------------------------------------------------------------------===//

namespace {

std::unique_ptr<Binary> validBinary() {
  return lower(*validProgram(), LoweringOptions::O2());
}

} // namespace

TEST(VerifyBinary, ValidBinaryPasses) {
  EXPECT_EQ(verify(*validBinary()), "");
}

TEST(VerifyBinary, EmptyBlock) {
  auto B = validBinary();
  B->Blocks[2].NumInstrs = 0;
  B->Blocks[2].Mix = OpMix();
  expectDiag(*B, "empty block");
}

TEST(VerifyBinary, MixMismatch) {
  auto B = validBinary();
  B->Blocks[2].NumInstrs += 1;
  expectDiag(*B, "disagrees with mix");
}

TEST(VerifyBinary, GlobalIdMismatch) {
  auto B = validBinary();
  B->Blocks[1].GlobalId = 7;
  expectDiag(*B, "global id mismatch");
}

TEST(VerifyBinary, OverlappingBlocks) {
  auto B = validBinary();
  B->Blocks[1].Addr = B->Blocks[0].Addr; // Overlap with predecessor.
  expectDiag(*B, "non-monotonic");
}

TEST(VerifyBinary, ForwardBackBranch) {
  auto B = validBinary();
  for (LoweredBlock &Blk : B->Blocks) {
    if (Blk.Term.K == Terminator::Kind::BackBranch) {
      Blk.Term.TargetAddr = Blk.endAddr() + 64; // Points forward now.
      break;
    }
  }
  expectDiag(*B, "non-lower address");
}

TEST(VerifyBinary, BackBranchIntoBlockMiddle) {
  auto B = validBinary();
  for (LoweredBlock &Blk : B->Blocks) {
    if (Blk.Term.K == Terminator::Kind::BackBranch) {
      Blk.Term.TargetAddr += 4; // No longer a block start.
      break;
    }
  }
  // The block check ("not a block start") or the exec-tree consistency
  // check ("latch does not target its header") may trigger first; either
  // names the corruption.
  std::string Diag = verify(*B);
  EXPECT_TRUE(Diag.find("not a block start") != std::string::npos ||
              Diag.find("does not target its header") != std::string::npos)
      << Diag;
}

TEST(VerifyBinary, ForeignMemRegion) {
  auto B = validBinary();
  for (LoweredBlock &Blk : B->Blocks) {
    if (!Blk.MemOps.empty()) {
      Blk.MemOps[0].RegionIdx = 99;
      break;
    }
  }
  expectDiag(*B, "undeclared region");
}
