//===- tests/cfg_test.cpp - CFG import, recovery, and round-trip ----------===//
//
// Part of the SPM project: reproduction of "Selecting Software Phase Markers
// with Code Structure Analysis" (CGO 2006).
//
// The hand-checked half of the CFG importer suite (cfgfuzz_test.cpp is the
// generative half): a worked two-level loop nest whose recovered loop forest,
// marker intervals, and event streams are pinned across run() and runFast,
// whole and cut into segment chains; the curated-workload round-trip property
// (IR -> dump -> re-import -> byte-identical dumps and marker artifacts); the
// negative parse suite (every parse diagnostic by name); the structural
// negative suite (every recovery diagnostic by name, including the irreducible
// rejection listing the stuck blocks); and the node-splitting positive (the
// worked irreducible example legalizes into exactly one loop with two cloned
// blocks and still runs identically under run() and runFast).
//
//===----------------------------------------------------------------------===//

#include "cfg/Format.h"
#include "cfg/Import.h"
#include "ir/Lowering.h"
#include "markers/Pipeline.h"
#include "markers/Selector.h"
#include "workloads/Workloads.h"

#include "DiffHarness.h"

#include <gtest/gtest.h>

using namespace spm;
using namespace spm::difftest;
using cfg::CfgProgram;
using cfg::ImportedProgram;

namespace {

/// The worked example: a parameterized outer loop (header 2, latch 10)
/// holding a constant-trip inner loop (header 4, latch 6) and a periodic
/// if-diamond joining at the outer latch, followed by a call into a second
/// function. Kept in sync with examples/loopnest.cfg (the spm_tool import
/// smoke input).
const char *LoopNest = R"(spm-cfg v1
program loopnest
region heap fixed 65536

func 0 main
entry 0
block 0 int=2
block 1 int=4 mem=0;seq;ld;2;8;0;256 stmt=100
block 2 int=1 trip=param:n:1:1 stmt=101
block 3 int=6 mem=0;rand;st;1;8;0;128 stmt=102
block 4 trip=const:8 stmt=103
block 5 int=5 fp=3 mem=0;chase;ld;1;8;0;64 stmt=104
block 6
block 7 cond=periodic:3:1 stmt=105
block 8 int=9 stmt=106
block 9 int=2 stmt=107
block 10
block 11 call=1;0;1*1 stmt=108
block 12
edge 0 1
edge 1 2
edge 2 3
edge 2 11
edge 3 4
edge 4 5
edge 4 7
edge 5 6
edge 6 4
edge 7 8
edge 7 9
edge 8 10
edge 9 10
edge 10 2
edge 11 12

func 1 helper
entry 13
block 13 int=1
block 14 int=3 fp=1 stmt=109
block 15
edge 13 14
edge 14 15
)";

/// The worked irreducible example: the branch at 1 enters the cycle
/// {2, 3, 4} both at 2 (the eventual header) and at 3 (mid-body).
const char *Irreducible = R"(spm-cfg v1
program irr
func 0 f0
entry 0
block 0 int=2
block 1 cond=bernoulli:0.5
block 2 int=1 trip=const:4
block 3 int=5
block 4
block 5
edge 0 1
edge 1 2
edge 1 3
edge 2 3
edge 2 5
edge 3 4
edge 4 2
)";

ImportedProgram importOrDie(const std::string &Text,
                            const cfg::ImportOptions &Opts = {}) {
  std::string Err;
  std::optional<CfgProgram> P = cfg::parseCfg(Text, &Err);
  EXPECT_TRUE(P.has_value()) << Err;
  if (!P)
    std::abort();
  std::optional<ImportedProgram> IP = cfg::importCfg(*P, Opts, &Err);
  EXPECT_TRUE(IP.has_value()) << Err;
  if (!IP)
    std::abort();
  return std::move(*IP);
}

TEST(CfgImport, LoopNestRecovery) {
  ImportedProgram IP = importOrDie(LoopNest);
  EXPECT_EQ(IP.SplitBlocks, 0u);
  ASSERT_EQ(IP.Loops.size(), 2u);
  EXPECT_EQ(IP.Loops[0].HeaderId, 2u);
  EXPECT_EQ(IP.Loops[0].LatchId, 10u);
  EXPECT_EQ(IP.Loops[0].Depth, 1u);
  EXPECT_EQ(IP.Loops[0].TripText, "param:n:1:1");
  EXPECT_EQ(IP.Loops[1].HeaderId, 4u);
  EXPECT_EQ(IP.Loops[1].LatchId, 6u);
  EXPECT_EQ(IP.Loops[1].Depth, 2u);
  EXPECT_EQ(IP.Loops[1].TripText, "const:8");

  EXPECT_EQ(cfg::printLoopForest(IP),
            "func 0 main: 2 loops\n"
            "  loop header 2 latch 10 trip param:n:1:1\n"
            "    loop header 4 latch 6 trip const:8\n"
            "func 1 helper: 0 loops\n");

  EXPECT_EQ(cfg::referencedParams(*IP.Program),
            std::vector<std::string>{"n"});

  std::unique_ptr<Binary> B = lower(*IP.Program, LoweringOptions::O2());
  LoopIndex Loops = LoopIndex::build(*B);
  EXPECT_EQ(Loops.size(), 2u);
}

TEST(CfgImport, LoopNestIdenticalWholeAndSegmented) {
  ImportedProgram IP = importOrDie(LoopNest);
  std::unique_ptr<Binary> B = lower(*IP.Program, LoweringOptions::O2());
  WorkloadInput In("loopnest", 7);
  In.set("n", 50);
  diffOneProgram(*B, In, "loopnest");
  expectFixedIdentity(*B, In, 64, FuzzCap, "loopnest");
  expectMarkerIdentity(*B, In, FuzzCap, "loopnest markers");
}

TEST(CfgImport, LoopNestDumpRoundTrip) {
  ImportedProgram IP = importOrDie(LoopNest);
  std::unique_ptr<Binary> B1 = lower(*IP.Program, LoweringOptions::O2());
  std::string D1 = cfg::dumpCfg(*B1);

  ImportedProgram IP2 = importOrDie(D1);
  std::unique_ptr<Binary> B2 = lower(*IP2.Program, LoweringOptions::O2());
  EXPECT_EQ(D1, cfg::dumpCfg(*B2));
  EXPECT_EQ(cfg::printLoopForest(IP), cfg::printLoopForest(IP2));
}

// Every curated workload must survive IR -> dump -> re-import -> re-lower
// with a byte-identical dump, an identical call-loop graph, and identical
// marker intervals and firing traces on its train input.
TEST(CfgRoundTrip, CuratedWorkloads) {
  constexpr uint64_t Cap = 200'000;
  for (const std::string &Name : WorkloadRegistry::allNames()) {
    Workload W = WorkloadRegistry::create(Name);
    std::unique_ptr<Binary> B1 = lower(*W.Program, LoweringOptions::O2());
    std::string D1 = cfg::dumpCfg(*B1);

    std::string Err;
    std::optional<CfgProgram> P = cfg::parseCfg(D1, &Err);
    ASSERT_TRUE(P.has_value()) << Name << ": " << Err;
    std::optional<ImportedProgram> IP = cfg::importCfg(*P, {}, &Err);
    ASSERT_TRUE(IP.has_value()) << Name << ": " << Err;
    std::unique_ptr<Binary> B2 = lower(*IP->Program, LoweringOptions::O2());
    EXPECT_EQ(D1, cfg::dumpCfg(*B2)) << Name << ": dump not a fixpoint";

    LoopIndex L1 = LoopIndex::build(*B1);
    LoopIndex L2 = LoopIndex::build(*B2);
    ASSERT_EQ(L1.size(), L2.size()) << Name;

    auto G1 = buildCallLoopGraph(*B1, L1, W.Train, Cap);
    auto G2 = buildCallLoopGraph(*B2, L2, W.Train, Cap);
    EXPECT_EQ(printGraph(*G1), printGraph(*G2)) << Name;

    SelectorConfig SC;
    SC.ILower = 100;
    SelectionResult S1 = selectMarkers(*G1, SC);
    SelectionResult S2 = selectMarkers(*G2, SC);
    MarkerRun R1 = runMarkerIntervals(*B1, L1, *G1, S1.Markers, W.Train,
                                      true, true, Cap);
    MarkerRun R2 = runMarkerIntervals(*B2, L2, *G2, S2.Markers, W.Train,
                                      true, true, Cap);
    expectSameIntervals(R1.Intervals, R2.Intervals, Name);
    EXPECT_EQ(R1.Firings, R2.Firings) << Name;
  }
}

//===----------------------------------------------------------------------===//
// Negative parse suite: every diagnostic fires by name.
//===----------------------------------------------------------------------===//

void expectParseError(const std::string &Text, const std::string &Slug) {
  std::string Err;
  std::optional<CfgProgram> P = cfg::parseCfg(Text, &Err);
  EXPECT_FALSE(P.has_value()) << "expected cfg[" << Slug << "]";
  EXPECT_NE(Err.find("cfg[" + Slug + "]"), std::string::npos)
      << "wanted cfg[" << Slug << "], got: " << Err;
}

TEST(CfgParse, NegativeSuite) {
  expectParseError("", "bad-header");
  expectParseError("spm-cfg v2\n", "bad-header");
  expectParseError("spm-cfg v1\nprogram a\nprogram b\n", "bad-header");
  // Truncation, in several positions.
  expectParseError("spm-cfg v1\nprogram p\nregion r fixed\n", "truncated");
  expectParseError("spm-cfg v1\nprogram p\nfunc 0 f0\nentry 0\nblock 0\n"
                   "edge 0\n",
                   "truncated");
  expectParseError("spm-cfg v1\nfunc 0 f0\nentry 0\nblock 0\n", "truncated");
  expectParseError("spm-cfg v1\nprogram p\n", "missing-function");
  expectParseError("spm-cfg v1\nprogram p\nblock 0\n", "missing-function");
  expectParseError("spm-cfg v1\nprogram p\nfunc 1 f1\n", "bad-function-id");
  expectParseError("spm-cfg v1\nprogram p\nblah 1 2\n", "unknown-directive");
  expectParseError("spm-cfg v1\nprogram p\nfunc 0 f0\nentry 0\nblock x\n",
                   "bad-number");
  expectParseError("spm-cfg v1\nprogram p\nfunc 0 f0\nentry 0\n"
                   "block 0 int=-3\n",
                   "bad-number");
  expectParseError("spm-cfg v1\nprogram p\nfunc 0 f0\nentry 0\n"
                   "block 0 trip=banana\n",
                   "bad-annotation");
  expectParseError("spm-cfg v1\nprogram p\nfunc 0 f0\nentry 0\n"
                   "block 0 mem=0;seq;ld;1;8;0;999\n",
                   "bad-annotation");
  // Duplicate block ids, within and across functions.
  expectParseError("spm-cfg v1\nprogram p\nfunc 0 f0\nentry 0\nblock 0\n"
                   "block 0\n",
                   "duplicate-block");
  expectParseError("spm-cfg v1\nprogram p\nfunc 0 f0\nentry 0\nblock 0\n"
                   "func 1 f1\nentry 0\nblock 0\n",
                   "duplicate-block");
  // Dangling edge endpoints (source and target).
  expectParseError("spm-cfg v1\nprogram p\nfunc 0 f0\nentry 0\nblock 0\n"
                   "edge 9 0\n",
                   "dangling-edge");
  expectParseError("spm-cfg v1\nprogram p\nfunc 0 f0\nentry 0\nblock 0\n"
                   "edge 0 9\n",
                   "dangling-edge");
  // Entry problems: missing line, undeclared block, duplicate line.
  expectParseError("spm-cfg v1\nprogram p\nfunc 0 f0\nblock 0\n", "bad-entry");
  expectParseError("spm-cfg v1\nprogram p\nfunc 0 f0\nentry 9\nblock 0\n",
                   "bad-entry");
  expectParseError("spm-cfg v1\nprogram p\nfunc 0 f0\nentry 0\nentry 0\n"
                   "block 0\n",
                   "bad-entry");
  expectParseError("spm-cfg v1\nprogram p\nfunc 0 f0\nentry 0\n"
                   "block 0 call=1;0;7*1\nblock 1\nedge 0 1\n",
                   "bad-callee");
}

//===----------------------------------------------------------------------===//
// Structural negative suite: recovery diagnostics by name.
//===----------------------------------------------------------------------===//

void expectImportError(const std::string &Text, const std::string &Slug,
                       const cfg::ImportOptions &Opts = {}) {
  std::string Err;
  std::optional<CfgProgram> P = cfg::parseCfg(Text, &Err);
  ASSERT_TRUE(P.has_value()) << Err;
  std::optional<ImportedProgram> IP = cfg::importCfg(*P, Opts, &Err);
  EXPECT_FALSE(IP.has_value()) << "expected cfg[" << Slug << "]";
  EXPECT_NE(Err.find("cfg[" + Slug + "]"), std::string::npos)
      << "wanted cfg[" << Slug << "], got: " << Err;
}

std::string prog(const std::string &Body) {
  return "spm-cfg v1\nprogram p\nfunc 0 f0\n" + Body;
}

TEST(CfgStructure, NegativeSuite) {
  // Entry with a predecessor / more than one successor.
  expectImportError(prog("entry 0\nblock 0\nblock 1\nedge 0 1\nedge 1 0\n"),
                    "bad-entry");
  expectImportError(prog("entry 0\nblock 0\nblock 1\nblock 2\nedge 0 1\n"
                         "edge 0 2\nedge 1 2\n"),
                    "bad-entry");
  expectImportError(
      prog("entry 0\nblock 0\nblock 1\nblock 2\nblock 3\nedge 0 1\n"
           "edge 1 3\nedge 2 3\n"),
      "unreachable-block");
  expectImportError(prog("entry 0\nblock 0\nblock 1\nblock 2\nblock 3\n"
                         "edge 0 1\nedge 1 2\nedge 1 3\nedge 1 2\n"),
                    "too-many-successors");
  expectImportError(prog("entry 0\nblock 0 int=1\nblock 1 cond=bernoulli:0.5\n"
                         "block 2\nblock 3\nedge 0 1\nedge 1 2\nedge 1 3\n"),
                    "multiple-exits");
  expectImportError(prog("entry 0\nblock 0\nblock 1 int=1 trip=const:2\n"
                         "edge 0 1\nedge 1 1\n"),
                    "no-exit");
  expectImportError(prog("entry 0\nblock 0\nblock 1 cond=bernoulli:0.5\n"
                         "block 2 trip=const:2\nblock 3\nedge 0 1\n"
                         "edge 1 3\nedge 1 2\nedge 2 2\n"),
                    "no-path-to-exit");
  // A diamond without cond=.
  expectImportError(prog("entry 0\nblock 0\nblock 1\nblock 2\nblock 3\n"
                         "block 4\nedge 0 1\nedge 1 2\nedge 1 3\nedge 2 4\n"
                         "edge 3 4\n"),
                    "branch-missing-cond");
  // A while loop without trip= on its header.
  expectImportError(prog("entry 0\nblock 0\nblock 1\nblock 2\nblock 3\n"
                         "edge 0 1\nedge 1 2\nedge 2 1\nedge 1 3\n"),
                    "loop-missing-trip");
  // Bottom-exit loop: the latch, not the header, leaves the loop.
  expectImportError(
      prog("entry 0\nblock 0\nblock 1 trip=const:2\n"
           "block 2 cond=bernoulli:0.5\nblock 3\nedge 0 1\nedge 1 2\n"
           "edge 2 1\nedge 2 3\n"),
      "loop-shape");
  // trip= on a block that is not a loop header.
  expectImportError(prog("entry 0\nblock 0\nblock 1 trip=const:2\nblock 2\n"
                         "edge 0 1\nedge 1 2\n"),
                    "stray-annotation");
  // cond= on the exit block.
  expectImportError(prog("entry 0\nblock 0\nblock 1 cond=bernoulli:0.5\n"
                         "edge 0 1\n"),
                    "stray-annotation");
  // Two latches into one header.
  expectImportError(
      prog("entry 0\nblock 0\nblock 1 int=1 trip=const:2\n"
           "block 2 cond=bernoulli:0.5\nblock 3\nblock 4\nblock 5\n"
           "edge 0 1\nedge 1 2\nedge 1 5\nedge 2 3\nedge 2 4\nedge 3 1\n"
           "edge 4 1\n"),
      "loop-multiple-latches");
}

// Whole-program checks run after recovery: a call cycle with no
// probability gate could never terminate (the interpreter would cut it off
// at MaxCallDepth and report a silently truncated run), and a dispatch
// site whose weights sum to zero has no defined draw.
TEST(CfgStructure, WholeProgramVerifyRejectsByName) {
  auto twoFuncs = [](const std::string &MainCall,
                     const std::string &HelperCall) {
    return "spm-cfg v1\nprogram rec\nfunc 0 main\nentry 0\nblock 0\n"
           "block 1 call=" + MainCall + "\nblock 2\nedge 0 1\nedge 1 2\n"
           "func 1 helper\nentry 3\nblock 3\nblock 4 call=" + HelperCall +
           "\nblock 5\nedge 3 4\nedge 4 5\n";
  };
  auto importErr = [](const std::string &Text) {
    std::string Err;
    std::optional<CfgProgram> P = cfg::parseCfg(Text, &Err);
    EXPECT_TRUE(P.has_value()) << Err;
    if (!P)
      return Err;
    EXPECT_FALSE(cfg::importCfg(*P, {}, &Err).has_value());
    return Err;
  };
  EXPECT_EQ(importErr(twoFuncs("1;0;1*1", "1;0;0*1")),
            "cfg[verify]: unguarded call-graph cycle through function "
            "'main'");
  EXPECT_EQ(importErr(twoFuncs("1;0;1*0,1*0", "0.5;0;0*1")),
            "cfg[verify]: call site with zero total weight");
  // The same cycle gated below probability 1 terminates and imports.
  importOrDie(twoFuncs("1;0;1*1", "0.5;0;0*1"));
}

TEST(CfgStructure, BranchGuardedRecursionImportsAndRuns) {
  // helper's call back to main is unconditional, but it sits in one arm of
  // a bernoulli:0.3 branch: the recursion ends with probability 1.
  auto recursive = [](const std::string &Cond) {
    return "spm-cfg v1\nprogram rec\nfunc 0 main\nentry 0\nblock 0 int=2\n"
           "block 1 call=1;0;1*1\nblock 2\nedge 0 1\nedge 1 2\n"
           "func 1 helper\nentry 3\nblock 3 int=3\nblock 4 cond=" +
           Cond +
           "\nblock 5 call=1;0;0*1\nblock 6\nedge 3 4\nedge 4 5\n"
           "edge 4 6\nedge 5 6\n";
  };
  ImportedProgram IP = importOrDie(recursive("bernoulli:0.3"));
  std::unique_ptr<Binary> B = lower(*IP.Program, LoweringOptions::O2());
  WorkloadInput In("rec", 5);
  diffOneProgram(*B, In, "branch-guarded-recursion");
  RecordingObserver Obs;
  EXPECT_FALSE(Interpreter(*B, In).runFast(Obs, FuzzCap).HitInstrLimit);

  // An always-taken branch guards nothing.
  std::string Err;
  std::optional<CfgProgram> P = cfg::parseCfg(recursive("bernoulli:1"), &Err);
  ASSERT_TRUE(P.has_value()) << Err;
  EXPECT_FALSE(cfg::importCfg(*P, {}, &Err).has_value());
  EXPECT_EQ(Err, "cfg[verify]: unguarded call-graph cycle through function "
                 "'main'");
}

TEST(CfgStructure, IrreducibleRejectedByName) {
  std::string Err;
  std::optional<CfgProgram> P = cfg::parseCfg(Irreducible, &Err);
  ASSERT_TRUE(P.has_value()) << Err;
  std::optional<ImportedProgram> IP = cfg::importCfg(*P, {}, &Err);
  EXPECT_FALSE(IP.has_value());
  EXPECT_NE(Err.find("cfg[irreducible]"), std::string::npos) << Err;
  // The diagnostic lists the blocks surviving T1-T2 reduction; the cycle
  // {2, 3, 4} must be among them.
  EXPECT_NE(Err.find("2"), std::string::npos) << Err;
  EXPECT_NE(Err.find("3"), std::string::npos) << Err;
  EXPECT_NE(Err.find("4"), std::string::npos) << Err;
}

TEST(CfgStructure, SplitLimitRespected) {
  cfg::ImportOptions Opts;
  Opts.SplitIrreducible = true;
  Opts.MaxBlocksAfterSplit = 6;
  expectImportError(Irreducible, "split-limit", Opts);
}

TEST(CfgStructure, NodeSplittingLegalizesIrreducible) {
  cfg::ImportOptions Opts;
  Opts.SplitIrreducible = true;
  ImportedProgram IP = importOrDie(Irreducible, Opts);
  // Block 3 splits first (highest-id candidate), then the copy of 4; the
  // original header 2 survives as the unique loop header with the cloned
  // latch still reporting id 4.
  EXPECT_EQ(IP.SplitBlocks, 2u);
  EXPECT_EQ(cfg::printLoopForest(IP),
            "func 0 f0: 1 loop\n"
            "  loop header 2 latch 4 trip const:4\n");

  std::unique_ptr<Binary> B = lower(*IP.Program, LoweringOptions::O2());
  WorkloadInput In("irr", 11);
  diffOneProgram(*B, In, "irr-split");
}

} // namespace
