//===- tests/cfgfuzz_test.cpp - Generative CFG-import differential fuzz ---===//
//
// Part of the SPM project: reproduction of "Selecting Software Phase Markers
// with Code Structure Analysis" (CGO 2006).
//
// The fleet-scale half of the CFG importer suite: hundreds of procedurally
// generated spm-cfg graphs (tests/CfgGen.h — shuffled sections, non-dense
// ids, degenerate shapes) are parsed, imported, lowered, and driven through
// the interpreter, whole and in segments. The legs:
//
//  * Event-stream differential: each imported program runs under the
//    virtual run() and the devirtualized runFast with byte-identical event
//    streams and run totals.
//  * Artifact differential: the call-loop graph dump, fixed-interval
//    records, marker intervals, and marker firing traces of a 3-segment
//    chain agree with the uninterrupted drivers.
//  * Checkpoint rotation: each program is re-run as randomly split
//    segments alternating runFastSegment and the virtual runSegment at
//    every boundary, and the chained event stream must equal the straight
//    runFast run.
//  * Dump fixpoint: import -> lower -> dump stabilizes after one round
//    (the canonical dump re-imports to the byte-identical dump).
//  * Irreducible injection: graphs with a second loop entry are rejected
//    with cfg[irreducible] by default and legalized by node splitting when
//    enabled, after which the split program passes the stream differential
//    too.
//
// Every graph and input is a pure function of the loop indices, so any
// failure is reproducible from the test log alone.
//
//===----------------------------------------------------------------------===//

#include "cfg/Format.h"
#include "cfg/Import.h"
#include "ir/Lowering.h"

#include "CfgGen.h"
#include "DiffHarness.h"
#include "IrGen.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

using namespace spm;
using namespace spm::difftest;
using cfg::CfgProgram;
using cfg::ImportedProgram;

namespace {

constexpr uint64_t NumGraphs = 200;

/// Parses + imports one generated graph; the generator only grows shapes
/// the importer accepts, so any failure here is a real bug in one of them.
ImportedProgram importGenerated(uint64_t Seed,
                                const cfggen::Options &GO = {},
                                const cfg::ImportOptions &Opts = {}) {
  std::string Text = cfggen::generateCfgText(Seed, GO);
  std::string Err;
  std::optional<CfgProgram> P = cfg::parseCfg(Text, &Err);
  EXPECT_TRUE(P.has_value()) << "seed " << Seed << ": " << Err << "\n"
                             << Text;
  if (!P)
    std::abort();
  std::optional<ImportedProgram> IP = cfg::importCfg(*P, Opts, &Err);
  EXPECT_TRUE(IP.has_value()) << "seed " << Seed << ": " << Err << "\n"
                              << Text;
  if (!IP)
    std::abort();
  return std::move(*IP);
}

// Event-stream differential over the full fleet, two inputs per graph so
// parameter-driven trip counts vary too.
TEST(CfgFuzz, EventStreamDifferential) {
  for (uint64_t Seed = 0; Seed < NumGraphs; ++Seed) {
    ImportedProgram IP = importGenerated(Seed);
    auto B = lower(*IP.Program, LoweringOptions::O2());
    for (uint64_t K = 0; K < 2; ++K) {
      WorkloadInput In = irgen::makeInput(Seed * 2 + K);
      diffOneProgram(*B, In,
                     "cfg seed " + std::to_string(Seed) + " input " +
                         std::to_string(K));
    }
  }
}

// Graph dumps, fixed intervals, marker intervals, and firing traces of a
// 3-segment chain against the uninterrupted drivers.
TEST(CfgFuzz, ArtifactDifferential) {
  for (uint64_t Seed = 0; Seed < 40; ++Seed) {
    ImportedProgram IP = importGenerated(Seed + 1000);
    auto B = lower(*IP.Program, LoweringOptions::O2());
    WorkloadInput In = irgen::makeInput(Seed + 1000);
    std::string Ctx = "cfg artifact seed " + std::to_string(Seed);
    expectFixedIdentity(*B, In, 128, FuzzCap, Ctx);
    expectMarkerIdentity(*B, In, FuzzCap, Ctx);
  }
}

// Segmented re-execution alternating runFastSegment on the concrete
// observer and on ExecutionObserver (virtual dispatch) at random split
// points: the chained stream equals the straight run.
TEST(CfgFuzz, CheckpointRotation) {
  size_t Suspended = 0;
  for (uint64_t Round = 0; Round < 40; ++Round) {
    ImportedProgram IP = importGenerated(Round + 2000);
    auto B = lower(*IP.Program, LoweringOptions::O2());
    WorkloadInput In = irgen::makeInput(Round + 2000);
    std::string Ctx = "cfg round " + std::to_string(Round);

    RecordingObserver Ref;
    RunResult RRef = Interpreter(*B, In).runFast(Ref, FuzzCap);

    Rng R(splitMix64(Round ^ 0xcf6f00dull));
    uint64_t Len = RRef.TotalInstrs > 0 ? RRef.TotalInstrs : 1;
    std::vector<uint64_t> Until;
    uint64_t NumSegs = 2 + R.nextBelow(4);
    for (uint64_t S = 0; S + 1 < NumSegs; ++S)
      Until.push_back(1 + R.nextBelow(Len));
    std::sort(Until.begin(), Until.end());
    Until.push_back(FuzzCap);

    RecordingObserver Chained;
    RunResult RLast;
    InterpCheckpoint Cks[2];
    const InterpCheckpoint *From = nullptr;
    for (size_t S = 0; S < Until.size(); ++S) {
      InterpCheckpoint *Out = &Cks[S % 2];
      Interpreter I(*B, In);
      RLast = S % 2 ? I.runFastSegment(
                          static_cast<ExecutionObserver &>(Chained), From,
                          Until[S], Out)
                    : I.runFastSegment(Chained, From, Until[S], Out);
      if (!Out->Finished && !Out->Frames.empty())
        ++Suspended;
      From = Out;
    }

    expectSameRun(RRef, RLast, Ctx);
    ASSERT_EQ(Ref.Events.size(), Chained.Events.size()) << Ctx;
    EXPECT_TRUE(Ref.Events == Chained.Events) << Ctx;
  }
  // Most rounds must actually suspend mid-run somewhere, or the loop never
  // tested a real resume.
  EXPECT_GE(Suspended, 20u);
}

// The canonical dump is a fixpoint: import -> lower -> dump, re-imported,
// re-lowers to the byte-identical dump (and the same loop forest).
TEST(CfgFuzz, DumpFixpoint) {
  for (uint64_t Seed = 0; Seed < 60; ++Seed) {
    ImportedProgram IP = importGenerated(Seed + 3000);
    auto B1 = lower(*IP.Program, LoweringOptions::O2());
    std::string D1 = cfg::dumpCfg(*B1);

    std::string Err;
    std::optional<CfgProgram> P = cfg::parseCfg(D1, &Err);
    ASSERT_TRUE(P.has_value()) << "seed " << Seed << ": " << Err;
    std::optional<ImportedProgram> IP2 = cfg::importCfg(*P, {}, &Err);
    ASSERT_TRUE(IP2.has_value()) << "seed " << Seed << ": " << Err;
    auto B2 = lower(*IP2->Program, LoweringOptions::O2());
    EXPECT_EQ(D1, cfg::dumpCfg(*B2)) << "seed " << Seed;
  }
}

// Irreducible injection: a second entry into a loop body must be rejected
// by name, and node splitting must legalize exactly that shape into a
// program that still agrees across run() and runFast.
TEST(CfgFuzz, IrreducibleInjection) {
  cfggen::Options GO;
  GO.InjectIrreducible = true;
  for (uint64_t Seed = 0; Seed < 30; ++Seed) {
    std::string Text = cfggen::generateCfgText(Seed + 4000, GO);
    std::string Err;
    std::optional<CfgProgram> P = cfg::parseCfg(Text, &Err);
    ASSERT_TRUE(P.has_value()) << "seed " << Seed << ": " << Err;

    std::optional<ImportedProgram> Rejected = cfg::importCfg(*P, {}, &Err);
    EXPECT_FALSE(Rejected.has_value()) << "seed " << Seed;
    EXPECT_NE(Err.find("cfg[irreducible]"), std::string::npos)
        << "seed " << Seed << ": " << Err;

    cfg::ImportOptions Opts;
    Opts.SplitIrreducible = true;
    std::optional<ImportedProgram> Split = cfg::importCfg(*P, Opts, &Err);
    ASSERT_TRUE(Split.has_value()) << "seed " << Seed << ": " << Err << "\n"
                                   << Text;
    EXPECT_GT(Split->SplitBlocks, 0u) << "seed " << Seed;

    auto B = lower(*Split->Program, LoweringOptions::O2());
    WorkloadInput In = irgen::makeInput(Seed + 4000);
    diffOneProgram(*B, In,
                   "cfg irreducible seed " + std::to_string(Seed));
  }
}

} // namespace
