//===- tests/faultfuzz_test.cpp - fault injection and recovery fuzz -------==//
//
// The robustness proof for docs/robustness.md, in four layers:
//
//   1. Failpoint framework semantics: the spec grammar accepts exactly the
//      documented modes, rejects typos loudly, and every trigger mode fires
//      on the documented hits and no others.
//   2. Atomic writer: an injected fault — thrown before the temp file or a
//      torn write partway through the payload — leaves no destination, no
//      stray temp, and a pre-existing destination byte-identical.
//   3. Kill-at-every-seam: every name in failpointSeamNames() is armed,
//      proven to actually fault its operation, and the re-run after
//      clearing reproduces the fault-free artifact byte for byte. A seam
//      this suite does not know how to drive is a test failure, so new
//      failpoints cannot land without recovery coverage.
//   4. Crash-then-resume differential over generated programs
//      (tests/IrGen.h): a marker pipeline run killed at a checkpoint
//      boundary and resumed from the serialized bytes must reproduce the
//      uninterrupted run's intervals, firings and totals exactly.
//
// Everything is a pure function of the program seed, so any failure
// reproduces from the log alone.
//
//===----------------------------------------------------------------------==//

#include "callloop/Profile.h"
#include "cfg/Format.h"
#include "cfg/Import.h"
#include "ir/Lowering.h"
#include "markers/Checkpoint.h"
#include "markers/Pipeline.h"
#include "markers/Selector.h"
#include "support/AtomicFile.h"
#include "support/FailPoint.h"
#include "support/Metrics.h"
#include "support/Random.h"
#include "support/Trace.h"
#include "vm/Interpreter.h"

#include "CfgGen.h"
#include "CkptTestUtil.h"
#include "DiffHarness.h"
#include "IrGen.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <vector>

using namespace spm;
using namespace spm::difftest;

namespace {

/// Instruction cap per fuzz run: the crash/resume differential runs each
/// program several times, so it uses a tighter budget than the
/// single-pass stream differentials.
constexpr uint64_t FaultCap = 100'000;

/// Program seeds in the crash-then-resume differential.
constexpr uint64_t NumPrograms = 100;

/// Every test leaves no armed failpoints, no counters, and no trace state
/// behind, whatever path it exits through.
struct FaultGuard {
  FaultGuard() { reset(); }
  ~FaultGuard() { reset(); }
  static void reset() {
    failpointsClear();
    spmTraceSetEnabled(false);
    metrics().resetAll();
  }
};

/// Lists stray atomic-writer temps (`<base>.tmp.<pid>.<seq>`) next to
/// \p Base in the current directory.
std::vector<std::string> strayTemps(const std::string &Base) {
  std::vector<std::string> Out;
  std::string Prefix = Base + ".tmp.";
  for (const auto &E : std::filesystem::directory_iterator(".")) {
    std::string Name = E.path().filename().string();
    if (Name.rfind(Prefix, 0) == 0)
      Out.push_back(Name);
  }
  return Out;
}

std::string slurp(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(In),
                     std::istreambuf_iterator<char>());
}

/// Uninterrupted run: a one-segment chain.
MarkerRun runWhole(const Binary &B, const LoopIndex &Loops,
                   const CallLoopGraph &G, const MarkerSet &M,
                   const WorkloadInput &In, uint64_t Cap) {
  MarkerStack S(B, Loops, G, M, In);
  MarkerRun Out;
  runChainSegment(S, "", Cap, /*Last=*/true, Out, "whole");
  return Out;
}

/// Runs to the \p At boundary and returns the serialized full pipeline
/// checkpoint (the `checkpoint save` flow); \p Left receives the intervals
/// cut before the boundary.
std::string saveAt(const Binary &B, const LoopIndex &Loops,
                   const CallLoopGraph &G, const MarkerSet &M,
                   const WorkloadInput &In, uint64_t At, MarkerRun &Left) {
  MarkerStack S(B, Loops, G, M, In);
  return runChainSegment(S, "", At, /*Last=*/false, Left, "save");
}

/// Finishes the run from the serialized boundary \p Bytes (the `checkpoint
/// resume` flow), appending to the outputs \p Left holds from before the
/// boundary.
MarkerRun resumeFrom(const Binary &B, const LoopIndex &Loops,
                     const CallLoopGraph &G, const MarkerSet &M,
                     const WorkloadInput &In, const std::string &Bytes,
                     MarkerRun Left, uint64_t Cap, const std::string &Ctx) {
  MarkerStack S(B, Loops, G, M, In);
  runChainSegment(S, Bytes, Cap, /*Last=*/true, Left, Ctx);
  return Left;
}

/// One generated program, lowered, with markers selected.
struct FuzzCase {
  std::unique_ptr<Binary> B;
  LoopIndex Loops;
  std::unique_ptr<CallLoopGraph> G;
  MarkerSet Markers;
  WorkloadInput In;

  explicit FuzzCase(uint64_t Seed) : In(irgen::makeInput(Seed)) {
    auto Prog = irgen::generateProgram(Seed);
    B = lower(*Prog, LoweringOptions::O2());
    Loops = LoopIndex::build(*B);
    G = buildCallLoopGraph(*B, Loops, In, FaultCap);
    SelectorConfig SC;
    SC.ILower = 100;
    Markers = selectMarkers(*G, SC).Markers;
  }
};

} // namespace

//===----------------------------------------------------------------------===//
// Layer 1: failpoint framework semantics
//===----------------------------------------------------------------------===//

TEST(FailPointSpec, GrammarAcceptsDocumentedModes) {
  FaultGuard Guard;
  if (!failpointsCompiledIn())
    GTEST_SKIP() << "failpoints compiled out";
  EXPECT_TRUE(failpointsConfigure(""));
  EXPECT_TRUE(failpointsConfigure("ckpt.write=throw"));
  EXPECT_TRUE(failpointsConfigure("ckpt.write=throw:once"));
  EXPECT_TRUE(failpointsConfigure("ckpt.write=throw:nth:3"));
  EXPECT_TRUE(failpointsConfigure("ckpt.write=throw:every:2"));
  EXPECT_TRUE(failpointsConfigure("ckpt.write=partial:7"));
  EXPECT_TRUE(failpointsConfigure(
      "ckpt.write=partial:3,ckpt.read=throw:every:2,cfg.import=throw"));
  failpointsClear();
}

TEST(FailPointSpec, GrammarRejectsTyposLoudly) {
  FaultGuard Guard;
  if (!failpointsCompiledIn())
    GTEST_SKIP() << "failpoints compiled out";
  struct BadSpec {
    const char *Spec;
    const char *ErrPiece;
  };
  const BadSpec Bad[] = {
      {"nonsense", "not name=mode"},
      {"=throw", "not name=mode"},
      {"not-a-seam=throw", "unknown failpoint"},
      {"ckpt.write=bogus", "unknown mode"},
      {"ckpt.write=throw:nth:", "positive count"},
      {"ckpt.write=throw:nth:0", "positive count"},
      {"ckpt.write=throw:nth:x", "positive count"},
      {"ckpt.write=throw:every:0", "positive period"},
      {"ckpt.write=partial:", "positive byte count"},
      {"ckpt.write=partial:99999999999999999999", "positive byte count"},
      {"ckpt.write=throw,oops=throw", "unknown failpoint"},
  };
  for (const BadSpec &S : Bad) {
    std::string Err;
    EXPECT_FALSE(failpointsConfigure(S.Spec, &Err)) << S.Spec;
    EXPECT_NE(Err.find(S.ErrPiece), std::string::npos)
        << S.Spec << " -> " << Err;
    // A rejected spec must leave nothing armed.
    EXPECT_NO_THROW(failpointCheck("ckpt.write")) << S.Spec;
  }
}

TEST(FailPointSpec, TriggerModesFireOnDocumentedHitsOnly) {
  FaultGuard Guard;
  if (!failpointsCompiledIn())
    GTEST_SKIP() << "failpoints compiled out";
  auto Fires = [] { return failpointEval("ckpt.read").K; };

  ASSERT_TRUE(failpointsConfigure("ckpt.read=throw"));
  for (int H = 1; H <= 4; ++H)
    EXPECT_EQ(Fires(), FailAction::Kind::Throw) << "hit " << H;

  ASSERT_TRUE(failpointsConfigure("ckpt.read=throw:once"));
  EXPECT_EQ(Fires(), FailAction::Kind::Throw);
  for (int H = 2; H <= 4; ++H)
    EXPECT_EQ(Fires(), FailAction::Kind::None) << "hit " << H;

  ASSERT_TRUE(failpointsConfigure("ckpt.read=throw:nth:3"));
  EXPECT_EQ(Fires(), FailAction::Kind::None);
  EXPECT_EQ(Fires(), FailAction::Kind::None);
  EXPECT_EQ(Fires(), FailAction::Kind::Throw);
  EXPECT_EQ(Fires(), FailAction::Kind::None);

  ASSERT_TRUE(failpointsConfigure("ckpt.read=throw:every:2"));
  EXPECT_EQ(Fires(), FailAction::Kind::None);
  EXPECT_EQ(Fires(), FailAction::Kind::Throw);
  EXPECT_EQ(Fires(), FailAction::Kind::None);
  EXPECT_EQ(Fires(), FailAction::Kind::Throw);
  EXPECT_EQ(failpointHits("ckpt.read"), 4u);

  ASSERT_TRUE(failpointsConfigure("ckpt.read=partial:5"));
  FailAction A = failpointEval("ckpt.read");
  EXPECT_EQ(A.K, FailAction::Kind::Partial);
  EXPECT_EQ(A.Arg, 5u);
  EXPECT_EQ(failpointEval("ckpt.read").K, FailAction::Kind::None);

  // An unarmed seam never fires, even while another is armed.
  EXPECT_EQ(failpointEval("bench.write").K, FailAction::Kind::None);
  failpointsClear();
  EXPECT_EQ(failpointEval("ckpt.read").K, FailAction::Kind::None);
  EXPECT_EQ(failpointHits("ckpt.read"), 0u);
}

TEST(FailPointSpec, CheckThrowsNamedException) {
  FaultGuard Guard;
  if (!failpointsCompiledIn())
    GTEST_SKIP() << "failpoints compiled out";
  ASSERT_TRUE(failpointsConfigure("cfg.import=throw"));
  try {
    failpointCheck("cfg.import");
    FAIL() << "armed failpoint did not throw";
  } catch (const FailPointInjected &E) {
    EXPECT_EQ(E.name(), "cfg.import");
    EXPECT_NE(std::string(E.what()).find("cfg.import"), std::string::npos);
    EXPECT_NE(std::string(E.what()).find("injected fault"),
              std::string::npos);
  }
}

TEST(FailPointSpec, CompiledOutRefusesToArm) {
  FaultGuard Guard;
  if (failpointsCompiledIn())
    GTEST_SKIP() << "failpoints compiled in";
  EXPECT_TRUE(failpointsConfigure(""));
  std::string Err;
  EXPECT_FALSE(failpointsConfigure("ckpt.write=throw", &Err));
  EXPECT_NE(Err.find("compiled out"), std::string::npos) << Err;
  EXPECT_NO_THROW(failpointCheck("ckpt.write"));
  EXPECT_EQ(failpointHits("ckpt.write"), 0u);
}

//===----------------------------------------------------------------------===//
// Layer 2: atomic writer under injected faults
//===----------------------------------------------------------------------===//

TEST(AtomicWrite, CommitsAndOverwritesCleanly) {
  FaultGuard Guard;
  const std::string Path = "faultfuzz_aw.txt";
  std::string Err;
  ASSERT_TRUE(atomicWriteFile(Path, "first contents\n", &Err)) << Err;
  EXPECT_EQ(slurp(Path), "first contents\n");
  ASSERT_TRUE(atomicWriteFile(Path, "second contents\n", &Err)) << Err;
  EXPECT_EQ(slurp(Path), "second contents\n");
  EXPECT_TRUE(strayTemps(Path).empty());
  std::remove(Path.c_str());
}

TEST(AtomicWrite, InjectedThrowLeavesDestinationUntouched) {
  FaultGuard Guard;
  if (!failpointsCompiledIn())
    GTEST_SKIP() << "failpoints compiled out";
  const std::string Path = "faultfuzz_aw_throw.txt";
  std::string Err;
  ASSERT_TRUE(atomicWriteFile(Path, "old\n", &Err)) << Err;

  ASSERT_TRUE(failpointsConfigure("tool.write=throw"));
  EXPECT_FALSE(atomicWriteFile(Path, "new\n", &Err));
  failpointsClear();
  EXPECT_NE(Err.find("injected fault"), std::string::npos) << Err;
  EXPECT_NE(Err.find(Path), std::string::npos) << Err;
  EXPECT_EQ(slurp(Path), "old\n");
  EXPECT_TRUE(strayTemps(Path).empty());
  std::remove(Path.c_str());
}

TEST(AtomicWrite, InjectedPartialWriteLeavesNoTrace) {
  FaultGuard Guard;
  if (!failpointsCompiledIn())
    GTEST_SKIP() << "failpoints compiled out";
  const std::string Path = "faultfuzz_aw_torn.txt";
  std::remove(Path.c_str());

  // Fresh destination: the torn write must not create it.
  std::string Err;
  ASSERT_TRUE(failpointsConfigure("tool.write=partial:4"));
  EXPECT_FALSE(atomicWriteFile(Path, "twelve bytes\n", &Err));
  failpointsClear();
  EXPECT_NE(Err.find("partial write"), std::string::npos) << Err;
  EXPECT_FALSE(std::filesystem::exists(Path));
  EXPECT_TRUE(strayTemps(Path).empty());

  // Existing destination: byte-identical after the torn write.
  ASSERT_TRUE(atomicWriteFile(Path, "keep me\n", &Err)) << Err;
  ASSERT_TRUE(failpointsConfigure("tool.write=partial:4"));
  EXPECT_FALSE(atomicWriteFile(Path, "clobber attempt\n", &Err));
  failpointsClear();
  EXPECT_EQ(slurp(Path), "keep me\n");
  EXPECT_TRUE(strayTemps(Path).empty());

  // And the very next write succeeds — the failed attempt left no debris
  // that could collide with a retry.
  ASSERT_TRUE(atomicWriteFile(Path, "healed\n", &Err)) << Err;
  EXPECT_EQ(slurp(Path), "healed\n");
  std::remove(Path.c_str());
}

//===----------------------------------------------------------------------===//
// Layer 3: kill at every seam, then heal
//===----------------------------------------------------------------------===//

// Arms `<seam>=throw` for every name in failpointSeamNames(), proves the
// fault actually fires through a real driver of that seam, then clears and
// reproduces the fault-free artifact byte for byte. Seams this test has no
// driver for fail the test — recovery coverage is mandatory for new seams.
TEST(FaultFuzz, KillAtEverySeamThenHeal) {
  FaultGuard Guard;
  if (!failpointsCompiledIn())
    GTEST_SKIP() << "failpoints compiled out";

  // Shared fixtures the drivers below reuse.
  PipelineCheckpoint Ck;
  Ck.Seed = 7;
  Ck.Interp.TotalInstrs = 42;
  const std::string CkBytes = serializeCheckpoint(Ck);
  std::string CfgText = cfggen::generateCfgText(1);
  std::string CfgErr;
  std::optional<cfg::CfgProgram> Cfg = cfg::parseCfg(CfgText, &CfgErr);
  ASSERT_TRUE(Cfg.has_value()) << CfgErr;

  std::set<std::string> Covered;
  for (const std::string &Seam : failpointSeamNames()) {
    ASSERT_TRUE(failpointsConfigure(Seam + "=throw")) << Seam;

    if (Seam == "ckpt.serialize") {
      EXPECT_THROW(serializeCheckpoint(Ck), FailPointInjected);
      failpointsClear();
      EXPECT_EQ(serializeCheckpoint(Ck), CkBytes);
    } else if (Seam == "ckpt.read") {
      EXPECT_THROW(parseCheckpoint(CkBytes), FailPointInjected);
      failpointsClear();
      std::optional<PipelineCheckpoint> P = parseCheckpoint(CkBytes);
      ASSERT_TRUE(P.has_value());
      EXPECT_EQ(serializeCheckpoint(*P), CkBytes);
    } else if (Seam == "cfg.import") {
      std::string Err;
      EXPECT_THROW(cfg::importCfg(*Cfg, {}, &Err), FailPointInjected);
      failpointsClear();
      std::optional<cfg::ImportedProgram> IP = cfg::importCfg(*Cfg, {}, &Err);
      EXPECT_TRUE(IP.has_value()) << Err;
    } else if (Seam == "ckpt.write" || Seam == "tool.write" ||
               Seam == "bench.write" || Seam == "trace.write" ||
               Seam == "metrics.write") {
      const std::string Path = "faultfuzz_seam_" + Seam + ".txt";
      std::string Err;
      EXPECT_FALSE(atomicWriteFile(Path, "payload", &Err, Seam.c_str()));
      EXPECT_NE(Err.find("injected fault"), std::string::npos)
          << Seam << " -> " << Err;
      EXPECT_FALSE(std::filesystem::exists(Path)) << Seam;
      failpointsClear();
      ASSERT_TRUE(atomicWriteFile(Path, "payload", &Err, Seam.c_str()))
          << Seam << " -> " << Err;
      EXPECT_EQ(slurp(Path), "payload") << Seam;
      EXPECT_TRUE(strayTemps(Path).empty()) << Seam;
      std::remove(Path.c_str());
    } else {
      ADD_FAILURE() << "no fault driver for seam '" << Seam
                    << "' — extend KillAtEverySeamThenHeal";
      failpointsClear();
      continue;
    }
    Covered.insert(Seam);
  }
  EXPECT_EQ(Covered.size(), failpointSeamNames().size());
}

//===----------------------------------------------------------------------===//
// Layer 4a: crash-then-resume differential over generated programs
//===----------------------------------------------------------------------===//

// For every generated program: run the full marker pipeline
// uninterrupted, then again with a mid-run checkpoint boundary — crashing
// the first serialization attempt, rejecting a corrupted copy of the
// bytes, and finally resuming from the good copy. The boundary split must
// be invisible: left + right intervals, firings and final totals equal the
// uninterrupted run's exactly.
TEST(FaultFuzz, CrashThenResumeDifferential) {
  FaultGuard Guard;
  for (uint64_t Seed = 0; Seed < NumPrograms; ++Seed) {
    FuzzCase FC(Seed);
    std::string Ctx = "seed " + std::to_string(Seed);
    MarkerRun Whole =
        runWhole(*FC.B, FC.Loops, *FC.G, FC.Markers, FC.In, FaultCap);
    uint64_t At = Whole.Run.TotalInstrs / 2;

    // Crash the first save attempt at the serialization seam; the world
    // stays rerunnable (every 8th program, to bound runtime).
    if (failpointsCompiledIn() && Seed % 8 == 0) {
      ASSERT_TRUE(failpointsConfigure("ckpt.serialize=throw"));
      MarkerRun Scratch;
      EXPECT_THROW(
          saveAt(*FC.B, FC.Loops, *FC.G, FC.Markers, FC.In, At, Scratch),
          FailPointInjected)
          << Ctx;
      failpointsClear();
    }

    MarkerRun Left;
    std::string Bytes =
        saveAt(*FC.B, FC.Loops, *FC.G, FC.Markers, FC.In, At, Left);

    // A corrupted copy must be rejected with a named diagnostic before any
    // state is restored (offset is seed-derived, always past the header).
    {
      std::string Bad = Bytes;
      size_t Off = ckptutil::HeaderSize +
                   splitMix64(Seed * 3) % (Bad.size() - ckptutil::HeaderSize);
      Bad[Off] = static_cast<char>(static_cast<uint8_t>(Bad[Off]) ^ 0xff);
      std::string PErr;
      EXPECT_FALSE(parseCheckpoint(Bad, &PErr).has_value()) << Ctx;
      EXPECT_NE(PErr.find("ckpt["), std::string::npos) << Ctx << ": " << PErr;
    }

    expectSameMarkerRun(Whole,
                        resumeFrom(*FC.B, FC.Loops, *FC.G, FC.Markers, FC.In,
                                   Bytes, Left, FaultCap, Ctx),
                        Ctx + " (stitched)");
  }
}
