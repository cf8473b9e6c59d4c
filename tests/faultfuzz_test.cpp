//===- tests/faultfuzz_test.cpp - fault injection and recovery fuzz -------==//
//
// The robustness proof for docs/robustness.md, in three layers:
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
//
//===----------------------------------------------------------------------==//

#include "cfg/Format.h"
#include "cfg/Import.h"
#include "support/AtomicFile.h"
#include "support/FailPoint.h"
#include "support/Metrics.h"
#include "support/Trace.h"

#include "CfgGen.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <vector>

using namespace spm;

namespace {

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

} // namespace

//===----------------------------------------------------------------------===//
// Layer 1: failpoint framework semantics
//===----------------------------------------------------------------------===//

TEST(FailPointSpec, GrammarAcceptsDocumentedModes) {
  FaultGuard Guard;
  EXPECT_TRUE(failpointsConfigure(""));
  EXPECT_TRUE(failpointsConfigure("tool.write=throw"));
  EXPECT_TRUE(failpointsConfigure("tool.write=throw:once"));
  EXPECT_TRUE(failpointsConfigure("tool.write=throw:nth:3"));
  EXPECT_TRUE(failpointsConfigure("tool.write=throw:every:2"));
  EXPECT_TRUE(failpointsConfigure("tool.write=partial:7"));
  EXPECT_TRUE(failpointsConfigure(
      "tool.write=partial:3,cfg.import=throw:every:2,bench.write=throw"));
  failpointsClear();
}

TEST(FailPointSpec, GrammarRejectsTyposLoudly) {
  FaultGuard Guard;
  struct BadSpec {
    const char *Spec;
    const char *ErrPiece;
  };
  const BadSpec Bad[] = {
      {"nonsense", "not name=mode"},
      {"=throw", "not name=mode"},
      {"not-a-seam=throw", "unknown failpoint"},
      {"tool.write=bogus", "unknown mode"},
      {"tool.write=throw:nth:", "positive count"},
      {"tool.write=throw:nth:0", "positive count"},
      {"tool.write=throw:nth:x", "positive count"},
      {"tool.write=throw:every:0", "positive period"},
      {"tool.write=partial:", "positive byte count"},
      {"tool.write=partial:99999999999999999999", "positive byte count"},
      {"tool.write=throw,oops=throw", "unknown failpoint"},
  };
  for (const BadSpec &S : Bad) {
    std::string Err;
    EXPECT_FALSE(failpointsConfigure(S.Spec, &Err)) << S.Spec;
    EXPECT_NE(Err.find(S.ErrPiece), std::string::npos)
        << S.Spec << " -> " << Err;
    // A rejected spec must leave nothing armed.
    EXPECT_NO_THROW(failpointCheck("tool.write")) << S.Spec;
  }
}

TEST(FailPointSpec, TriggerModesFireOnDocumentedHitsOnly) {
  FaultGuard Guard;
  auto Fires = [] { return failpointEval("cfg.import").K; };

  ASSERT_TRUE(failpointsConfigure("cfg.import=throw"));
  for (int H = 1; H <= 4; ++H)
    EXPECT_EQ(Fires(), FailAction::Kind::Throw) << "hit " << H;

  ASSERT_TRUE(failpointsConfigure("cfg.import=throw:once"));
  EXPECT_EQ(Fires(), FailAction::Kind::Throw);
  for (int H = 2; H <= 4; ++H)
    EXPECT_EQ(Fires(), FailAction::Kind::None) << "hit " << H;

  ASSERT_TRUE(failpointsConfigure("cfg.import=throw:nth:3"));
  EXPECT_EQ(Fires(), FailAction::Kind::None);
  EXPECT_EQ(Fires(), FailAction::Kind::None);
  EXPECT_EQ(Fires(), FailAction::Kind::Throw);
  EXPECT_EQ(Fires(), FailAction::Kind::None);

  ASSERT_TRUE(failpointsConfigure("cfg.import=throw:every:2"));
  EXPECT_EQ(Fires(), FailAction::Kind::None);
  EXPECT_EQ(Fires(), FailAction::Kind::Throw);
  EXPECT_EQ(Fires(), FailAction::Kind::None);
  EXPECT_EQ(Fires(), FailAction::Kind::Throw);
  EXPECT_EQ(failpointHits("cfg.import"), 4u);

  ASSERT_TRUE(failpointsConfigure("cfg.import=partial:5"));
  FailAction A = failpointEval("cfg.import");
  EXPECT_EQ(A.K, FailAction::Kind::Partial);
  EXPECT_EQ(A.Arg, 5u);
  EXPECT_EQ(failpointEval("cfg.import").K, FailAction::Kind::None);

  // An unarmed seam never fires, even while another is armed.
  EXPECT_EQ(failpointEval("bench.write").K, FailAction::Kind::None);
  failpointsClear();
  EXPECT_EQ(failpointEval("cfg.import").K, FailAction::Kind::None);
  EXPECT_EQ(failpointHits("cfg.import"), 0u);
}

TEST(FailPointSpec, CheckThrowsNamedException) {
  FaultGuard Guard;
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

  // Shared fixture the drivers below reuse.
  std::string CfgText = cfggen::generateCfgText(1);
  std::string CfgErr;
  std::optional<cfg::CfgProgram> Cfg = cfg::parseCfg(CfgText, &CfgErr);
  ASSERT_TRUE(Cfg.has_value()) << CfgErr;

  std::set<std::string> Covered;
  for (const std::string &Seam : failpointSeamNames()) {
    ASSERT_TRUE(failpointsConfigure(Seam + "=throw")) << Seam;

    if (Seam == "cfg.import") {
      std::string Err;
      EXPECT_THROW(cfg::importCfg(*Cfg, {}, &Err), FailPointInjected);
      failpointsClear();
      std::optional<cfg::ImportedProgram> IP = cfg::importCfg(*Cfg, {}, &Err);
      EXPECT_TRUE(IP.has_value()) << Err;
    } else if (Seam == "tool.write" || Seam == "bench.write" ||
               Seam == "trace.write" || Seam == "metrics.write") {
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
