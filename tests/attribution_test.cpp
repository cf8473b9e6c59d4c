//===- tests/attribution_test.cpp - per-phase attribution exactness -------==//
//
// Proves the per-phase attribution invariants (docs/observability.md):
//
//   1. Exactness: summed across phases, PhaseStats' instruction, dynamic
//      block, and memory-access totals equal the run's own global counters,
//      bit for bit.
//   2. Export shape: the per-phase JSONL carries one object per phase.
//   3. The crash-time flight recorder: a run killed by an injected fault
//      leaves <out>.crash.json behind, valid JSON, naming the seam that
//      fired and carrying the run provenance.
//
//===----------------------------------------------------------------------==//

#include "callloop/Profile.h"
#include "ir/Lowering.h"
#include "markers/Pipeline.h"
#include "markers/Selector.h"
#include "phase/PhaseStats.h"
#include "support/FlightRecorder.h"
#include "support/Metrics.h"
#include "support/ThreadPool.h"
#include "support/Trace.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

using namespace spm;

namespace {

/// Mid-run cap, same spirit as the engine differential suite: the
/// attribution must balance even when the run stops inside live loop nests.
constexpr uint64_t Cap = 1'000'000;

struct ObsGuard {
  ObsGuard() {
    spmTraceSetEnabled(false);
    traceReset();
    metrics().resetAll();
  }
  ~ObsGuard() {
    spmTraceSetEnabled(false);
    traceReset();
    metrics().resetAll();
  }
};

struct PipelineCase {
  Workload W;
  std::unique_ptr<Binary> B;
  LoopIndex Loops;
  std::unique_ptr<CallLoopGraph> G;
  MarkerSet Markers;
};

PipelineCase makeCase(const std::string &Name) {
  PipelineCase C{WorkloadRegistry::create(Name), nullptr, {}, nullptr, {}};
  C.B = lower(*C.W.Program, LoweringOptions::O2());
  C.Loops = LoopIndex::build(*C.B);
  C.G = buildCallLoopGraph(*C.B, C.Loops, C.W.Ref, Cap);
  SelectorConfig SC;
  C.Markers = selectMarkers(*C.G, SC).Markers;
  return C;
}

/// The production marker driver on the case's ref input, up to Cap.
MarkerRun runWhole(const PipelineCase &C) {
  return runMarkerIntervals(*C.B, C.Loops, *C.G, C.Markers, C.W.Ref,
                            /*CollectBbv=*/false, /*RecordFirings=*/false,
                            Cap);
}

//===----------------------------------------------------------------------===//
// Exactness: per-phase sums equal global counters.
//===----------------------------------------------------------------------===//

class AttributionExact : public ::testing::TestWithParam<const char *> {};

TEST_P(AttributionExact, SumsMatchGlobalCountersEverywhere) {
  ObsGuard Guard;
  PipelineCase C = makeCase(GetParam());
  MarkerRun Run = runWhole(C);
  PhaseStats PS = PhaseStats::fromIntervals(Run.Intervals);
  EXPECT_FALSE(PS.empty());
  PhaseStats::Totals T = PS.totals();
  EXPECT_EQ(T.Instrs, Run.Run.TotalInstrs);
  EXPECT_EQ(T.Blocks, Run.Run.TotalBlocks);
  EXPECT_EQ(T.Mem, Run.Run.TotalMemAccesses);
  EXPECT_EQ(T.Intervals, Run.Intervals.size());
}

INSTANTIATE_TEST_SUITE_P(Workloads, AttributionExact,
                         ::testing::Values("gzip", "mcf", "gcc"));

//===----------------------------------------------------------------------===//
// Export shape.
//===----------------------------------------------------------------------===//

TEST(PhaseStatsExport, JsonlIsOneObjectPerPhase) {
  ObsGuard Guard;
  PipelineCase C = makeCase("gzip");
  MarkerRun Run = runWhole(C);
  PhaseStats PS = PhaseStats::fromIntervals(Run.Intervals);
  ASSERT_FALSE(PS.empty());

  std::istringstream In(PS.toJsonl());
  std::string Line;
  size_t Lines = 0;
  while (std::getline(In, Line)) {
    ++Lines;
    EXPECT_EQ(Line.front(), '{');
    EXPECT_EQ(Line.back(), '}');
    EXPECT_NE(Line.find("\"phase\": "), std::string::npos);
    EXPECT_NE(Line.find("\"instrs\": "), std::string::npos);
    EXPECT_NE(Line.find("\"blocks\": "), std::string::npos);
    EXPECT_NE(Line.find("\"mem\": "), std::string::npos);
    EXPECT_NE(Line.find("\"cpi_cov\": "), std::string::npos);
  }
  EXPECT_EQ(Lines, PS.phases().size());
}

//===----------------------------------------------------------------------===//
// Wall-time attribution: host-dependent in value, but structurally sound.
//===----------------------------------------------------------------------===//

TEST(Attribution, WallTimeIsAccumulatedPerInterval) {
  ObsGuard Guard;
  PipelineCase C = makeCase("gzip");
  MarkerRun Run = runWhole(C);
  ASSERT_FALSE(Run.Intervals.empty());
  // Every interval carried some block executions; wall time is measured per
  // interval and non-negative by construction. At least the run as a whole
  // must have taken observable time.
  uint64_t TotalWall = 0;
  for (const IntervalRecord &Iv : Run.Intervals) {
    EXPECT_GT(Iv.NumBlocks, 0u);
    TotalWall += Iv.WallNs;
  }
  EXPECT_GT(TotalWall, 0u);
}

//===----------------------------------------------------------------------===//
// Flight recorder unit behavior.
//===----------------------------------------------------------------------===//

TEST(FlightRecorder, KeepsLastEventsAndCountsOverwrites) {
  flightRecorderReset();
  for (int I = 0; I < 300; ++I)
    flightRecord("test.event", "n=" + std::to_string(I));
  std::vector<FlightEvent> Evs = flightRecorderEvents();
  ASSERT_EQ(Evs.size(), 256u);
  EXPECT_EQ(flightRecorderOverwritten(), 44u);
  // Oldest-first order, and the newest event is the last one recorded.
  EXPECT_EQ(Evs.front().Detail, "n=44");
  EXPECT_EQ(Evs.back().Detail, "n=299");
  for (size_t I = 1; I < Evs.size(); ++I)
    EXPECT_GE(Evs[I].Ns, Evs[I - 1].Ns);
  flightRecorderReset();
  EXPECT_TRUE(flightRecorderEvents().empty());
}

TEST(FlightRecorder, JsonEscapesHostileDetails) {
  flightRecorderReset();
  flightRecord("test.event", "quote\" slash\\ newline\n tab\t ctrl\x01 end");
  std::string J = flightRecorderToJson();
  EXPECT_NE(J.find("\\\""), std::string::npos);
  EXPECT_NE(J.find("\\\\"), std::string::npos);
  EXPECT_NE(J.find("\\n"), std::string::npos);
  EXPECT_NE(J.find("\\t"), std::string::npos);
  EXPECT_NE(J.find("\\u0001"), std::string::npos);
  // No raw control bytes survive inside the document except the
  // exporter's own inter-element newlines (legal JSON whitespace).
  for (char Ch : J) {
    if (Ch != '\n') {
      EXPECT_GE(static_cast<unsigned char>(Ch), 0x20u);
    }
  }
  flightRecorderReset();
}

TEST(FlightRecorder, CrashDumpJsonCarriesAllSections) {
  ObsGuard Guard;
  flightRecorderReset();
  flightRecord("test.event", "before the crash");
  metrics().counter("test.counter").forceAdd(7);
  std::string J = buildCrashDumpJson("spm_tool", "simulated failure",
                                     "{\"format_version\": 1}");
  EXPECT_NE(J.find("\"format\": \"spm-crash v1\""), std::string::npos);
  EXPECT_NE(J.find("\"error\": \"simulated failure\""), std::string::npos);
  EXPECT_NE(J.find("\"provenance\": {\"format_version\": 1}"),
            std::string::npos);
  EXPECT_NE(J.find("before the crash"), std::string::npos);
  EXPECT_NE(J.find("test.counter"), std::string::npos);
  flightRecorderReset();
}

//===----------------------------------------------------------------------===//
// Crash-dump integration: kill spm_tool at a write seam, read the dump.
//===----------------------------------------------------------------------===//

bool fileExists(const std::string &P) {
  std::ifstream F(P);
  return F.good();
}

std::string slurp(const std::string &P) {
  std::ifstream F(P);
  std::ostringstream SS;
  SS << F.rdbuf();
  return SS.str();
}

TEST(CrashDump, ToolLeavesFlightRecorderDumpOnInjectedFault) {
  // ctest runs test binaries from the build tree; the CLI sits in ../tools
  // relative to tests/ (and ./tools relative to the build root).
  std::string Tool;
  for (const char *Cand : {"../tools/spm_tool", "tools/spm_tool"})
    if (fileExists(Cand)) {
      Tool = Cand;
      break;
    }
  if (Tool.empty())
    GTEST_SKIP() << "spm_tool binary not found next to the test binary";

  // The write seams report errors instead of throwing, so the kill site is
  // the cfg.import failpoint inside `import` — an exception that unwinds
  // all the way out of the command.
  std::string Cfg = "attr_crash.cfg";
  std::string Out = "attr_crash_import.txt";
  std::string Dump = Out + ".crash.json";
  std::remove(Dump.c_str());
  {
    std::ofstream F(Cfg);
    F << "spm-cfg v1\nprogram crash\nfunc 0 main\nentry 0\n"
         "block 0 int=2\nblock 1 int=3\nedge 0 1\n";
  }
  std::string CmdLine = Tool + " import " + Cfg + " -o " + Out +
                        " --failpoints cfg.import=throw >/dev/null 2>&1";
  int Rc = std::system(CmdLine.c_str());
  EXPECT_NE(Rc, 0);
  EXPECT_FALSE(fileExists(Out));
  ASSERT_TRUE(fileExists(Dump)) << "no crash dump at " << Dump;

  std::string J = slurp(Dump);
  EXPECT_NE(J.find("\"format\": \"spm-crash v1\""), std::string::npos);
  EXPECT_NE(J.find("cfg.import"), std::string::npos)
      << "dump does not name the seam that fired";
  EXPECT_NE(J.find("\"flight_recorder\": ["), std::string::npos);
  EXPECT_NE(J.find("\"kind\": \"fault.injected\""), std::string::npos);
  EXPECT_NE(J.find("\"provenance\": {"), std::string::npos);
  EXPECT_NE(J.find("\"command\": \"import\""), std::string::npos);
  EXPECT_NE(J.find("\"metrics\": ["), std::string::npos);
  std::remove(Dump.c_str());
  std::remove(Cfg.c_str());
}

} // namespace
