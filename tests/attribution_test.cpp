//===- tests/attribution_test.cpp - per-phase attribution exactness -------==//
//
// Proves the per-phase attribution invariants (docs/observability.md):
//
//   1. Exactness: summed across phases, PhaseStats' instruction, dynamic
//      block, and memory-access totals equal the run's own global counters —
//      whole or cut into checkpointed segments, bit for bit.
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
#include "support/FailPoint.h"
#include "support/FlightRecorder.h"
#include "support/Metrics.h"
#include "support/ThreadPool.h"
#include "support/Trace.h"
#include "workloads/Workloads.h"

#include "DiffHarness.h"

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

/// Mid-run cap, same spirit as the engine/segment differential suites: the
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

/// Canonical string of the attribution's deterministic content: per phase
/// the interval count and integer totals. WallNs is host time and PerfAgg
/// CPI moments follow from the counters, so this is the full byte-compare
/// surface for cross-segment identity.
std::string dumpAttribution(const PhaseStats &PS) {
  std::string Out;
  char Buf[160];
  for (const auto &[Id, A] : PS.phases()) {
    std::snprintf(Buf, sizeof(Buf), "p %d %llu %llu %llu %llu %llu %llu\n",
                  Id, (unsigned long long)A.Intervals,
                  (unsigned long long)A.Instrs, (unsigned long long)A.Blocks,
                  (unsigned long long)A.Mem,
                  (unsigned long long)A.Perf.BaseCycles,
                  (unsigned long long)A.Perf.L1Misses);
    Out += Buf;
  }
  return Out;
}

/// One segment-count configuration of a marker run.
struct RunConfig {
  const char *Label;
  unsigned Segments;
};

/// One segment runs the production driver; more run the serial segment
/// chain (DiffHarness.h) cut at even boundaries.
MarkerRun runConfigured(const PipelineCase &C, const RunConfig &Cfg) {
  if (Cfg.Segments == 1)
    return runMarkerIntervals(*C.B, C.Loops, *C.G, C.Markers, C.W.Ref,
                              /*CollectBbv=*/false, /*RecordFirings=*/false,
                              Cap);
  return difftest::runSegmentChain(
      [&] {
        return std::make_unique<difftest::MarkerStack>(
            *C.B, C.Loops, *C.G, C.Markers, C.W.Ref, /*CollectBbv=*/false);
      },
      difftest::evenBoundaries(difftest::runLength(*C.B, C.W.Ref, Cap),
                               Cfg.Segments, Cap),
      Cfg.Label);
}

const RunConfig AllConfigs[] = {{"whole", 1}, {"segments/3", 3}};

//===----------------------------------------------------------------------===//
// Exactness: per-phase sums equal global counters at every segment count,
// and the attribution is bit-identical across all of them.
//===----------------------------------------------------------------------===//

class AttributionExact : public ::testing::TestWithParam<const char *> {};

TEST_P(AttributionExact, SumsMatchGlobalCountersEverywhere) {
  ObsGuard Guard;
  PipelineCase C = makeCase(GetParam());
  std::string Reference;
  for (const RunConfig &Cfg : AllConfigs) {
    MarkerRun Run = runConfigured(C, Cfg);
    PhaseStats PS = PhaseStats::fromIntervals(Run.Intervals);
    PhaseStats::Totals T = PS.totals();
    EXPECT_EQ(T.Instrs, Run.Run.TotalInstrs) << Cfg.Label;
    EXPECT_EQ(T.Blocks, Run.Run.TotalBlocks) << Cfg.Label;
    EXPECT_EQ(T.Mem, Run.Run.TotalMemAccesses) << Cfg.Label;
    EXPECT_EQ(T.Intervals, Run.Intervals.size()) << Cfg.Label;
    std::string Dump = dumpAttribution(PS);
    if (Reference.empty())
      Reference = Dump;
    else
      EXPECT_EQ(Dump, Reference) << Cfg.Label;
  }
  EXPECT_FALSE(Reference.empty());
}

INSTANTIATE_TEST_SUITE_P(Workloads, AttributionExact,
                         ::testing::Values("gzip", "mcf", "gcc"));

//===----------------------------------------------------------------------===//
// Export shape.
//===----------------------------------------------------------------------===//

TEST(PhaseStatsExport, JsonlIsOneObjectPerPhase) {
  ObsGuard Guard;
  PipelineCase C = makeCase("gzip");
  MarkerRun Run = runConfigured(C, AllConfigs[0]);
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
  MarkerRun Run = runConfigured(C, AllConfigs[0]);
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
  if (!failpointsCompiledIn())
    GTEST_SKIP() << "needs an SPM_FAILPOINTS=ON build";
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

  // Produce a marker file the throwing leg can consume. The write seams
  // report errors instead of throwing, so the kill site is the
  // ckpt.serialize failpoint inside `checkpoint save` — an exception that
  // unwinds all the way out of the command.
  std::string Prof = "attr_crash_prof.txt";
  std::string Mk = "attr_crash_markers.txt";
  std::string Out = "attr_crash_ckpt.bin";
  std::string Dump = Out + ".crash.json";
  std::remove(Dump.c_str());
  ASSERT_EQ(std::system((Tool + " profile gzip -o " + Prof +
                         " >/dev/null 2>&1")
                            .c_str()),
            0);
  ASSERT_EQ(std::system((Tool + " select " + Prof + " -o " + Mk +
                         " >/dev/null 2>&1")
                            .c_str()),
            0);
  std::string CmdLine = Tool + " checkpoint save gzip " + Mk +
                        " --at 200000 -o " + Out +
                        " --failpoints ckpt.serialize=throw >/dev/null 2>&1";
  int Rc = std::system(CmdLine.c_str());
  EXPECT_NE(Rc, 0);
  ASSERT_TRUE(fileExists(Dump)) << "no crash dump at " << Dump;

  std::string J = slurp(Dump);
  EXPECT_NE(J.find("\"format\": \"spm-crash v1\""), std::string::npos);
  EXPECT_NE(J.find("ckpt.serialize"), std::string::npos)
      << "dump does not name the seam that fired";
  EXPECT_NE(J.find("\"flight_recorder\": ["), std::string::npos);
  EXPECT_NE(J.find("\"kind\": \"fault.injected\""), std::string::npos);
  EXPECT_NE(J.find("\"provenance\": {"), std::string::npos);
  EXPECT_NE(J.find("\"command\": \"checkpoint\""), std::string::npos);
  EXPECT_NE(J.find("\"metrics\": ["), std::string::npos);
  std::remove(Dump.c_str());
  std::remove(Prof.c_str());
  std::remove(Mk.c_str());
}

} // namespace
