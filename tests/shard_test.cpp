//===- tests/shard_test.cpp - checkpoint segment differential tests -------==//
//
// Proves that cutting one deterministic run into checkpointed segments is
// invisible in its outputs. Through the serial segment chain of
// DiffHarness.h — every segment a fresh interpreter and observer stack
// resumed from the previous boundary's serialized checkpoint — call-loop
// graph dumps, marker interval streams and firing traces, and fixed-
// interval BBV streams must equal the uninterrupted drivers' for 1, 2, 3
// and 7 segments, and whole-run cache counters must survive perf-model
// state transfer. A tracker restored mid-run must keep profiling into the
// same graph byte-identically. Also covers checkpoint round-trips through
// the versioned binary format, negative parsing paths, structural frame
// validation, and a seeded random-boundary fuzz over the segment chain.
// Generated programs (tests/IrGen.h) and hand-built degenerate shapes run
// the same contract: run() and runFast emit identical streams, a
// serialized segment chain cut at random boundaries reproduces the
// uninterrupted run, and every boundary checkpoint re-serializes to the
// bytes it was parsed from.
//
//===----------------------------------------------------------------------==//

#include "callloop/Profile.h"
#include "ir/Builder.h"
#include "ir/Lowering.h"
#include "markers/Checkpoint.h"
#include "markers/Pipeline.h"
#include "markers/Selector.h"
#include "workloads/Workloads.h"

#include "CkptTestUtil.h"
#include "DiffHarness.h"
#include "IrGen.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <vector>

using namespace spm;
using namespace spm::difftest;

namespace {

/// Same cap as engine_test: truncates every workload mid-run, so segment
/// boundaries land in live loop/call nests and the final segment exercises
/// the limit-hit path.
constexpr uint64_t Cap = 1'500'000;

/// Segment counts under test. 1 is the chain's degenerate whole run; 7
/// does not divide anything evenly, so boundaries fall at ragged positions.
const unsigned SegmentCounts[] = {1, 2, 3, 7};

struct RunCase {
  std::string Name;
  WorkloadInput In;
};

std::vector<RunCase> differentialCases() {
  std::vector<RunCase> Cases;
  std::vector<std::string> Names = WorkloadRegistry::allNames();
  for (size_t I = 0; I < Names.size() && I < 3; ++I) {
    Workload W = WorkloadRegistry::create(Names[I]);
    Cases.push_back({Names[I] + "/seed0", W.Ref});
    WorkloadInput Other = W.Ref;
    Other.setSeed(W.Ref.seed() + 1);
    Cases.push_back({Names[I] + "/seed1", Other});
  }
  return Cases;
}

} // namespace

//===----------------------------------------------------------------------===//
// Differential: segment chains vs uninterrupted drivers
//===----------------------------------------------------------------------===//

// Call-loop graph dump: legacy run() + listener profiling vs a chain whose
// segments all profile into one graph, for every segment count.
// Byte-identical dumps prove the restored trackers record traversals in
// the exact global traversal-end order, including each traversal split
// across a boundary (closed by the segment that pops its frame, with the
// partial count carried in the checkpoint).
TEST(ShardDifferential, CallLoopGraphDump) {
  for (const RunCase &RC : differentialCases()) {
    Workload W =
        WorkloadRegistry::create(RC.Name.substr(0, RC.Name.find('/')));
    auto B = lower(*W.Program, LoweringOptions::O2());
    LoopIndex Loops = LoopIndex::build(*B);

    CallLoopGraph Legacy(*B, Loops);
    {
      CallLoopTracker T(*B, Loops, Legacy);
      GraphProfiler Prof(Legacy);
      T.addListener(&Prof);
      Interpreter(*B, RC.In).run(T, Cap);
      Legacy.finalize();
    }
    std::string Ref = printGraph(Legacy);
    ASSERT_FALSE(Ref.empty()) << RC.Name;
    uint64_t Total = runLength(*B, RC.In, Cap);

    for (unsigned N : SegmentCounts) {
      std::string Ctx = RC.Name + " segments=" + std::to_string(N);
      CallLoopGraph G(*B, Loops);
      runSegmentChain(
          [&] {
            return std::make_unique<GraphStack>(*B, Loops, G, RC.In);
          },
          evenBoundaries(Total, N, Cap), Ctx);
      G.finalize();
      EXPECT_EQ(Ref, printGraph(G)) << Ctx;
    }
  }
}

// Marker-cut intervals, firing trace, and run totals: the full pipeline
// stack through a segment chain must reproduce runMarkerIntervals exactly —
// intervals carry BBVs and perf-counter deltas, so this also transitively
// checks cache and predictor state restoration.
TEST(ShardDifferential, MarkerIntervalsAndFirings) {
  for (const RunCase &RC : differentialCases()) {
    Workload W =
        WorkloadRegistry::create(RC.Name.substr(0, RC.Name.find('/')));
    auto B = lower(*W.Program, LoweringOptions::O2());
    LoopIndex Loops = LoopIndex::build(*B);
    auto G = buildCallLoopGraph(*B, Loops, RC.In, Cap);
    SelectorConfig SC;
    SelectionResult Sel = selectMarkers(*G, SC);
    if (Sel.Markers.empty())
      continue; // Nothing to differentiate on this input.

    MarkerRun Ref =
        runMarkerIntervals(*B, Loops, *G, Sel.Markers, RC.In,
                           /*CollectBbv=*/true, /*RecordFirings=*/true, Cap);

    for (unsigned N : SegmentCounts) {
      std::string Ctx = RC.Name + " segments=" + std::to_string(N);
      MarkerRun Got = runSegmentChain(
          [&] {
            return std::make_unique<MarkerStack>(*B, Loops, *G, Sel.Markers,
                                                 RC.In);
          },
          evenBoundaries(Ref.Run.TotalInstrs, N, Cap), Ctx);
      expectSameMarkerRun(Ref, Got, Ctx);
    }
  }
}

// Fixed-length intervals with BBVs: a boundary almost never coincides with
// an interval cut, so every inner segment starts inside an open interval —
// the carried partial BBV and counter snapshot must stitch it seamlessly.
TEST(ShardDifferential, FixedIntervalsAndBbv) {
  constexpr uint64_t Len = 100'000;
  for (const RunCase &RC : differentialCases()) {
    Workload W =
        WorkloadRegistry::create(RC.Name.substr(0, RC.Name.find('/')));
    auto B = lower(*W.Program, LoweringOptions::O2());

    std::vector<IntervalRecord> Ref =
        runFixedIntervals(*B, RC.In, Len, /*CollectBbv=*/true, Cap);
    uint64_t Total = runLength(*B, RC.In, Cap);

    for (unsigned N : SegmentCounts) {
      std::string Ctx = RC.Name + " segments=" + std::to_string(N);
      MarkerRun Got = runSegmentChain(
          [&] {
            return std::make_unique<FixedStack>(*B, RC.In, Len);
          },
          evenBoundaries(Total, N, Cap), Ctx);
      expectSameIntervals(Ref, Got.Intervals, Ctx);
    }
  }
}

// Whole-run cache statistics across a segmented run: each segment runs a
// *fresh* PerfModel restored from the previous segment's saved state, so
// tag arrays, LRU stamps, and predictor counters must transfer exactly.
TEST(ShardDifferential, CacheCountersAcrossSegments) {
  for (const RunCase &RC : differentialCases()) {
    Workload W =
        WorkloadRegistry::create(RC.Name.substr(0, RC.Name.find('/')));
    auto B = lower(*W.Program, LoweringOptions::O2());

    PerfModel Full;
    RunResult RefR = Interpreter(*B, RC.In).runFast(Full, Cap);

    for (unsigned N : SegmentCounts) {
      std::string Ctx = RC.Name + " segments=" + std::to_string(N);
      std::vector<uint64_t> Until = evenBoundaries(RefR.TotalInstrs, N, Cap);

      PerfModelState St;
      InterpCheckpoint Cks[2];
      const InterpCheckpoint *From = nullptr;
      RunResult R;
      PerfCounters Final;
      for (size_t S = 0; S < Until.size(); ++S) {
        PerfModel P;
        if (S > 0) {
          ASSERT_TRUE(P.restoreState(St)) << Ctx;
        }
        Interpreter Interp(*B, RC.In);
        InterpCheckpoint *Out =
            S + 1 < Until.size() ? &Cks[S % 2] : nullptr;
        R = Interp.runFastSegment(P, From, Until[S], Out);
        St = P.saveState();
        Final = P.counters();
        From = Out;
      }
      expectSameRun(RefR, R, Ctx);
      expectSameCounters(Full.counters(), Final, Ctx);
    }
  }
}

// A tracker restored from a mid-run saveState keeps profiling into the
// graph the first segment profiled into: two segments, one graph, and the
// dump must be byte-identical to buildCallLoopGraph's — every edge's count,
// mean, CoV and max, because the restored tracker closes the
// boundary-spanning traversals with their carried partial counts, in the
// uninterrupted run's order.
TEST(ShardGraph, TrackerStateCarriesOneGraphAcrossBoundary) {
  Workload W = WorkloadRegistry::create("gzip");
  auto B = lower(*W.Program, LoweringOptions::O2());
  LoopIndex Loops = LoopIndex::build(*B);

  std::string Ref = printGraph(*buildCallLoopGraph(*B, Loops, W.Ref, Cap));
  uint64_t Mid = runLength(*B, W.Ref, Cap) / 2;

  CallLoopGraph G(*B, Loops);
  InterpCheckpoint C;
  TrackerCheckpoint TC;
  {
    CallLoopTracker T(*B, Loops, G);
    T.setProfileTarget(&G);
    T.onRunStart(*B, W.Ref);
    Interpreter(*B, W.Ref).runFastSegment(T, nullptr, Mid, &C);
    TC = T.saveState();
  }
  ASSERT_FALSE(TC.Stack.empty()) << "boundary fell outside every frame";
  {
    CallLoopTracker T(*B, Loops, G);
    T.setProfileTarget(&G);
    ASSERT_TRUE(T.restoreState(TC));
    RunResult R = Interpreter(*B, W.Ref).runFastSegment(T, &C, Cap);
    T.onRunEnd(R.TotalInstrs);
  }
  G.finalize();
  EXPECT_EQ(Ref, printGraph(G));
}

//===----------------------------------------------------------------------===//
// Checkpoint round-trip through the binary format
//===----------------------------------------------------------------------===//

// save -> serialize -> parse -> restore -> resume must equal never having
// stopped: the serialized checkpoint drives a completely fresh pipeline
// stack for the second half of the run, and the concatenated outputs must
// match the uninterrupted driver byte for byte. Re-serializing the parsed
// checkpoint must reproduce the saved bytes exactly.
TEST(ShardCheckpoint, SerializedRoundTripResumesExactly) {
  for (const RunCase &RC : differentialCases()) {
    Workload W =
        WorkloadRegistry::create(RC.Name.substr(0, RC.Name.find('/')));
    auto B = lower(*W.Program, LoweringOptions::O2());
    LoopIndex Loops = LoopIndex::build(*B);
    auto G = buildCallLoopGraph(*B, Loops, RC.In, Cap);
    SelectorConfig SC;
    SelectionResult Sel = selectMarkers(*G, SC);
    if (Sel.Markers.empty())
      continue;

    MarkerRun Ref =
        runMarkerIntervals(*B, Loops, *G, Sel.Markers, RC.In,
                           /*CollectBbv=*/true, /*RecordFirings=*/true, Cap);
    uint64_t Mid = Ref.Run.TotalInstrs / 2;
    ASSERT_GT(Mid, 0u) << RC.Name;

    MarkerRun Got;
    std::string Bytes;
    {
      MarkerStack S(*B, Loops, *G, Sel.Markers, RC.In);
      Bytes = runChainSegment(S, "", Mid, /*Last=*/false, Got, RC.Name);
    }
    // Segments suspend at the first block boundary at or past Mid.
    EXPECT_GE(Got.Run.TotalInstrs, Mid) << RC.Name;
    EXPECT_LT(Got.Run.TotalInstrs, Ref.Run.TotalInstrs) << RC.Name;

    std::string Err;
    std::optional<PipelineCheckpoint> Parsed = parseCheckpoint(Bytes, &Err);
    ASSERT_TRUE(Parsed.has_value()) << RC.Name << ": " << Err;
    EXPECT_EQ(Parsed->Seed, RC.In.seed()) << RC.Name;
    EXPECT_FALSE(Parsed->Interp.Frames.empty()) << RC.Name;
    EXPECT_EQ(serializeCheckpoint(*Parsed), Bytes) << RC.Name;

    {
      MarkerStack S(*B, Loops, *G, Sel.Markers, RC.In);
      runChainSegment(S, Bytes, Cap, /*Last=*/true, Got, RC.Name);
    }
    expectSameMarkerRun(Ref, Got, RC.Name);
  }
}

//===----------------------------------------------------------------------===//
// Negative paths: the parser must reject anything it cannot prove whole
//===----------------------------------------------------------------------===//

namespace {

/// A small but fully-populated checkpoint for corruption tests.
PipelineCheckpoint sampleCheckpoint() {
  PipelineCheckpoint C;
  C.Seed = 42;
  C.Interp.TotalInstrs = 1000;
  C.Interp.TotalBlocks = 100;
  C.Interp.TotalMemAccesses = 50;
  C.Interp.Rand.S[0] = 1;
  C.Interp.SeqPos = {1, 2, 3};
  ResumeFrame F;
  F.K = ResumeFrame::Kind::Func;
  F.Step = ResumeFrame::StepBody;
  C.Interp.Frames.push_back(F);
  C.HasMarkers = true;
  C.Markers.GroupCounter = {7, 8};
  C.Markers.Fired = 2;
  return C;
}

} // namespace

TEST(ShardCheckpoint, ParseRejectsTruncation) {
  std::string Bytes = serializeCheckpoint(sampleCheckpoint());
  // Every strict prefix must fail: the format has no optional tail.
  for (size_t Len = 0; Len < Bytes.size(); ++Len) {
    std::string Err;
    EXPECT_FALSE(parseCheckpoint(Bytes.substr(0, Len), &Err).has_value())
        << "prefix of length " << Len << " parsed";
    EXPECT_FALSE(Err.empty()) << "no error for prefix " << Len;
  }
  // The untouched original still parses.
  EXPECT_TRUE(parseCheckpoint(Bytes).has_value());
}

TEST(ShardCheckpoint, ParseRejectsBadMagic) {
  std::string Bytes = serializeCheckpoint(sampleCheckpoint());
  std::string Bad = Bytes;
  Bad[0] = 'X';
  std::string Err;
  EXPECT_FALSE(parseCheckpoint(Bad, &Err).has_value());
  EXPECT_NE(Err.find("magic"), std::string::npos) << Err;
}

TEST(ShardCheckpoint, ParseRejectsWrongVersion) {
  std::string Bytes = serializeCheckpoint(sampleCheckpoint());
  std::string Bad = Bytes;
  Bad[8] = static_cast<char>(PipelineCheckpoint::Version + 1); // LE u32.
  std::string Err;
  EXPECT_FALSE(parseCheckpoint(Bad, &Err).has_value());
  EXPECT_NE(Err.find("version"), std::string::npos) << Err;
}

TEST(ShardCheckpoint, ParseRejectsTrailingGarbage) {
  std::string Bytes = serializeCheckpoint(sampleCheckpoint());
  {
    // A raw appended byte trips the whole-file CRC before anything else.
    std::string Err;
    EXPECT_FALSE(parseCheckpoint(Bytes + '\0', &Err).has_value());
    EXPECT_NE(Err.find("ckpt[crc:file]"), std::string::npos) << Err;
  }
  {
    // With the trailer resealed over the stray byte, the parser itself
    // must still reject the surplus.
    std::string Bad = Bytes;
    Bad.insert(Bad.size() - ckptutil::TrailerSize, 1, '\0');
    ckptutil::resealFile(Bad);
    std::string Err;
    EXPECT_FALSE(parseCheckpoint(Bad, &Err).has_value());
    EXPECT_NE(Err.find("trailing"), std::string::npos) << Err;
  }
}

TEST(ShardCheckpoint, ParseRejectsCorruptFrameKindStepAndBool) {
  // Structural validation must survive an attacker who reseals the CRCs:
  // corrupt a field inside the interp payload, recompute both checksums,
  // and the strict parsers still have to name the damage. Interp payload
  // layout: totals(24) rng S(32) spare(8) -> HaveSpare bool at 64, then
  // six empty-vector counts (6*8) and the frame count (8) put the first
  // frame's kind byte at 121 for a minimal checkpoint with empty vectors.
  PipelineCheckpoint C;
  ResumeFrame F;
  F.K = ResumeFrame::Kind::Loop;
  F.Step = ResumeFrame::StepBody;
  C.Interp.Frames.push_back(F);
  std::string Bytes = serializeCheckpoint(C);
  ckptutil::SectionSpan Interp = ckptutil::sections(Bytes).at(0);

  const size_t HaveSpareOff = Interp.PayloadOff + ckptutil::InterpHaveSpareOff;
  const size_t FrameKindOff =
      Interp.PayloadOff + ckptutil::InterpHaveSpareOff + 1 + 6 * 8 + 8;
  const size_t FrameStepOff = FrameKindOff + 1;

  auto Corrupt = [&](size_t Off, char V) {
    std::string Bad = Bytes;
    Bad[Off] = V;
    ckptutil::resealSection(Bad, Interp);
    return Bad;
  };
  {
    std::string Err;
    EXPECT_FALSE(
        parseCheckpoint(Corrupt(HaveSpareOff, 2), &Err).has_value());
    EXPECT_NE(Err.find("boolean"), std::string::npos) << Err;
  }
  {
    std::string Err;
    EXPECT_FALSE(
        parseCheckpoint(Corrupt(FrameKindOff, 17), &Err).has_value());
    EXPECT_NE(Err.find("frame kind"), std::string::npos) << Err;
  }
  {
    std::string Err;
    EXPECT_FALSE(
        parseCheckpoint(Corrupt(FrameStepOff, 7), &Err).has_value());
    EXPECT_NE(Err.find("frame step"), std::string::npos) << Err;
  }
}

TEST(ShardCheckpoint, RoundTripPreservesEverySection) {
  PipelineCheckpoint C = sampleCheckpoint();
  C.HasTracker = true;
  TrackerCheckpoint::FrameState TF;
  TF.K = 1;
  TF.Node = 3;
  TF.Hier = 99;
  C.Tracker.Stack.push_back(TF);
  C.Tracker.ActiveDepth = {1, 0};
  C.HasInterval = true;
  C.Interval.StartInstr = 500;
  C.Interval.CurInstrs = 123;
  C.Interval.CurBlocks = 17;
  C.Interval.CurMem = 456;
  C.Interval.PendingCut = true;
  C.Interval.PendingPhase = 4;
  C.Interval.Partial = {{2, 10.0}, {5, 1.5}};
  C.HasPerf = true;
  C.Perf.C.Instrs = 1000;
  C.Perf.DL1.Tags = {11, 22};
  C.Perf.DL1.Stamps = {1, 2};
  C.Perf.DL1.Clock = 7;
  C.Perf.HasL2 = true;
  C.Perf.L2.Tags = {33};
  C.Perf.L2.Stamps = {3};
  C.Perf.Bp.Counters = {0, 1, 2, 3};
  C.Perf.Bp.Branches = 40;
  C.Perf.Bp.Mispredicts = 4;

  std::string Err;
  std::optional<PipelineCheckpoint> P =
      parseCheckpoint(serializeCheckpoint(C), &Err);
  ASSERT_TRUE(P.has_value()) << Err;
  EXPECT_EQ(P->Seed, C.Seed);
  ASSERT_EQ(P->Interp.Frames.size(), C.Interp.Frames.size());
  EXPECT_TRUE(P->Interp.Frames[0] == C.Interp.Frames[0]);
  EXPECT_EQ(P->Interp.SeqPos, C.Interp.SeqPos);
  ASSERT_TRUE(P->HasTracker);
  ASSERT_EQ(P->Tracker.Stack.size(), 1u);
  EXPECT_EQ(P->Tracker.Stack[0].Node, TF.Node);
  EXPECT_EQ(P->Tracker.Stack[0].Hier, TF.Hier);
  EXPECT_EQ(P->Tracker.ActiveDepth, C.Tracker.ActiveDepth);
  ASSERT_TRUE(P->HasInterval);
  EXPECT_EQ(P->Interval.StartInstr, C.Interval.StartInstr);
  EXPECT_EQ(P->Interval.CurInstrs, C.Interval.CurInstrs);
  EXPECT_EQ(P->Interval.CurBlocks, C.Interval.CurBlocks);
  EXPECT_EQ(P->Interval.CurMem, C.Interval.CurMem);
  EXPECT_EQ(P->Interval.PendingCut, C.Interval.PendingCut);
  EXPECT_EQ(P->Interval.Partial, C.Interval.Partial);
  ASSERT_TRUE(P->HasPerf);
  EXPECT_EQ(P->Perf.DL1.Tags, C.Perf.DL1.Tags);
  EXPECT_EQ(P->Perf.DL1.Clock, C.Perf.DL1.Clock);
  ASSERT_TRUE(P->Perf.HasL2);
  EXPECT_EQ(P->Perf.L2.Tags, C.Perf.L2.Tags);
  EXPECT_EQ(P->Perf.Bp.Counters, C.Perf.Bp.Counters);
  ASSERT_TRUE(P->HasMarkers);
  EXPECT_EQ(P->Markers.GroupCounter, C.Markers.GroupCounter);
  EXPECT_EQ(P->Markers.Fired, C.Markers.Fired);
}

//===----------------------------------------------------------------------===//
// Structural validation of deserialized frame stacks
//===----------------------------------------------------------------------===//

TEST(ShardCheckpoint, ValidateForRejectsStructuralNonsense) {
  Workload W = WorkloadRegistry::create("gzip");
  auto B = lower(*W.Program, LoweringOptions::O2());

  // A genuine mid-run checkpoint passes.
  InterpCheckpoint Good;
  {
    NullObs O;
    Interpreter Interp(*B, W.Ref);
    RunResult R = Interp.runFast(O, Cap);
    Interpreter Interp2(*B, W.Ref);
    Interp2.runFastSegment(O, nullptr, R.TotalInstrs / 2, &Good);
  }
  std::string Err;
  ASSERT_TRUE(Good.validateFor(*B, &Err)) << Err;
  ASSERT_FALSE(Good.Frames.empty());

  // Outermost frame must be main's Func frame.
  {
    InterpCheckpoint Bad = Good;
    Bad.Frames[0].Id = 1;
    EXPECT_FALSE(Bad.validateFor(*B, &Err));
  }
  {
    InterpCheckpoint Bad = Good;
    Bad.Frames[0].K = ResumeFrame::Kind::Loop;
    EXPECT_FALSE(Bad.validateFor(*B, &Err));
  }
  // Truncated frame stack: the walk must consume every frame.
  {
    InterpCheckpoint Bad = Good;
    Bad.Frames.push_back(Bad.Frames.back());
    EXPECT_FALSE(Bad.validateFor(*B, &Err));
  }
  // Per-site vector shape mismatch.
  {
    InterpCheckpoint Bad = Good;
    Bad.SeqPos.push_back(0);
    EXPECT_FALSE(Bad.validateFor(*B, &Err));
    EXPECT_FALSE(Err.empty());
  }
  {
    InterpCheckpoint Bad = Good;
    Bad.RRCursor.clear();
    EXPECT_FALSE(Bad.validateFor(*B, &Err));
  }
}

//===----------------------------------------------------------------------===//
// Randomized segment-boundary fuzz
//===----------------------------------------------------------------------===//

// Twenty seeded random boundary sets, each splitting the run into up to
// nine segments at arbitrary positions (mid-loop, mid-call — wherever the
// draw lands). Each segment resumes in a FRESH interpreter instance from
// the previous checkpoint; the concatenated event stream and final totals
// must equal the uninterrupted run. Both the devirtualized and the
// virtual-dispatch segment paths are driven.
TEST(ShardFuzz, RandomBoundariesPreserveEventStream) {
  constexpr uint64_t FuzzCap = 300'000;
  Workload W = WorkloadRegistry::create("gzip");
  auto B = lower(*W.Program, LoweringOptions::O2());

  RecordingObserver Ref;
  RunResult RefR = Interpreter(*B, W.Ref).runFast(Ref, FuzzCap);
  uint64_t Total = RefR.TotalInstrs;
  ASSERT_GT(Total, 10u);

  Rng Rand(0xf00dULL);
  for (int Round = 0; Round < 20; ++Round) {
    // 1..8 boundaries; duplicates allowed (zero-length segments must be
    // harmless pass-throughs).
    size_t NBounds = 1 + Rand.nextBelow(8);
    std::vector<uint64_t> Until;
    for (size_t I = 0; I < NBounds; ++I)
      Until.push_back(1 + Rand.nextBelow(Total - 1));
    std::sort(Until.begin(), Until.end());
    Until.push_back(FuzzCap);
    std::string Ctx = "round " + std::to_string(Round);

    // Devirtualized path.
    {
      RecordingObserver Got;
      InterpCheckpoint Cks[2];
      const InterpCheckpoint *From = nullptr;
      RunResult R;
      for (size_t S = 0; S < Until.size(); ++S) {
        Interpreter Interp(*B, W.Ref);
        InterpCheckpoint *Out =
            S + 1 < Until.size() ? &Cks[S % 2] : nullptr;
        R = Interp.runFastSegment(Got, From, Until[S], Out);
        if (Out) {
          std::string Err;
          ASSERT_TRUE(Out->validateFor(*B, &Err))
              << Ctx << " segment " << S << ": " << Err;
        }
        From = Out;
      }
      expectSameRun(RefR, R, Ctx + " (fast)");
      ASSERT_EQ(Ref.Events.size(), Got.Events.size()) << Ctx << " (fast)";
      EXPECT_TRUE(Ref.Events == Got.Events) << Ctx << " (fast)";
    }

    // Virtual-dispatch path.
    {
      RecordingObserver Got;
      InterpCheckpoint Cks[2];
      const InterpCheckpoint *From = nullptr;
      RunResult R;
      for (size_t S = 0; S < Until.size(); ++S) {
        Interpreter Interp(*B, W.Ref);
        InterpCheckpoint *Out =
            S + 1 < Until.size() ? &Cks[S % 2] : nullptr;
        R = Interp.runFastSegment(static_cast<ExecutionObserver &>(Got),
                                  From, Until[S], Out);
        From = Out;
      }
      expectSameRun(RefR, R, Ctx + " (virtual)");
      ASSERT_EQ(Ref.Events.size(), Got.Events.size()) << Ctx
                                                      << " (virtual)";
      EXPECT_TRUE(Ref.Events == Got.Events) << Ctx << " (virtual)";
    }
  }
}

// A boundary exactly at the end of the run: the next segment must be a
// no-op that reports Finished, and resuming past the end must not emit
// any events.
TEST(ShardFuzz, BoundaryAtRunEndResumesToNothing) {
  Workload W = WorkloadRegistry::create("gzip");
  auto B = lower(*W.Program, LoweringOptions::O2());
  constexpr uint64_t FuzzCap = 200'000;

  RecordingObserver Ref;
  RunResult RefR = Interpreter(*B, W.Ref).runFast(Ref, FuzzCap);

  RecordingObserver Got;
  InterpCheckpoint C1;
  Interpreter(*B, W.Ref).runFastSegment(Got, nullptr, FuzzCap, &C1);
  size_t EventsAfterFull = Got.Events.size();
  EXPECT_TRUE(Ref.Events == Got.Events);

  // Resume at the cap: zero-length segment, nothing new.
  InterpCheckpoint C2;
  Interpreter Interp2(*B, W.Ref);
  RunResult R2 = Interp2.runFastSegment(Got, &C1, FuzzCap, &C2);
  EXPECT_EQ(Got.Events.size(), EventsAfterFull);
  expectSameRun(RefR, R2, "zero-length resume");
  EXPECT_EQ(C1.TotalInstrs, C2.TotalInstrs);
}

//===----------------------------------------------------------------------===//
// Generated and degenerate programs
//===----------------------------------------------------------------------===//

namespace {

/// Runs \p B on \p In as a chain of runFastSegment calls cut at \p Until
/// (ascending; the last is the cap), each segment a fresh interpreter
/// resumed from the previous boundary's checkpoint as parsed back from its
/// spmckpt bytes. Each parsed checkpoint must validate against \p B and
/// re-serialize to exactly the bytes it was parsed from. The concatenated
/// event stream and the final totals must equal an uninterrupted runFast
/// capped at the last boundary. Returns the number of boundaries that
/// suspended mid-run.
size_t expectSerializedChainMatchesRun(const Binary &B,
                                       const WorkloadInput &In,
                                       const std::vector<uint64_t> &Until,
                                       const std::string &Ctx) {
  RecordingObserver Ref;
  RunResult RefR = Interpreter(B, In).runFast(Ref, Until.back());

  RecordingObserver Got;
  RunResult R;
  size_t Suspended = 0;
  std::optional<PipelineCheckpoint> Prev;
  for (size_t S = 0; S < Until.size(); ++S) {
    std::string SCtx = Ctx + " segment " + std::to_string(S);
    PipelineCheckpoint C;
    C.Seed = In.seed();
    R = Interpreter(B, In).runFastSegment(
        Got, Prev ? &Prev->Interp : nullptr, Until[S], &C.Interp);
    if (!C.Interp.Finished && !C.Interp.Frames.empty())
      ++Suspended;
    std::string Bytes = serializeCheckpoint(C);
    std::string Err;
    Prev = parseCheckpoint(Bytes, &Err);
    EXPECT_TRUE(Prev.has_value()) << SCtx << ": " << Err;
    if (!Prev)
      return Suspended;
    EXPECT_EQ(serializeCheckpoint(*Prev), Bytes) << SCtx;
    EXPECT_TRUE(Prev->Interp.Frames == C.Interp.Frames) << SCtx;
    EXPECT_TRUE(Prev->Interp.validateFor(B, &Err)) << SCtx << ": " << Err;
  }
  expectSameRun(RefR, R, Ctx);
  EXPECT_EQ(Ref.Events.size(), Got.Events.size()) << Ctx;
  EXPECT_TRUE(Ref.Events == Got.Events) << Ctx;
  return Suspended;
}

/// 2-5 segments with boundaries drawn across the uninterrupted length
/// (at least 1, so zero-length programs still cross the boundary paths);
/// the last boundary is FuzzCap.
std::vector<uint64_t> randomBoundaries(const Binary &B,
                                       const WorkloadInput &In,
                                       uint64_t RngSeed) {
  Rng R(splitMix64(RngSeed));
  uint64_t Len = std::max<uint64_t>(runLength(B, In, FuzzCap), 1);
  std::vector<uint64_t> Until;
  uint64_t NumSegs = 2 + R.nextBelow(4);
  for (uint64_t S = 0; S + 1 < NumSegs; ++S)
    Until.push_back(1 + R.nextBelow(Len));
  std::sort(Until.begin(), Until.end());
  Until.push_back(FuzzCap);
  return Until;
}

/// The three-way check on one program: run() and runFast agree event for
/// event, a serialized chain at even boundaries and one at random
/// boundaries reproduce the uninterrupted run, and every boundary
/// checkpoint round-trips through its bytes. Returns the suspended
/// boundaries.
size_t checkProgram(const Binary &B, const WorkloadInput &In,
                    uint64_t RngSeed, const std::string &Ctx) {
  diffOneProgram(B, In, Ctx);
  size_t Suspended = expectSerializedChainMatchesRun(
      B, In, evenBoundaries(runLength(B, In, FuzzCap), 3, FuzzCap),
      Ctx + " even");
  return Suspended + expectSerializedChainMatchesRun(
                         B, In, randomBoundaries(B, In, RngSeed),
                         Ctx + " random");
}

} // namespace

// 200 generated programs x 2 input seeds through checkProgram, on
// completed and cap-truncated runs alike. Most of the ~1,800 boundaries
// must suspend mid-run, or the chains never exercised a real resume.
TEST(ShardGenerated, RandomSplitChainsOnGeneratedPrograms) {
  size_t Suspended = 0;
  for (uint64_t Seed = 0; Seed < 200; ++Seed) {
    auto Prog = irgen::generateProgram(Seed);
    auto B = lower(*Prog, LoweringOptions::O2());
    for (uint64_t InSeed : {Seed, Seed + 1000})
      Suspended += checkProgram(*B, irgen::makeInput(InSeed),
                                Seed ^ 0xc0ffee ^ (InSeed << 20),
                                "program " + std::to_string(Seed) +
                                    " input " + std::to_string(InSeed));
  }
  EXPECT_GE(Suspended, 1000u);
}

// Graph, marker and fixed-interval segment chains on generated programs
// against the uninterrupted drivers.
TEST(ShardGenerated, SegmentChainsMatchDrivers) {
  for (uint64_t Seed = 0; Seed < 8; ++Seed) {
    auto Prog = irgen::generateProgram(Seed * 13 + 3);
    auto B = lower(*Prog, LoweringOptions::O2());
    WorkloadInput In = irgen::makeInput(Seed);
    std::string Ctx = "program " + std::to_string(Seed);
    expectMarkerIdentity(*B, In, FuzzCap, Ctx);
    expectFixedIdentity(*B, In, 10'000, FuzzCap, Ctx);
  }
}

// Edge shapes the generator only hits probabilistically, pinned down: an
// empty program, a zero-trip-only body, a deep nesting chain,
// depth-cap-saturating unconditional self-recursion, a trip-1 loop, and a
// loop far longer than the instruction cap.
TEST(ShardGenerated, DegenerateShapes) {
  auto check = [](std::unique_ptr<SourceProgram> Prog, uint64_t Seed,
                  const std::string &Ctx) {
    auto B = lower(*Prog, LoweringOptions::O2());
    checkProgram(*B, WorkloadInput(Ctx, Seed), Seed, Ctx);
  };
  {
    ProgramBuilder PB("empty");
    PB.region(MemRegionSpec::fixed("r", 1024));
    PB.declare("main");
    PB.define(0, [](FunctionBuilder &) {});
    check(PB.take(), 1, "empty main");
  }
  {
    ProgramBuilder PB("zerotrip");
    PB.region(MemRegionSpec::fixed("r", 1024));
    PB.declare("main");
    PB.define(0, [](FunctionBuilder &FB) {
      FB.loop(TripCountSpec::constant(0), [&] { FB.code(7); });
    });
    check(PB.take(), 2, "zero-trip loop");
  }
  {
    ProgramBuilder PB("deep");
    PB.region(MemRegionSpec::fixed("r", 1024));
    PB.declare("main");
    PB.define(0, [](FunctionBuilder &FB) {
      std::function<void(int)> Nest = [&](int D) {
        if (D == 0) {
          FB.code(1);
          return;
        }
        FB.loop(TripCountSpec::constant(2), [&] { Nest(D - 1); });
      };
      Nest(12);
    });
    check(PB.take(), 3, "deep nesting");
  }
  {
    ProgramBuilder PB("satdepth");
    PB.region(MemRegionSpec::fixed("r", 1024));
    PB.declare("main");
    PB.define(0, [](FunctionBuilder &FB) {
      FB.code(2);
      FB.callIf(0, 1.0); // Terminates only via the MaxCallDepth cap.
      FB.code(1);
    });
    check(PB.take(), 4, "depth-cap saturation");
  }
  {
    ProgramBuilder PB("trip1");
    PB.region(MemRegionSpec::fixed("r", 1024));
    PB.declare("main");
    PB.define(0, [](FunctionBuilder &FB) {
      FB.loop(TripCountSpec::constant(1), [&] { FB.code(3); });
    });
    check(PB.take(), 5, "trip-1 loop");
  }
  {
    ProgramBuilder PB("bigloop");
    PB.region(MemRegionSpec::fixed("r", 4096));
    PB.declare("main");
    PB.define(0, [](FunctionBuilder &FB) {
      FB.loop(TripCountSpec::constant(1'000'000), [&] { FB.code(8); });
    });
    check(PB.take(), 6, "loop longer than the cap");
  }
}
