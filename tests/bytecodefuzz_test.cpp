//===- tests/bytecodefuzz_test.cpp - bytecode tier differential fuzz ------==//
//
// Proves the flat bytecode execution tier (compileBytecode + runBytecode)
// and its fused form (fuseBytecode: superops + precompiled block event
// tapes) correct by construction against the tree walk, on hundreds of
// generated programs (tests/IrGen.h): the full event stream, call-loop
// graph dumps, BBV interval streams, marker intervals + firing traces, and
// cache counters must be byte-identical across run / runFast /
// runBytecode, plain and fused alike. Also fuzzes checkpoint interchange
// (a segment suspended under one tier resumes under another, including
// resumes that land inside a fused tape's op span), serialized segment
// chains on the bytecode tiers, and the module verifier's rejection of
// malformed modules and corrupted fusion overlays.
//
//===----------------------------------------------------------------------==//

#include "DiffHarness.h"
#include "IrGen.h"
#include "callloop/Profile.h"
#include "ir/Builder.h"
#include "ir/Lowering.h"
#include "markers/Selector.h"
#include "vm/Bytecode.h"
#include "vm/Fusion.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

using namespace spm;
// Shared comparison helpers (expectSame*, RecordingObserver, NullObs,
// diffOneProgram, FuzzCap) live in tests/DiffHarness.h so the CFG fuzz
// legs use the exact same artifact comparisons.
using namespace spm::difftest;

namespace {

/// Program seeds in the core differential (x2 input seeds each).
constexpr uint64_t NumPrograms = 200;

} // namespace

//===----------------------------------------------------------------------===//
// Core differential: event streams on generated programs
//===----------------------------------------------------------------------===//

// 200 generated programs x 2 input seeds: the event stream (blocks with
// addresses, memory accesses, branches with direction, calls, returns)
// must be byte-identical across all four tiers, on completed and
// cap-truncated runs alike. The fused leg replays precompiled tapes for
// the straight-line and constant-trip regions, so a single reordered or
// dropped event — or a wrong RNG draw order at a tape boundary — fails
// the stream comparison.
TEST(BytecodeFuzz, EventStreamDifferential) {
  size_t ProgramsWithTapes = 0;
  for (uint64_t Seed = 0; Seed < NumPrograms; ++Seed) {
    auto Prog = irgen::generateProgram(Seed);
    auto B = lower(*Prog, LoweringOptions::O2());
    BytecodeModule M = compileBytecode(*B);
    std::string Err;
    ASSERT_TRUE(M.verify(*B, &Err)) << "seed " << Seed << ": " << Err;
    BytecodeModule F = fuseBytecode(*B, M);
    ASSERT_TRUE(F.verify(*B, &Err)) << "seed " << Seed << " fused: " << Err;
    if (!F.Tapes.empty())
      ++ProgramsWithTapes;
    for (uint64_t InSeed : {Seed, Seed + 1000}) {
      WorkloadInput In = irgen::makeInput(InSeed);
      diffOneProgram(*B, M, F, In,
                     "program " + std::to_string(Seed) + " input " +
                         std::to_string(InSeed));
    }
  }
  // The generator's fusion-adversarial slice must actually produce fused
  // regions on most programs, or the fused legs above degenerate into the
  // plain-bytecode differential.
  EXPECT_GE(ProgramsWithTapes, NumPrograms / 2);
}

// Cache counters (the observer with the most derived per-event state) on a
// standalone PerfModel across all four tiers. PerfModel wants memory
// events, so the fused leg exercises the tape path that regenerates every
// address instead of bulk-advancing cursors.
TEST(BytecodeFuzz, CacheCounterDifferential) {
  for (uint64_t Seed = 0; Seed < 60; ++Seed) {
    auto Prog = irgen::generateProgram(Seed);
    auto B = lower(*Prog, LoweringOptions::O2());
    BytecodeModule M = compileBytecode(*B);
    BytecodeModule F = fuseBytecode(*B, M);
    WorkloadInput In = irgen::makeInput(Seed);
    std::string Ctx = "program " + std::to_string(Seed);

    PerfModel P1, P2, P3, P4;
    RunResult R1 = Interpreter(*B, In).run(P1, FuzzCap);
    RunResult R2 = Interpreter(*B, In).runFast(P2, FuzzCap);
    RunResult R3 = Interpreter(*B, In).runBytecode(M, P3, FuzzCap);
    RunResult R4 = Interpreter(*B, In).runBytecode(F, P4, FuzzCap);
    expectSameRun(R1, R2, Ctx + " (fast)");
    expectSameRun(R1, R3, Ctx + " (bytecode)");
    expectSameRun(R1, R4, Ctx + " (fused)");
    expectSameCounters(P1.counters(), P2.counters(), Ctx + " (fast)");
    expectSameCounters(P1.counters(), P3.counters(), Ctx + " (bytecode)");
    expectSameCounters(P1.counters(), P4.counters(), Ctx + " (fused)");
  }
}

//===----------------------------------------------------------------------===//
// Derived artifacts: graphs, BBV intervals, marker intervals + firings
//===----------------------------------------------------------------------===//

// Call-loop graph dumps (hierarchical counts, Welford stats) from the tree
// tier vs the bytecode tier must print byte-identically.
TEST(BytecodeFuzz, GraphDumpDifferential) {
  for (uint64_t Seed = 0; Seed < 40; ++Seed) {
    auto Prog = irgen::generateProgram(Seed);
    auto B = lower(*Prog, LoweringOptions::O2());
    LoopIndex Loops = LoopIndex::build(*B);
    BytecodeModule M = compileBytecode(*B);
    WorkloadInput In = irgen::makeInput(Seed);

    BytecodeModule F = fuseBytecode(*B, M);
    auto GTree = buildCallLoopGraph(*B, Loops, In, FuzzCap);
    auto GBc = buildCallLoopGraph(*B, Loops, In, FuzzCap, &M);
    auto GFz = buildCallLoopGraph(*B, Loops, In, FuzzCap, &F);
    EXPECT_EQ(printGraph(*GTree), printGraph(*GBc))
        << "program " << Seed;
    EXPECT_EQ(printGraph(*GTree), printGraph(*GFz))
        << "program " << Seed << " (fused)";
  }
}

// Fixed-length intervals with BBVs and perf counters.
TEST(BytecodeFuzz, FixedIntervalsDifferential) {
  constexpr uint64_t Len = 10'000;
  for (uint64_t Seed = 0; Seed < 40; ++Seed) {
    auto Prog = irgen::generateProgram(Seed);
    auto B = lower(*Prog, LoweringOptions::O2());
    BytecodeModule M = compileBytecode(*B);
    WorkloadInput In = irgen::makeInput(Seed);

    BytecodeModule F = fuseBytecode(*B, M);
    std::vector<IntervalRecord> Tree =
        runFixedIntervals(*B, In, Len, /*CollectBbv=*/true, FuzzCap);
    std::vector<IntervalRecord> Bc =
        runFixedIntervals(*B, In, Len, /*CollectBbv=*/true, FuzzCap,
                          PerfModelOptions(), &M);
    std::vector<IntervalRecord> Fz =
        runFixedIntervals(*B, In, Len, /*CollectBbv=*/true, FuzzCap,
                          PerfModelOptions(), &F);
    expectSameIntervals(Tree, Bc, "program " + std::to_string(Seed));
    expectSameIntervals(Tree, Fz,
                        "program " + std::to_string(Seed) + " (fused)");
  }
}

// Marker-cut intervals and the firing trace, with markers selected from a
// bytecode-profiled graph — the full pipeline end to end on one tier vs
// the other.
TEST(BytecodeFuzz, MarkerIntervalsDifferential) {
  size_t Differentiated = 0;
  for (uint64_t Seed = 0; Seed < 120 && Differentiated < 12; ++Seed) {
    auto Prog = irgen::generateProgram(Seed);
    auto B = lower(*Prog, LoweringOptions::O2());
    LoopIndex Loops = LoopIndex::build(*B);
    BytecodeModule M = compileBytecode(*B);
    WorkloadInput In = irgen::makeInput(Seed);

    auto G = buildCallLoopGraph(*B, Loops, In, FuzzCap);
    SelectorConfig SC;
    SC.ILower = 100; // Fuzz programs are small; keep candidates alive.
    SelectionResult Sel = selectMarkers(*G, SC);
    if (Sel.Markers.empty())
      continue; // Nothing to differentiate on this input.
    ++Differentiated;

    std::string Ctx = "program " + std::to_string(Seed);
    BytecodeModule F = fuseBytecode(*B, M);
    MarkerRun Tree = runMarkerIntervals(*B, Loops, *G, Sel.Markers, In,
                                        /*CollectBbv=*/true,
                                        /*RecordFirings=*/true, FuzzCap);
    MarkerRun Bc = runMarkerIntervals(*B, Loops, *G, Sel.Markers, In,
                                      /*CollectBbv=*/true,
                                      /*RecordFirings=*/true, FuzzCap,
                                      PerfModelOptions(), &M);
    MarkerRun Fz = runMarkerIntervals(*B, Loops, *G, Sel.Markers, In,
                                      /*CollectBbv=*/true,
                                      /*RecordFirings=*/true, FuzzCap,
                                      PerfModelOptions(), &F);
    expectSameMarkerRun(Tree, Bc, Ctx);
    expectSameMarkerRun(Tree, Fz, Ctx + " (fused)");
  }
  // The scan must find enough marker-bearing programs for this
  // differential to mean something.
  EXPECT_GE(Differentiated, 12u);
}

//===----------------------------------------------------------------------===//
// Checkpoint interchange between tiers
//===----------------------------------------------------------------------===//

// Random split points: a run executed as chained segments that rotate
// tiers (fused bytecode, tree, plain bytecode, ...) across checkpoints
// must concatenate to the exact uninterrupted event stream. This is the
// "checkpoints are interchangeable between tiers" contract, now including
// the fused tier: a checkpoint saved by the tree walk or plain bytecode
// can land anywhere — including inside a fused tape's op span — and the
// fused dispatch loop must resume it through the original ops until the
// next tape start.
TEST(BytecodeFuzz, CheckpointResumeAcrossTiers) {
  size_t Suspended = 0;
  for (uint64_t Round = 0; Round < 40; ++Round) {
    auto Prog = irgen::generateProgram(Round);
    auto B = lower(*Prog, LoweringOptions::O2());
    BytecodeModule M = compileBytecode(*B);
    BytecodeModule F = fuseBytecode(*B, M);
    WorkloadInput In = irgen::makeInput(Round + 7);
    std::string Ctx = "round " + std::to_string(Round);

    RecordingObserver Ref;
    RunResult RRef = Interpreter(*B, In).runBytecode(F, Ref, FuzzCap);

    // 2-5 segments with split points drawn across the observed length
    // (clamped up so zero-length runs still exercise the boundary paths).
    Rng R(splitMix64(Round ^ 0xc0ffee));
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
      // Rotate fused -> tree -> plain bytecode; every boundary is a
      // cross-tier handoff and two of the three hops involve the fused
      // module on one side.
      switch (S % 3) {
      case 0:
        RLast = I.runBytecodeSegment(F, Chained, From, Until[S], Out);
        break;
      case 1:
        RLast = I.runFastSegment(Chained, From, Until[S], Out);
        break;
      default:
        RLast = I.runBytecodeSegment(M, Chained, From, Until[S], Out);
        break;
      }
      if (!Out->Finished && !Out->Frames.empty())
        ++Suspended;
      From = Out;
    }

    expectSameRun(RRef, RLast, Ctx);
    ASSERT_EQ(Ref.Events.size(), Chained.Events.size()) << Ctx;
    EXPECT_TRUE(Ref.Events == Chained.Events) << Ctx;
  }
  // Most rounds must actually suspend mid-run somewhere, or the loop never
  // tested a real cross-tier resume.
  EXPECT_GE(Suspended, 20u);
}

// The checkpoint itself — the ResumeFrame stack and every cursor-bearing
// total — must be identical whichever tier captured it at the same
// boundary.
TEST(BytecodeFuzz, CheckpointFramesIdenticalAcrossTiers) {
  for (uint64_t Round = 0; Round < 40; ++Round) {
    auto Prog = irgen::generateProgram(Round + 100);
    auto B = lower(*Prog, LoweringOptions::O2());
    BytecodeModule M = compileBytecode(*B);
    BytecodeModule Fm = fuseBytecode(*B, M);
    WorkloadInput In = irgen::makeInput(Round);
    std::string Ctx = "round " + std::to_string(Round);

    Rng R(splitMix64(Round * 977 + 5));
    uint64_t Until = 1 + R.nextBelow(FuzzCap / 4);

    NullObs OA, OB, OC;
    InterpCheckpoint CTree, CBc, CFz;
    Interpreter(*B, In).runFastSegment(OA, nullptr, Until, &CTree);
    Interpreter(*B, In).runBytecodeSegment(M, OB, nullptr, Until, &CBc);
    Interpreter(*B, In).runBytecodeSegment(Fm, OC, nullptr, Until, &CFz);

    EXPECT_EQ(CTree.Finished, CBc.Finished) << Ctx;
    EXPECT_EQ(CTree.TotalInstrs, CBc.TotalInstrs) << Ctx;
    EXPECT_EQ(CTree.TotalBlocks, CBc.TotalBlocks) << Ctx;
    EXPECT_EQ(CTree.TotalMemAccesses, CBc.TotalMemAccesses) << Ctx;
    ASSERT_EQ(CTree.Frames.size(), CBc.Frames.size()) << Ctx;
    for (size_t F = 0; F < CTree.Frames.size(); ++F)
      EXPECT_TRUE(CTree.Frames[F] == CBc.Frames[F])
          << Ctx << " frame " << F;
    // The fused tier's strict budget guard means it suspends at the same
    // op boundary as the plain tier, so the checkpoints are identical too.
    EXPECT_EQ(CTree.Finished, CFz.Finished) << Ctx << " (fused)";
    EXPECT_EQ(CTree.TotalInstrs, CFz.TotalInstrs) << Ctx << " (fused)";
    EXPECT_EQ(CTree.TotalBlocks, CFz.TotalBlocks) << Ctx << " (fused)";
    EXPECT_EQ(CTree.TotalMemAccesses, CFz.TotalMemAccesses)
        << Ctx << " (fused)";
    ASSERT_EQ(CTree.Frames.size(), CFz.Frames.size()) << Ctx << " (fused)";
    for (size_t F = 0; F < CTree.Frames.size(); ++F)
      EXPECT_TRUE(CTree.Frames[F] == CFz.Frames[F])
          << Ctx << " (fused) frame " << F;
  }
}

//===----------------------------------------------------------------------===//
// Segment chains over the bytecode tier
//===----------------------------------------------------------------------===//

// Serial segment chains (DiffHarness.h) for the graph, marker and fixed-
// interval stacks on the bytecode tier — plain and fused modules both —
// cut into {1, 3} segments, compared against the uninterrupted tree-tier
// drivers: graphs, marker intervals + firings, and fixed intervals must
// match exactly. Boundaries are arbitrary instruction counts, so the fused
// chains also exercise resumes that land inside tape spans.
TEST(BytecodeFuzz, SegmentedBytecodeDifferential) {
  for (uint64_t Seed = 0; Seed < 8; ++Seed) {
    auto Prog = irgen::generateProgram(Seed * 13 + 3);
    auto B = lower(*Prog, LoweringOptions::O2());
    LoopIndex Loops = LoopIndex::build(*B);
    BytecodeModule Plain = compileBytecode(*B);
    BytecodeModule Fused = fuseBytecode(*B, Plain);
    WorkloadInput In = irgen::makeInput(Seed);
    std::string Ctx = "program " + std::to_string(Seed);

    auto GRef = buildCallLoopGraph(*B, Loops, In, FuzzCap);
    std::string DumpRef = printGraph(*GRef);
    SelectorConfig SC;
    SC.ILower = 100;
    SelectionResult Sel = selectMarkers(*GRef, SC);
    MarkerRun MRef = runMarkerIntervals(*B, Loops, *GRef, Sel.Markers, In,
                                        /*CollectBbv=*/true,
                                        /*RecordFirings=*/true, FuzzCap);
    std::vector<IntervalRecord> FRef =
        runFixedIntervals(*B, In, 10'000, /*CollectBbv=*/true, FuzzCap);

    for (const BytecodeModule *M : {&Plain, &Fused}) {
      for (unsigned N : {1u, 3u}) {
        std::string SCtx = Ctx + (M == &Fused ? " fused" : "") +
                           " segments " + std::to_string(N);
        std::vector<uint64_t> Until =
            evenBoundaries(MRef.Run.TotalInstrs, N, FuzzCap);

        CallLoopGraph G(*B, Loops);
        runSegmentChain(
            [&] { return std::make_unique<GraphStack>(*B, Loops, G, In, M); },
            Until, SCtx);
        G.finalize();
        EXPECT_EQ(DumpRef, printGraph(G)) << SCtx;

        MarkerRun MR = runSegmentChain(
            [&] {
              return std::make_unique<MarkerStack>(*B, Loops, *GRef,
                                                   Sel.Markers, In, M);
            },
            Until, SCtx);
        expectSameMarkerRun(MRef, MR, SCtx);

        MarkerRun FI = runSegmentChain(
            [&] { return std::make_unique<FixedStack>(*B, In, M, 10'000); },
            Until, SCtx);
        expectSameIntervals(FRef, FI.Intervals, SCtx);
      }
    }
  }
}

//===----------------------------------------------------------------------===//
// Verifier negatives: malformed modules are rejected, never executed
//===----------------------------------------------------------------------===//

namespace {

/// Small handcrafted program containing one of everything the verifier
/// cross-checks: a loop, a branch, and a call — so its module has Block,
/// LoopBegin/LoopBack, IfBegin, Jump, Call, and Ret ops plus Loop, If, and
/// Call payloads to corrupt.
std::unique_ptr<SourceProgram> handProgram() {
  ProgramBuilder PB("hand");
  PB.region(MemRegionSpec::fixed("r", 4096));
  PB.declare("main");
  PB.declare("leaf");
  PB.define(0, [](FunctionBuilder &FB) {
    FB.loop(TripCountSpec::constant(3), [&] {
      FB.code(4);
      FB.branch(CondSpec::periodic(2, 1), [&] { FB.code(2); },
                [&] { FB.code(3); });
      FB.call(1);
    });
  });
  PB.define(1, [](FunctionBuilder &FB) { FB.code(5); });
  return PB.take();
}

/// Finds the index of the first op with opcode \p Op; asserts one exists.
uint32_t findOp(const BytecodeModule &M, BcOpcode Op) {
  for (uint32_t I = 0; I < M.Ops.size(); ++I)
    if (M.Ops[I].Op == Op)
      return I;
  ADD_FAILURE() << "opcode not found in handcrafted module";
  return 0;
}

} // namespace

// Every mutation must fail verify() with a diagnostic, and runBytecode must
// throw without delivering a single event to the observer.
TEST(BytecodeVerifier, RejectsMalformedModules) {
  auto Prog = handProgram();
  auto B = lower(*Prog, LoweringOptions::O2());
  WorkloadInput In("hand", 42);
  BytecodeModule Good = compileBytecode(*B);
  std::string Err;
  ASSERT_TRUE(Good.verify(*B, &Err)) << Err;

  auto expectRejected = [&](BytecodeModule M, const char *What) {
    std::string E;
    EXPECT_FALSE(M.verify(*B, &E)) << What;
    EXPECT_FALSE(E.empty()) << What;
    RecordingObserver O;
    Interpreter I(*B, In);
    EXPECT_THROW(I.runBytecode(M, O), std::invalid_argument) << What;
    EXPECT_TRUE(O.Events.empty())
        << What << ": rejected module delivered events";
  };

  {
    BytecodeModule M = Good;
    M.Ops.pop_back(); // Truncated: the last region loses its Ret.
    expectRejected(std::move(M), "truncated module");
  }
  {
    BytecodeModule M = Good;
    M.Ops.push_back(BcOp{}); // Ops past the last function region.
    expectRejected(std::move(M), "trailing garbage");
  }
  {
    BytecodeModule M = Good;
    M.Ops[findOp(M, BcOpcode::Block)].A = M.NumBlocks + 7;
    expectRejected(std::move(M), "out-of-range block id");
  }
  {
    BytecodeModule M = Good;
    M.Ops[findOp(M, BcOpcode::LoopBegin)].B =
        static_cast<uint32_t>(M.Ops.size()) + 9;
    expectRejected(std::move(M), "loop exit escapes function region");
  }
  {
    BytecodeModule M = Good;
    // Retarget the back edge into the next function's region: no longer a
    // preceding Block of the same function.
    M.Ops[findOp(M, BcOpcode::LoopBack)].B = M.Funcs[1].EntryPc;
    expectRejected(std::move(M), "cross-function back edge");
  }
  {
    BytecodeModule M = Good;
    M.Ops[findOp(M, BcOpcode::IfBegin)].B =
        static_cast<uint32_t>(M.Ops.size()) + 3;
    expectRejected(std::move(M), "out-of-range branch target");
  }
  {
    BytecodeModule M = Good;
    // Point the LoopBegin at the If payload: right range, wrong kind.
    uint32_t IfPayload = M.Ops[findOp(M, BcOpcode::IfBegin)].A;
    M.Ops[findOp(M, BcOpcode::LoopBegin)].A = IfPayload;
    expectRejected(std::move(M), "payload kind mismatch");
  }
  {
    BytecodeModule M = Good;
    M.Ops[findOp(M, BcOpcode::Block)].B =
        static_cast<uint32_t>(M.Captures.size());
    expectRejected(std::move(M), "capture index out of range");
  }
  {
    BytecodeModule M = Good;
    M.NumBlocks += 1; // Module claims a different source binary.
    expectRejected(std::move(M), "structural count mismatch");
  }
}

//===----------------------------------------------------------------------===//
// Verifier negatives: corrupted fusion overlays are rejected, never replayed
//===----------------------------------------------------------------------===//

namespace {

/// Handcrafted program whose fused module carries both a flat tape and a
/// repetition tape: a straight-line run, a constant-trip loop with a
/// straight-line body, a live call breaking the tape, and a trailing run.
std::unique_ptr<SourceProgram> handTapeProgram() {
  ProgramBuilder PB("handtape");
  PB.region(MemRegionSpec::fixed("r", 4096));
  PB.declare("main");
  PB.declare("leaf");
  PB.define(0, [](FunctionBuilder &FB) {
    FB.code(4);
    FB.loop(TripCountSpec::constant(3), [&] { FB.code(2); });
    FB.call(1); // Live op: splits the function into two tapes.
    FB.code(1);
  });
  PB.define(1, [](FunctionBuilder &FB) { FB.code(5); });
  return PB.take();
}

/// Index of the first tape entry of kind \p K; asserts one exists.
uint32_t findEntry(const BytecodeModule &M, BcTapeEntryKind K) {
  for (uint32_t I = 0; I < M.TapeKinds.size(); ++I)
    if (M.TapeKinds[I] == K)
      return I;
  ADD_FAILURE() << "tape entry kind not found in handcrafted module";
  return 0;
}

/// Index of the tape owning entry \p E.
uint32_t tapeOfEntry(const BytecodeModule &M, uint32_t E) {
  for (uint32_t T = 0; T < M.Tapes.size(); ++T)
    if (E >= M.Tapes[T].First && E < M.Tapes[T].First + M.Tapes[T].Count)
      return T;
  ADD_FAILURE() << "entry not covered by any tape";
  return 0;
}

} // namespace

// Superop/tape mutations: a tape whose length no longer matches its entry
// arrays, a fused op whose payload kind is confused (a repetition entry
// reinterpreted as a block entry, and vice versa), a tape referencing a
// block the program's function can never reach, a rep count that disagrees
// with the entries, and cached branch addresses diverging from the binary.
// Every one must fail verify() with a diagnostic and never deliver an
// event.
TEST(BytecodeVerifier, RejectsCorruptedFusionOverlays) {
  auto Prog = handTapeProgram();
  auto B = lower(*Prog, LoweringOptions::O2());
  WorkloadInput In("handtape", 42);
  BytecodeModule Good = fuseBytecode(*B, compileBytecode(*B));
  std::string Err;
  ASSERT_TRUE(Good.verify(*B, &Err)) << Err;
  ASSERT_TRUE(Good.fused());
  ASSERT_GE(Good.Tapes.size(), 2u);
  // The constant-trip loop must have fused into a repetition entry, or the
  // mutations below corrupt nothing interesting.
  findEntry(Good, BcTapeEntryKind::Rep);

  auto expectRejected = [&](BytecodeModule M, const char *What) {
    std::string E;
    EXPECT_FALSE(M.verify(*B, &E)) << What;
    EXPECT_FALSE(E.empty()) << What;
    RecordingObserver O;
    Interpreter I(*B, In);
    EXPECT_THROW(I.runBytecode(M, O), std::invalid_argument) << What;
    EXPECT_TRUE(O.Events.empty())
        << What << ": rejected module delivered events";
  };

  {
    BytecodeModule M = Good;
    // The last tape's entry range now reaches past the entry arrays.
    M.Tapes.back().Count += 1;
    expectRejected(std::move(M), "tape length mismatch");
  }
  {
    BytecodeModule M = Good;
    // Payload-kind confusion: the repetition's trip count is reinterpreted
    // as a block id.
    M.TapeKinds[findEntry(M, BcTapeEntryKind::Rep)] =
        BcTapeEntryKind::Block;
    expectRejected(std::move(M), "rep entry confused for a block entry");
  }
  {
    BytecodeModule M = Good;
    // And the reverse: a block id reinterpreted as a trip count.
    M.TapeKinds[findEntry(M, BcTapeEntryKind::Block)] =
        BcTapeEntryKind::Rep;
    expectRejected(std::move(M), "block entry confused for a rep entry");
  }
  {
    BytecodeModule M = Good;
    // Dead block: retarget a tape entry in main at leaf's block — a block
    // this function's tapes can never legally replay.
    uint32_t E = findEntry(M, BcTapeEntryKind::Block);
    uint32_t TapeFunc = B->Blocks[M.TapeA[E]].FuncId;
    uint32_t Dead = UINT32_MAX;
    for (uint32_t Blk = 0; Blk < B->Blocks.size(); ++Blk)
      if (B->Blocks[Blk].FuncId != TapeFunc)
        Dead = Blk;
    ASSERT_NE(Dead, UINT32_MAX);
    M.TapeA[E] = Dead;
    expectRejected(std::move(M), "tape references a dead block");
  }
  {
    BytecodeModule M = Good;
    M.TapeA[findEntry(M, BcTapeEntryKind::Block)] =
        static_cast<uint32_t>(B->Blocks.size()) + 11;
    expectRejected(std::move(M), "tape block id out of range");
  }
  {
    BytecodeModule M = Good;
    // The flat-tape fast path keys off NumReps; a lie here would replay a
    // rep tape as straight-line.
    uint32_t T = tapeOfEntry(M, findEntry(M, BcTapeEntryKind::Rep));
    M.Tapes[T].NumReps = 0;
    expectRejected(std::move(M), "rep count mismatch");
  }
  {
    BytecodeModule M = Good;
    // A tape op pointing at a tape that does not exist.
    uint32_t Pc = 0;
    while (Pc < M.FusedOps.size() && M.FusedOps[Pc].Op != BcOpcode::Tape)
      ++Pc;
    ASSERT_LT(Pc, M.FusedOps.size());
    M.FusedOps[Pc].A = static_cast<uint32_t>(M.Tapes.size()) + 2;
    expectRejected(std::move(M), "tape index out of range");
  }
  {
    BytecodeModule M = Good;
    // Claimed totals feed the budget guard and the replay's bookkeeping;
    // they must match the entries exactly.
    M.Tapes.front().TotalInstrs += 1;
    expectRejected(std::move(M), "tape totals mismatch");
  }
  {
    BytecodeModule M = Good;
    // Cached branch addresses in a loop payload diverging from the binary
    // would make the fused LoopBack handler emit a wrong branch event.
    uint32_t P = M.Ops[findOp(M, BcOpcode::LoopBegin)].A;
    M.Payloads[P].HeaderAddr += 8;
    expectRejected(std::move(M), "cached branch address divergence");
  }
}

//===----------------------------------------------------------------------===//
// Targeted degenerate shapes
//===----------------------------------------------------------------------===//

namespace {

void diffHandBuilt(std::unique_ptr<SourceProgram> Prog, uint64_t Seed,
                   const std::string &Ctx) {
  auto B = lower(*Prog, LoweringOptions::O2());
  BytecodeModule M = compileBytecode(*B);
  std::string Err;
  ASSERT_TRUE(M.verify(*B, &Err)) << Ctx << ": " << Err;
  BytecodeModule F = fuseBytecode(*B, M);
  ASSERT_TRUE(F.verify(*B, &Err)) << Ctx << " fused: " << Err;
  WorkloadInput In(Ctx, Seed);
  diffOneProgram(*B, M, F, In, Ctx);
}

} // namespace

// Edge shapes the generator only hits probabilistically, pinned down:
// an empty program, a zero-trip-only body, a deep nesting chain, and
// depth-cap-saturating unconditional self-recursion.
TEST(BytecodeFuzz, DegenerateShapes) {
  {
    ProgramBuilder PB("empty");
    PB.region(MemRegionSpec::fixed("r", 1024));
    PB.declare("main");
    PB.define(0, [](FunctionBuilder &) {});
    diffHandBuilt(PB.take(), 1, "empty main");
  }
  {
    ProgramBuilder PB("zerotrip");
    PB.region(MemRegionSpec::fixed("r", 1024));
    PB.declare("main");
    PB.define(0, [](FunctionBuilder &FB) {
      FB.loop(TripCountSpec::constant(0), [&] { FB.code(7); });
    });
    diffHandBuilt(PB.take(), 2, "zero-trip loop");
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
    diffHandBuilt(PB.take(), 3, "deep nesting");
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
    diffHandBuilt(PB.take(), 4, "depth-cap saturation");
  }
  {
    // Trip-1 constant loop: the smallest legal repetition tape.
    ProgramBuilder PB("trip1");
    PB.region(MemRegionSpec::fixed("r", 1024));
    PB.declare("main");
    PB.define(0, [](FunctionBuilder &FB) {
      FB.loop(TripCountSpec::constant(1), [&] { FB.code(3); });
    });
    diffHandBuilt(PB.take(), 5, "trip-1 rep tape");
  }
  {
    // A tape big enough to exceed the remaining budget near the cap: the
    // budget guard must fall back to the original ops and suspend at the
    // same block boundary as the plain tier.
    ProgramBuilder PB("bigtape");
    PB.region(MemRegionSpec::fixed("r", 4096));
    PB.declare("main");
    PB.define(0, [](FunctionBuilder &FB) {
      FB.loop(TripCountSpec::constant(1'000'000), [&] { FB.code(8); });
    });
    diffHandBuilt(PB.take(), 6, "tape larger than the budget");
  }
}
