//===- tests/callloop_test.cpp - call-loop graph semantics ----------------==//
//
// Validates the head/body discipline of Sec. 4.2 on hand-built programs
// with known traversal counts, including the Fig. 1/2 example shape.
//
//===----------------------------------------------------------------------===//

#include "callloop/Profile.h"
#include "callloop/ProfileIO.h"
#include "ir/Builder.h"
#include "ir/Lowering.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>

using namespace spm;

namespace {

struct ProfiledRun {
  std::unique_ptr<Binary> Bin;
  LoopIndex Loops;
  std::unique_ptr<CallLoopGraph> Graph;

  ProfiledRun(std::unique_ptr<SourceProgram> P, const WorkloadInput &In)
      : Bin(lower(*P, LoweringOptions::O2())),
        Loops(LoopIndex::build(*Bin)) {
    Graph = buildCallLoopGraph(*Bin, Loops, In);
  }
};

/// Fig. 1 of the paper: foo contains a loop calling X or Y, then calls X;
/// X calls Z.
std::unique_ptr<SourceProgram> figureOneProgram() {
  ProgramBuilder PB("fig1");
  uint32_t Foo = PB.declare("foo"); // Entry.
  uint32_t X = PB.declare("x");
  uint32_t Y = PB.declare("y");
  uint32_t Z = PB.declare("z");
  PB.define(Z, [&](FunctionBuilder &F) { F.code(6); });
  PB.define(X, [&](FunctionBuilder &F) {
    F.code(2);
    F.call(Z);
  });
  PB.define(Y, [&](FunctionBuilder &F) { F.code(12); });
  PB.define(Foo, [&](FunctionBuilder &F) {
    F.loop(TripCountSpec::constant(25), [&] {
      F.branch(CondSpec::periodic(5, 3), [&] { F.call(X); },
               [&] { F.call(Y); });
    });
    F.call(X);
  });
  return PB.take();
}

} // namespace

TEST(CallLoop, GraphNodeNumbering) {
  ProfiledRun S(figureOneProgram(), WorkloadInput("t", 1));
  const CallLoopGraph &G = *S.Graph;
  EXPECT_EQ(G.numFuncs(), 4u);
  EXPECT_EQ(G.numLoops(), 1u);
  EXPECT_EQ(G.numNodes(), 1 + 2 * 4 + 2 * 1);
  EXPECT_EQ(G.node(RootNode).K, NodeKind::Root);
  EXPECT_EQ(G.node(G.procHead(0)).K, NodeKind::ProcHead);
  EXPECT_EQ(G.node(G.loopBody(0)).K, NodeKind::LoopBody);
}

TEST(CallLoop, LoopEntryAndIterationCounts) {
  ProfiledRun S(figureOneProgram(), WorkloadInput("t", 1));
  const CallLoopGraph &G = *S.Graph;
  // The loop is entered once (one head traversal from foo's body) and
  // iterates 25 times (25 body traversals).
  const CallLoopEdge *HeadE = G.findEdge(G.procBody(0), G.loopHead(0));
  ASSERT_NE(HeadE, nullptr);
  EXPECT_EQ(HeadE->Hier.count(), 1u);
  const CallLoopEdge *BodyE = G.findEdge(G.loopHead(0), G.loopBody(0));
  ASSERT_NE(BodyE, nullptr);
  EXPECT_EQ(BodyE->Hier.count(), 25u);
}

TEST(CallLoop, CallCountsMatchDispatch) {
  ProfiledRun S(figureOneProgram(), WorkloadInput("t", 1));
  const CallLoopGraph &G = *S.Graph;
  // periodic(5,3): X on 15 of 25 iterations, Y on 10; plus one direct call
  // to X from foo's body after the loop.
  const CallLoopEdge *LoopToX = G.findEdge(G.loopBody(0), G.procHead(1));
  ASSERT_NE(LoopToX, nullptr);
  EXPECT_EQ(LoopToX->Hier.count(), 15u);
  const CallLoopEdge *LoopToY = G.findEdge(G.loopBody(0), G.procHead(2));
  ASSERT_NE(LoopToY, nullptr);
  EXPECT_EQ(LoopToY->Hier.count(), 10u);
  const CallLoopEdge *FooToX = G.findEdge(G.procBody(0), G.procHead(1));
  ASSERT_NE(FooToX, nullptr);
  EXPECT_EQ(FooToX->Hier.count(), 1u);
  // Z is called once per X activation: 16 total, all from X's body.
  const CallLoopEdge *XToZ = G.findEdge(G.procBody(1), G.procHead(3));
  ASSERT_NE(XToZ, nullptr);
  EXPECT_EQ(XToZ->Hier.count(), 16u);
}

TEST(CallLoop, RootEdgeCarriesWholeProgram) {
  ProfiledRun S(figureOneProgram(), WorkloadInput("t", 1));
  const CallLoopGraph &G = *S.Graph;
  const CallLoopEdge *RootE = G.findEdge(RootNode, G.procHead(0));
  ASSERT_NE(RootE, nullptr);
  EXPECT_EQ(RootE->Hier.count(), 1u);

  // Re-run to get the true total.
  Interpreter Interp(*S.Bin, WorkloadInput("t", 1));
  ExecutionObserver Nop;
  RunResult R = Interp.run(Nop);
  EXPECT_DOUBLE_EQ(RootE->Hier.mean(), static_cast<double>(R.TotalInstrs));
}

TEST(CallLoop, HeadAndBodyIdenticalForNonRecursive) {
  ProfiledRun S(figureOneProgram(), WorkloadInput("t", 1));
  const CallLoopGraph &G = *S.Graph;
  for (uint32_t F = 1; F <= 3; ++F) {
    const CallLoopEdge *HB = G.findEdge(G.procHead(F), G.procBody(F));
    ASSERT_NE(HB, nullptr) << "func " << F;
    // One body traversal per head entry, and identical hierarchical means
    // (the paper: "for non-recursive procedures, the head and body nodes
    // carry identical information").
    uint64_t HeadEntries = 0;
    for (const CallLoopEdge *In : G.incoming(G.procHead(F)))
      HeadEntries += In->Hier.count();
    EXPECT_EQ(HB->Hier.count(), HeadEntries);
  }
}

TEST(CallLoop, HierarchicalNesting) {
  ProfiledRun S(figureOneProgram(), WorkloadInput("t", 1));
  const CallLoopGraph &G = *S.Graph;
  // The loop body's average includes the dispatched calls: it must exceed
  // Z's per-call cost, and the loop-head mean must be ~25x the body mean.
  const CallLoopEdge *BodyE = G.findEdge(G.loopHead(0), G.loopBody(0));
  const CallLoopEdge *HeadE = G.findEdge(G.procBody(0), G.loopHead(0));
  ASSERT_NE(BodyE, nullptr);
  ASSERT_NE(HeadE, nullptr);
  // Head total = sum of 25 iterations + per-iteration header/latch blocks
  // already inside: the mean ratio is 25 +/- the header overhead share.
  double Ratio = HeadE->Hier.mean() / BodyE->Hier.mean();
  EXPECT_GT(Ratio, 20.0);
  EXPECT_LT(Ratio, 30.0);
}

TEST(CallLoop, PathDifferentiationLikeFig2) {
  // Z's cost is constant here, so instead differentiate X's hierarchical
  // cost by giving Z variable work depending on call context — model it
  // with a loop in Z whose trips are bimodal.
  ProgramBuilder PB("fig2");
  uint32_t Main = PB.declare("main");
  uint32_t X = PB.declare("x");
  PB.define(X, [&](FunctionBuilder &F) {
    // X's work alternates 10,100,10,100,... across activations.
    F.loop(TripCountSpec::schedule({10, 100}), [&] { F.code(3); });
  });
  PB.define(Main, [&](FunctionBuilder &F) {
    F.loop(TripCountSpec::constant(50), [&] { F.call(X); });
  });
  ProfiledRun S(PB.take(), WorkloadInput("t", 1));
  const CallLoopGraph &G = *S.Graph;
  // The call edge into X sees alternating 10/100-iteration activations:
  // a high CoV, exactly the "X to Z" effect of Fig. 2.
  const CallLoopEdge *CallX = G.findEdge(G.loopBody(0), G.procHead(1));
  ASSERT_NE(CallX, nullptr);
  EXPECT_GT(CallX->Hier.cov(), 0.5);
  // While the outer loop body (one call each) has the same CoV, the outer
  // loop head (all 50 calls) is perfectly stable.
  const CallLoopEdge *OuterHead = G.findEdge(G.procBody(0), G.loopHead(0));
  ASSERT_NE(OuterHead, nullptr);
  EXPECT_LT(OuterHead->Hier.cov(), 0.01);
}

TEST(CallLoop, RecursionEpisodesVsActivations) {
  ProgramBuilder PB("rec");
  uint32_t Main = PB.declare("main");
  uint32_t F = PB.declare("f");
  PB.define(F, [&](FunctionBuilder &B) {
    B.code(5);
    B.callIf(F, 0.7);
  });
  PB.define(Main, [&](FunctionBuilder &B) {
    B.loop(TripCountSpec::constant(200), [&] { B.call(F); });
  });
  ProfiledRun S(PB.take(), WorkloadInput("t", 9));
  const CallLoopGraph &G = *S.Graph;
  const CallLoopEdge *Episode = G.findEdge(G.loopBody(0), G.procHead(1));
  const CallLoopEdge *Activation = G.findEdge(G.procHead(1), G.procBody(1));
  ASSERT_NE(Episode, nullptr);
  ASSERT_NE(Activation, nullptr);
  // 200 episodes; expected activations 200/(1-0.7) ~ 667.
  EXPECT_EQ(Episode->Hier.count(), 200u);
  EXPECT_GT(Activation->Hier.count(), 400u);
  // Episode cost strictly exceeds the mean activation cost.
  EXPECT_GT(Episode->Hier.mean(), Activation->Hier.mean());
}

TEST(CallLoop, SiblingLoopsGetSeparateNodes) {
  ProgramBuilder PB("sib");
  uint32_t Main = PB.declare("main");
  PB.define(Main, [&](FunctionBuilder &F) {
    F.loop(TripCountSpec::constant(7), [&] { F.code(2); });
    F.loop(TripCountSpec::constant(11), [&] { F.code(3); });
  });
  ProfiledRun S(PB.take(), WorkloadInput("t", 1));
  const CallLoopGraph &G = *S.Graph;
  ASSERT_EQ(G.numLoops(), 2u);
  const CallLoopEdge *B0 = G.findEdge(G.loopHead(0), G.loopBody(0));
  const CallLoopEdge *B1 = G.findEdge(G.loopHead(1), G.loopBody(1));
  ASSERT_NE(B0, nullptr);
  ASSERT_NE(B1, nullptr);
  EXPECT_EQ(B0->Hier.count() + B1->Hier.count(), 18u);
}

TEST(CallLoop, NestedLoopIterationAccounting) {
  ProgramBuilder PB("nest");
  uint32_t Main = PB.declare("main");
  PB.define(Main, [&](FunctionBuilder &F) {
    F.loop(TripCountSpec::constant(4), [&] {
      F.loop(TripCountSpec::constant(6), [&] { F.code(2); });
    });
  });
  ProfiledRun S(PB.take(), WorkloadInput("t", 1));
  const CallLoopGraph &G = *S.Graph;
  // Loop ids follow lowering order: inner latch appears first.
  uint32_t Inner = 0, Outer = 1;
  if (S.Loops.loop(0).HeaderAddr < S.Loops.loop(1).HeaderAddr)
    std::swap(Inner, Outer);
  const CallLoopEdge *OuterBody =
      G.findEdge(G.loopHead(Outer), G.loopBody(Outer));
  const CallLoopEdge *InnerHead =
      G.findEdge(G.loopBody(Outer), G.loopHead(Inner));
  const CallLoopEdge *InnerBody =
      G.findEdge(G.loopHead(Inner), G.loopBody(Inner));
  ASSERT_NE(OuterBody, nullptr);
  ASSERT_NE(InnerHead, nullptr);
  ASSERT_NE(InnerBody, nullptr);
  EXPECT_EQ(OuterBody->Hier.count(), 4u);
  EXPECT_EQ(InnerHead->Hier.count(), 4u);  // Entered once per outer iter.
  EXPECT_EQ(InnerBody->Hier.count(), 24u); // 4 * 6 iterations.
}

TEST(CallLoop, TruncatedRunStillClosesFrames) {
  Workload W = WorkloadRegistry::create("gzip");
  auto B = lower(*W.Program, LoweringOptions::O2());
  LoopIndex Loops = LoopIndex::build(*B);
  auto G = buildCallLoopGraph(*B, Loops, W.Ref, /*MaxInstrs=*/20000);
  // The root edge must exist and carry the truncated total.
  const CallLoopEdge *RootE = G->findEdge(RootNode, G->procHead(0));
  ASSERT_NE(RootE, nullptr);
  EXPECT_GE(RootE->Hier.mean(), 20000.0);
}

TEST(CallLoop, GraphPrintersProduceOutput) {
  ProfiledRun S(figureOneProgram(), WorkloadInput("t", 1));
  std::string Text = printGraph(*S.Graph);
  EXPECT_NE(Text.find("foo.body"), std::string::npos);
  EXPECT_NE(Text.find("CoV"), std::string::npos);
  std::string Dot = printGraphDot(*S.Graph);
  EXPECT_NE(Dot.find("digraph"), std::string::npos);
}

TEST(CallLoop, EdgeTotalsConserveInstructions) {
  // Sum of top-level edges' (count*mean) under any node equals that node's
  // hierarchical count minus local work — weaker form: children never
  // exceed the parent.
  ProfiledRun S(figureOneProgram(), WorkloadInput("t", 1));
  const CallLoopGraph &G = *S.Graph;
  const CallLoopEdge *RootE = G.findEdge(RootNode, G.procHead(0));
  ASSERT_NE(RootE, nullptr);
  double Total = RootE->Hier.sum();
  for (const CallLoopEdge *E : G.sortedEdges())
    EXPECT_LE(E->Hier.sum(), Total + 1e-6)
        << G.node(E->From).Label << "->" << G.node(E->To).Label;
}

//===----------------------------------------------------------------------===//
// The tracker's event stream, pinned
//===----------------------------------------------------------------------===//

namespace {

/// One FNV-1a step over a 64-bit word.
uint64_t mix(uint64_t Hash, uint64_t V) {
  return (Hash ^ V) * 0x100000001b3ULL;
}
constexpr uint64_t DigestSeed = 0xcbf29ce484222325ULL;

/// Records the listener stream, kind (0 = begin, 1 = end), From, To and
/// Hier, as a running digest.
struct StreamRecorder : TrackerListener {
  uint64_t Hash = DigestSeed;
  uint64_t Count = 0;

  void mix(uint64_t V) { Hash = ::mix(Hash, V); }
  void onEdgeBegin(NodeId From, NodeId To) override {
    mix(0);
    mix(From);
    mix(To);
    ++Count;
  }
  void onEdgeEnd(NodeId From, NodeId To, uint64_t Hier) override {
    mix(1);
    mix(From);
    mix(To);
    mix(Hier);
    ++Count;
  }
};

uint64_t digestText(const std::string &Text) {
  uint64_t Hash = DigestSeed;
  for (unsigned char C : Text)
    Hash = mix(Hash, C);
  return Hash;
}

} // namespace

// The listener stream (kind, From, To, Hier) and the serialized profile of
// every registry program on train and ref, against values captured from
// the tracker that popped and re-pushed the body frame on every iteration.
// buildCallLoopGraph's direct profile target and a listener run together,
// as in runMarkerIntervals.
TEST(TrackerStream, PinnedOnEveryProgram) {
  struct Pin {
    const char *Program;
    uint64_t Train[2], Ref[2]; ///< {stream digest, profile digest}.
  };
  static const Pin Pins[] = {
      {"art",
       {0xfc8224c87cec0306ULL, 0x341cc62b103cef62ULL},
       {0xdfd49373cf2d8571ULL, 0x841d1fcf3ab30fb4ULL}},
      {"bzip2",
       {0x08cb4558e29fe6c7ULL, 0x628ce25d5a236270ULL},
       {0x2b12adcf7672ec59ULL, 0xb67fd8353d9b35fcULL}},
      {"galgel",
       {0x16195f89e378231eULL, 0x95017e9d5256733cULL},
       {0x02d50dc3fa35129eULL, 0x47b00ab337eb9c1dULL}},
      {"gcc",
       {0xaac267186a94f42aULL, 0xa1f945a0e8e0ae2fULL},
       {0x29e5823b81eb1d45ULL, 0x5cd1c5da2920b74bULL}},
      {"gzip",
       {0x6540fedbfe637f90ULL, 0x3a178962d2746e4fULL},
       {0x8698ad8ec7643824ULL, 0x134b3f67434a8340ULL}},
      {"lucas",
       {0xdded35a6baffe46fULL, 0x628b0b9aef550513ULL},
       {0x25be85c17e36994cULL, 0x861307d89a97a151ULL}},
      {"mcf",
       {0xfba2d7a2d6a853f0ULL, 0xca62a3ad535a5859ULL},
       {0x0fa7d2441ec203aaULL, 0xfb49fd9695de50e4ULL}},
      {"mgrid",
       {0xe2595c06a0fb59b8ULL, 0x8654b7fad9a7a3ceULL},
       {0x318996f89d6b49a6ULL, 0x74fed920e9fffd45ULL}},
      {"perlbmk",
       {0x453625659740e23eULL, 0xf2b451718e3edf47ULL},
       {0xd5bce6d9fc4040afULL, 0x0c72d70236ed0d6cULL}},
      {"vortex",
       {0x756b529539d599bcULL, 0xaac9486fbcfb6ac0ULL},
       {0xaf1cc6ac025a0db3ULL, 0xfc1b22a561e9cac3ULL}},
      {"vpr",
       {0xfe803394344047a3ULL, 0x9518022120f5a400ULL},
       {0xe2701dd581fa598dULL, 0xc4b90d177a7f1ff0ULL}},
      {"applu",
       {0xf15fdf1aec4ade96ULL, 0x355a6e5d4101e0a9ULL},
       {0xd2a2d18dd95f3beeULL, 0xd5e1841ebf7447fcULL}},
      {"compress95",
       {0x2686eefc878f4060ULL, 0x5f83f44c324fdf1eULL},
       {0x6820a92f86c21c01ULL, 0xa262ddbd5b24b6feULL}},
      {"mesh",
       {0x50ca0c07101f8d46ULL, 0xda1795b6c581ce2cULL},
       {0xfe48b8756d237d2cULL, 0xf1dce2401daacd77ULL}},
      {"swim",
       {0x309ce0c61b148adfULL, 0x28cd3c397e6c1ca7ULL},
       {0xc2d5403b1d6cd877ULL, 0xcda61329b280ae76ULL}},
      {"tomcatv",
       {0x258988b8ff922a14ULL, 0x9921dc2297a2a913ULL},
       {0xb07148c6a8d2a519ULL, 0x0302ca87b1b5ba6fULL}},
  };
  std::string Fresh;
  const std::vector<std::string> Names = WorkloadRegistry::allNames();
  ASSERT_EQ(Names.size(), std::size(Pins));
  for (size_t P = 0; P < Names.size(); ++P) {
    Workload W = WorkloadRegistry::create(Names[P]);
    auto B = lower(*W.Program, LoweringOptions::O2());
    LoopIndex Loops = LoopIndex::build(*B);
    uint64_t Got[2][2];
    for (int I = 0; I < 2; ++I) {
      const WorkloadInput &In = I ? W.Ref : W.Train;
      CallLoopGraph G(*B, Loops);
      CallLoopTracker Tracker(*B, Loops, G);
      Tracker.setProfileTarget(&G);
      StreamRecorder Rec;
      Tracker.addListener(&Rec);
      Interpreter(*B, In).runFast(Tracker);
      G.finalize();
      EXPECT_GT(Rec.Count, 0u) << Names[P];
      Got[I][0] = Rec.Hash;
      Got[I][1] = digestText(serializeProfile(G, *B, Loops));
    }
    char Line[160];
    std::snprintf(Line, sizeof(Line),
                  "{\"%s\", {0x%016" PRIx64 "ULL, 0x%016" PRIx64
                  "ULL}, {0x%016" PRIx64 "ULL, 0x%016" PRIx64 "ULL}},\n",
                  Names[P].c_str(), Got[0][0], Got[0][1], Got[1][0],
                  Got[1][1]);
    Fresh += Line;
    EXPECT_EQ(Names[P], Pins[P].Program);
    EXPECT_EQ(Got[0][0], Pins[P].Train[0]) << Names[P] << " train stream";
    EXPECT_EQ(Got[0][1], Pins[P].Train[1]) << Names[P] << " train profile";
    EXPECT_EQ(Got[1][0], Pins[P].Ref[0]) << Names[P] << " ref stream";
    EXPECT_EQ(Got[1][1], Pins[P].Ref[1]) << Names[P] << " ref profile";
  }
  if (HasFailure())
    std::printf("fresh pins:\n%s", Fresh.c_str());
}
