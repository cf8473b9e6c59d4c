//===- tests/serialize_test.cpp - marker file format ----------------------==//

#include "callloop/Profile.h"
#include "ir/Lowering.h"
#include "markers/Selector.h"
#include "markers/Serialize.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

using namespace spm;

namespace {

std::vector<PortableMarker> sampleMarkers() {
  std::vector<PortableMarker> Ms;
  PortableMarker A;
  A.From.K = NodeKind::ProcBody;
  A.From.Func = "main";
  A.To.K = NodeKind::ProcHead;
  A.To.Func = "deflate";
  Ms.push_back(A);
  PortableMarker B;
  B.From.K = NodeKind::LoopHead;
  B.From.LoopStmt = 7;
  B.To.K = NodeKind::LoopBody;
  B.To.LoopStmt = 7;
  B.GroupN = 40;
  Ms.push_back(B);
  PortableMarker C;
  C.From.K = NodeKind::Root;
  C.To.K = NodeKind::ProcHead;
  C.To.Func = "main";
  Ms.push_back(C);
  return Ms;
}

} // namespace

TEST(Serialize, RoundTripPreservesEverything) {
  auto Ms = sampleMarkers();
  std::string Text = serializeMarkers(Ms);
  std::string Err;
  auto Back = parseMarkers(Text, &Err);
  ASSERT_TRUE(Back.has_value()) << Err;
  ASSERT_EQ(Back->size(), Ms.size());
  for (size_t I = 0; I < Ms.size(); ++I) {
    EXPECT_EQ((*Back)[I].From.K, Ms[I].From.K);
    EXPECT_EQ((*Back)[I].From.Func, Ms[I].From.Func);
    EXPECT_EQ((*Back)[I].From.LoopStmt, Ms[I].From.LoopStmt);
    EXPECT_EQ((*Back)[I].To.K, Ms[I].To.K);
    EXPECT_EQ((*Back)[I].To.Func, Ms[I].To.Func);
    EXPECT_EQ((*Back)[I].To.LoopStmt, Ms[I].To.LoopStmt);
    EXPECT_EQ((*Back)[I].GroupN, Ms[I].GroupN);
  }
}

TEST(Serialize, EmptySetRoundTrips) {
  auto Back = parseMarkers(serializeMarkers({}));
  ASSERT_TRUE(Back.has_value());
  EXPECT_TRUE(Back->empty());
}

TEST(Serialize, CommentsAndBlankLinesIgnored) {
  std::string Text = "spm-markers v1\n"
                     "# a comment\n"
                     "\n"
                     "pbody main phead deflate 1\n";
  auto Back = parseMarkers(Text);
  ASSERT_TRUE(Back.has_value());
  EXPECT_EQ(Back->size(), 1u);
}

TEST(Serialize, RejectsMissingHeader) {
  std::string Err;
  EXPECT_FALSE(parseMarkers("pbody main phead deflate 1\n", &Err));
  EXPECT_NE(Err.find("header"), std::string::npos);
}

TEST(Serialize, RejectsMalformedLines) {
  const char *Bad[] = {
      "spm-markers v1\npbody main phead 1\n",          // 4 fields.
      "spm-markers v1\npbody main phead deflate 1 x\n", // 6 fields.
      "spm-markers v1\nwat main phead deflate 1\n",     // Bad kind.
      "spm-markers v1\nlhead s7 lbody seven 1\n",       // Bad stmt id.
      "spm-markers v1\npbody main phead deflate 0\n",   // Zero group.
      "spm-markers v1\nroot main phead deflate 1\n",    // Root with a name.
      "spm-markers v1\nphead - pbody main 1\n",         // Proc without name.
  };
  for (const char *Text : Bad) {
    std::string Err;
    EXPECT_FALSE(parseMarkers(Text, &Err).has_value()) << Text;
    EXPECT_FALSE(Err.empty());
  }
}

TEST(Serialize, RealSelectionRoundTripsThroughText) {
  // Full workflow: select -> portable -> text -> parse -> re-anchor.
  Workload W = WorkloadRegistry::create("gzip");
  auto Bin = lower(*W.Program, LoweringOptions::O2());
  LoopIndex Loops = LoopIndex::build(*Bin);
  auto G = buildCallLoopGraph(*Bin, Loops, W.Train);
  SelectorConfig C;
  C.ILower = 10000;
  SelectionResult Sel = selectMarkers(*G, C);
  ASSERT_GT(Sel.Markers.size(), 0u);

  std::string Text =
      serializeMarkers(toPortable(Sel.Markers, *G, *Bin));
  std::string Err;
  auto Parsed = parseMarkers(Text, &Err);
  ASSERT_TRUE(Parsed.has_value()) << Err;
  MarkerSet Back = fromPortable(*Parsed, *G, *Bin, Loops);
  ASSERT_EQ(Back.size(), Sel.Markers.size());
  for (size_t I = 0; I < Back.size(); ++I) {
    EXPECT_EQ(Back[I].From, Sel.Markers[I].From);
    EXPECT_EQ(Back[I].To, Sel.Markers[I].To);
    EXPECT_EQ(Back[I].GroupN, Sel.Markers[I].GroupN);
  }
}

TEST(Serialize, RejectsWrongVersionHeader) {
  std::string Err;
  EXPECT_FALSE(
      parseMarkers("spm-markers v2\npbody main phead deflate 1\n", &Err)
          .has_value());
  EXPECT_FALSE(Err.empty());
}
