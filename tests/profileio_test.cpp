//===- tests/profileio_test.cpp - profile file round trips ----------------==//

#include "callloop/Profile.h"
#include "callloop/ProfileIO.h"
#include "ir/Lowering.h"
#include "markers/Selector.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

using namespace spm;

namespace {

struct Profiled {
  Workload W = WorkloadRegistry::create("gzip");
  std::unique_ptr<Binary> Bin = lower(*W.Program, LoweringOptions::O2());
  LoopIndex Loops = LoopIndex::build(*Bin);
  std::unique_ptr<CallLoopGraph> G = buildCallLoopGraph(*Bin, Loops, W.Train);
};

} // namespace

TEST(ProfileIO, RoundTripPreservesEdgeStatistics) {
  Profiled P;
  std::string Text = serializeProfile(*P.G, *P.Bin, P.Loops);
  std::string Err;
  auto Loaded = parseProfile(Text, &Err);
  ASSERT_TRUE(Loaded.has_value()) << Err;

  EXPECT_EQ(Loaded->Graph->numFuncs(), P.G->numFuncs());
  EXPECT_EQ(Loaded->Graph->numLoops(), P.G->numLoops());
  EXPECT_EQ(Loaded->Graph->numEdges(), P.G->numEdges());

  for (const CallLoopEdge *E : P.G->sortedEdges()) {
    const CallLoopEdge *L = Loaded->Graph->findEdge(E->From, E->To);
    ASSERT_NE(L, nullptr);
    EXPECT_EQ(L->Hier.count(), E->Hier.count());
    EXPECT_DOUBLE_EQ(L->Hier.mean(), E->Hier.mean());
    EXPECT_DOUBLE_EQ(L->Hier.stddev(), E->Hier.stddev());
    EXPECT_DOUBLE_EQ(L->Hier.max(), E->Hier.max());
    EXPECT_DOUBLE_EQ(L->Hier.sum(), E->Hier.sum());
  }
}

TEST(ProfileIO, LoadedGraphSelectsIdenticalMarkers) {
  Profiled P;
  auto Loaded =
      parseProfile(serializeProfile(*P.G, *P.Bin, P.Loops), nullptr);
  ASSERT_TRUE(Loaded.has_value());

  SelectorConfig C;
  C.ILower = 10000;
  SelectionResult A = selectMarkers(*P.G, C);
  SelectionResult B = selectMarkers(*Loaded->Graph, C);
  ASSERT_EQ(A.Markers.size(), B.Markers.size());
  for (size_t I = 0; I < A.Markers.size(); ++I) {
    EXPECT_EQ(A.Markers[I].From, B.Markers[I].From);
    EXPECT_EQ(A.Markers[I].To, B.Markers[I].To);
    EXPECT_EQ(A.Markers[I].GroupN, B.Markers[I].GroupN);
  }
  EXPECT_DOUBLE_EQ(A.AvgCandidateCov, B.AvgCandidateCov);
}

TEST(ProfileIO, LoadedGraphCarriesNames) {
  Profiled P;
  auto Loaded =
      parseProfile(serializeProfile(*P.G, *P.Bin, P.Loops), nullptr);
  ASSERT_TRUE(Loaded.has_value());
  EXPECT_EQ(Loaded->FuncNames[0], "main");
  EXPECT_EQ(Loaded->Graph->node(Loaded->Graph->procHead(0)).Label,
            "main.head");
  // Loop nodes carry source statement ids for portability.
  if (Loaded->Graph->numLoops() > 0) {
    uint32_t Stmt = Loaded->LoopInfo[0].second;
    EXPECT_EQ(Loaded->Graph->node(Loaded->Graph->loopHead(0)).SrcStmtId,
              Stmt);
  }
}

TEST(ProfileIO, RejectsMalformedInput) {
  const char *Bad[] = {
      "",
      "wrong header\n",
      "spm-profile v1\nfuncs x\n",
      "spm-profile v1\nfuncs 1\nfunc 5 main\n",
      "spm-profile v1\nfuncs 1\nfunc 0 main\nloops 0\nedges 1\n"
      "edge 0 99 1 1 0 1 1 1\n",
      "spm-profile v1\nfuncs 1\nfunc 0 main\nloops 0\nedges 1\n"
      "edge 0 1 0 1 0 1 1 1\n", // Zero-count edge.
  };
  for (const char *Text : Bad) {
    std::string Err;
    EXPECT_FALSE(parseProfile(Text, &Err).has_value()) << Text;
    EXPECT_FALSE(Err.empty());
  }
}

namespace {

/// \p Text with field \p Field (0 = the "edge" keyword) of its first edge
/// line replaced by \p Value, or with \p Value appended when \p Field is
/// past the last field.
std::string withEdgeField(const std::string &Text, size_t Field,
                          const std::string &Value) {
  size_t Begin = Text.find("\nedge ") + 1;
  size_t End = Text.find('\n', Begin);
  std::istringstream SS(Text.substr(Begin, End - Begin));
  std::vector<std::string> F;
  for (std::string T; SS >> T;)
    F.push_back(T);
  if (Field < F.size())
    F[Field] = Value;
  else
    F.push_back(Value);
  std::string Line;
  for (const std::string &T : F)
    Line += (Line.empty() ? "" : " ") + T;
  return Text.substr(0, Begin) + Line + Text.substr(End);
}

double edgeField(const std::string &Text, size_t Field) {
  size_t Begin = Text.find("\nedge ") + 1;
  std::istringstream SS(Text.substr(Begin, Text.find('\n', Begin) - Begin));
  std::string T;
  for (size_t I = 0; I <= Field; ++I)
    SS >> T;
  return std::stod(T);
}

std::string fmt(double V) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

} // namespace

// Edge moments a RunningStat cannot hold must be rejected with a named
// diagnostic, not turned into a silently wrong selection: a NaN M2 alone
// used to make the selector's CoV threshold NaN.
TEST(ProfileIO, RejectsInconsistentMoments) {
  Profiled P;
  std::string Text = serializeProfile(*P.G, *P.Bin, P.Loops);
  // Fields: edge from to count mean m2 sum max min.
  double Mean = edgeField(Text, 4), Sum = edgeField(Text, 6),
         Max = edgeField(Text, 7);
  struct Case {
    size_t Field;
    std::string Value;
    const char *Slug;
  } Cases[] = {
      {5, "nan", "profile[nonfinite]"},
      {4, "inf", "profile[nonfinite]"},
      {6, "-inf", "profile[nonfinite]"},
      {5, "-1", "profile[m2]"},
      {4, fmt(Max + 1), "profile[range]"},
      {8, fmt(Mean + 1), "profile[range]"},
      {6, fmt(2 * Sum + 1), "profile[sum]"},
      {9, "trailing-garbage", "profile[trailing]"},
  };
  for (const Case &C : Cases) {
    std::string Bad = withEdgeField(Text, C.Field, C.Value);
    std::string Err;
    EXPECT_FALSE(parseProfile(Bad, &Err).has_value())
        << C.Slug << " via field " << C.Field << " = " << C.Value;
    EXPECT_NE(Err.find(C.Slug), std::string::npos) << Err;
  }
}

// Welford's mean and the plain running sum differ in the last bits, so a
// sum a few ULPs off count * mean is a valid profile.
TEST(ProfileIO, ToleratesRoundingInSum) {
  Profiled P;
  std::string Text = serializeProfile(*P.G, *P.Bin, P.Loops);
  double Sum = edgeField(Text, 6);
  for (int I = 0; I < 4; ++I)
    Sum = std::nextafter(Sum, HUGE_VAL);
  std::string Err;
  EXPECT_TRUE(parseProfile(withEdgeField(Text, 6, fmt(Sum)), &Err).has_value())
      << Err;
}

TEST(ProfileIO, CommentsTolerated) {
  Profiled P;
  std::string Text = serializeProfile(*P.G, *P.Bin, P.Loops);
  Text.insert(Text.find('\n') + 1, "# a comment line\n");
  EXPECT_TRUE(parseProfile(Text, nullptr).has_value());
}
