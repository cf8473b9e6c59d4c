//===- perfbench/driver/MarkerPipeline.cpp - marker_pipeline -------------==//
//
// Part of the SPM project: reproduction of "Selecting Software Phase Markers
// with Code Structure Analysis" (CGO 2006).
//
//===----------------------------------------------------------------------===//
//
// The user pipeline `spm_tool profile` (train) -> `select` -> `report`
// (ref), in process, on all 16 programs, with both text formats round
// tripped as the files would be. The vm, call-loop tracker, marker runtime,
// interval builder and perf model do most of the work, through runFast and
// StaticMux; there is no clustering and no cache sweep.
//
//===----------------------------------------------------------------------===//

#include "Arms.h"

#include "callloop/ProfileIO.h"
#include "markers/Selector.h"
#include "markers/Serialize.h"
#include "phase/Metrics.h"
#include "phase/PhaseStats.h"

using namespace spm;

namespace perfbench {
namespace {

std::string markerText(const MarkerSet &M, const CallLoopGraph &G,
                       const Binary &B) {
  return serializeMarkers(toPortable(M, G, B));
}

ProgramOut run(const Program &P) {
  ProgramOut Out;
  // spm_tool profile <w> --input train -o profile.txt
  std::unique_ptr<CallLoopGraph> G = spanned("callloop.profile", [&] {
    return buildCallLoopGraph(*P.Bin, P.Loops, P.W.Train);
  });
  std::string ProfileText, Err;
  std::optional<CallLoopProfileFile> Profile;
  {
    Span S("callloop.profile_io");
    ProfileText = serializeProfile(*G, *P.Bin, P.Loops);
    Profile = parseProfile(ProfileText, &Err);
  }
  if (!Profile) {
    check(Out, false, "profile text does not parse");
    return Out;
  }

  // spm_tool select profile.txt -o markers.txt
  SelectionResult Sel = spanned("markers.select", [&] {
    return selectMarkers(*Profile->Graph, SelectorConfig());
  });

  // spm_tool report <w> markers.txt (ref): the markers are anchored in a
  // fresh, unprofiled graph of the binary, as the report command does.
  std::string Markers;
  std::optional<std::vector<PortableMarker>> Portable;
  auto Fresh = std::make_unique<CallLoopGraph>(*P.Bin, P.Loops);
  MarkerSet M;
  {
    Span S("markers.marker_io");
    Markers = serializeMarkers(
        toPortable(Sel.Markers, *Profile->Graph, Profile->FuncNames));
    Portable = parseMarkers(Markers, &Err);
    if (Portable)
      M = fromPortable(*Portable, *Fresh, *P.Bin, P.Loops);
  }
  if (!Portable) {
    check(Out, false, "marker text does not parse");
    return Out;
  }
  MarkerRun Run = spanned("markers.marker_intervals", [&] {
    return runMarkerIntervals(*P.Bin, P.Loops, *Fresh, M, P.W.Ref, false);
  });
  ClassificationSummary Sum;
  double Whole = 0.0;
  PhaseStats PS;
  {
    Span S("phase.classify");
    Sum = summarizeClassification(Run.Intervals,
                                  phasesFromRecords(Run.Intervals), cpiMetric);
    Whole = wholeProgramCov(Run.Intervals, cpiMetric);
    PS = PhaseStats::fromIntervals(Run.Intervals);
  }

  Span S("bench.check");
  // Both round trips must reproduce the selection made on the in-memory
  // profile.
  SelectionResult Direct = selectMarkers(*G, SelectorConfig());
  check(Out, markerText(Direct.Markers, *G, *P.Bin) == Markers,
        "profile round trip changed the selection");
  check(Out,
        M.size() == Sel.Markers.size() &&
            markerText(M, *Fresh, *P.Bin) == Markers,
        "marker round trip changed the selection");
  const RunResult &R = Run.Run;
  check(Out, totalInstructions(Run.Intervals) == R.TotalInstrs,
        "interval instructions != run total");
  PhaseStats::Totals T = PS.totals();
  check(Out,
        T.Instrs == R.TotalInstrs && T.Blocks == R.TotalBlocks &&
            T.Mem == R.TotalMemAccesses && T.Intervals == Run.Intervals.size(),
        "per-phase sums != run totals");
  check(Out, std::isfinite(Sum.OverallCov) && std::isfinite(Whole),
        "non-finite CPI CoV");

  Digest D;
  D.str(ProfileText);
  D.str(Markers);
  D.intervals(Run.Intervals);
  D.u64(Sum.NumPhases);
  D.f64(Sum.AvgIntervalLen);
  D.f64(Sum.OverallCov);
  D.f64(Whole);
  for (const auto &[Phase, Agg] : PS.phases()) {
    D.u64(static_cast<uint64_t>(static_cast<int64_t>(Phase)));
    D.u64(Agg.Intervals);
    D.u64(Agg.Instrs);
    D.u64(Agg.Blocks);
    D.u64(Agg.Mem);
    D.perf(Agg.Perf);
    D.f64(Agg.Cpi.mean());
    D.f64(Agg.Cpi.cov());
  }
  Out.Digest = D.value();

  Out.Row["cov_cpi_pct"] = Sum.OverallCov * 100.0;
  Out.Row["whole_cov_cpi_pct"] = Whole * 100.0;
  Out.Row["markers"] = static_cast<double>(Sel.Markers.size());
  Out.Row["phases"] = static_cast<double>(Sum.NumPhases);
  Out.Row["intervals"] = static_cast<double>(Sum.NumIntervals);
  Out.Counts["callloop.edges"] += static_cast<double>(G->numEdges());
  return Out;
}

void arms(const Program &P, Values &Out) {
  // The pass's markers, re-derived (the round-trip checks prove the text
  // formats do not change them) and anchored in a fresh graph.
  std::unique_ptr<CallLoopGraph> G =
      buildCallLoopGraph(*P.Bin, P.Loops, P.W.Train);
  SelectionResult Sel = selectMarkers(*G, SelectorConfig());
  CallLoopGraph Fresh(*P.Bin, P.Loops);
  MarkerSet M = fromPortable(toPortable(Sel.Markers, *G, *P.Bin), Fresh,
                             *P.Bin, P.Loops);
  // Each marker run is short, so every arm keeps its fastest of three.
  markerRunArms(P, Fresh, M, P.W.Ref, false, 3, Out);
  // The pass interprets train (profile) and ref (report) once each.
  Out["vm.null"] +=
      nullRunSeconds(P, P.W.Train, 3) + nullRunSeconds(P, P.W.Ref, 3);
}

Values accuracy(const std::vector<ProgramOut> &Outs) {
  return {{"cov_cpi_pct", meanOfRows(Outs, "cov_cpi_pct")}};
}

} // namespace

const WorkloadSpec &markerPipelineSpec() {
  static const WorkloadSpec Spec{"marker_pipeline",
                                 WorkloadRegistry::allNames(),
                                 /*ProfileInSetup=*/false,
                                 /*MapPrograms=*/true,
                                 run,
                                 arms,
                                 accuracy};
  return Spec;
}

} // namespace perfbench
