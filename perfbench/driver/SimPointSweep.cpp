//===- perfbench/driver/SimPointSweep.cpp - simpoint_sweep ---------------==//
//
// Part of the SPM project: reproduction of "Selecting Software Phase Markers
// with Code Structure Analysis" (CGO 2006).
//
//===----------------------------------------------------------------------===//
//
// The paper's Figs. 11/12 experiment on the 11 behavior-suite programs:
// fixed-length SimPoint at 1K/10K/100K against SimPoint 3.0 over marker
// VLIs at 95/99/100% coverage. The simpoint layer (k-means over every k)
// does most of the work; the vm/trace layers are BBV- and block-bound.
//
//===----------------------------------------------------------------------===//

#include "Arms.h"

#include "markers/Selector.h"
#include "phase/PhaseStats.h"
#include "simpoint/SimPoint.h"
#include "support/Parallel.h"

using namespace spm;

namespace perfbench {
namespace {

// The scaled knobs of Figs. 11/12: interval length and kmax per
// fixed-length configuration, the VLI limit-mode selection, and coverage.
struct FixedConfig {
  uint64_t Len;
  uint32_t KMax;
};
constexpr FixedConfig Fixed[3] = {{1000, 30}, {10000, 30}, {100000, 10}};
constexpr double Coverage[3] = {0.95, 0.99, 1.0};

SimPointConfig fixedSimPoint(size_t I) {
  SimPointConfig C;
  C.KMax = Fixed[I].KMax;
  C.Restarts = 3;
  return C;
}

SimPointConfig vliSimPoint() {
  SimPointConfig C;
  C.KMax = 10;
  C.WeightByLength = true;
  return C;
}

SelectorConfig limitSelector() {
  SelectorConfig C;
  C.Limit = true;
  C.MaxLimit = 200000;
  return C;
}

void digestEstimate(Digest &D, const CpiEstimate &E) {
  D.f64(E.TrueCpi);
  D.f64(E.EstCpi);
  D.f64(E.RelError);
  D.u64(E.SimulatedInstrs);
  D.u64(E.PointsUsed);
}

void digestSimPoint(Digest &D, const SimPointResult &SP) {
  D.u64(SP.K);
  D.ids(SP.Assign);
  for (const SimPointChoice &C : SP.Points) {
    D.u64(C.Cluster);
    D.u64(C.IntervalIdx);
    D.f64(C.Weight);
  }
}

/// One fixed-length configuration's outputs.
struct FixedOut {
  CpiEstimate Est;
  uint64_t Instrs = 0;
  uint64_t Digest = 0;
  uint32_t K = 0;
  size_t Points = 0;
};

ProgramOut run(const Program &P) {
  ProgramOut Out;
  // The three fixed-length configurations are independent runs over the
  // same binary and fan out like the figure harness's; inside a pass that
  // already maps over programs they run inline.
  std::vector<FixedOut> Fx = parallelMap(3, [&](size_t I) {
    FixedOut F;
    std::vector<IntervalRecord> Ivs = spanned("trace.fixed_intervals", [&] {
      return runFixedIntervals(*P.Bin, P.W.Ref, Fixed[I].Len, true);
    });
    SimPointResult SP = spanned(
        "simpoint.run", [&] { return runSimPoint(Ivs, fixedSimPoint(I)); });
    F.Est = spanned("simpoint.estimate",
                    [&] { return estimateCpi(Ivs, SP, 1.0); });
    Span S("bench.check");
    Digest D;
    D.intervals(Ivs);
    digestSimPoint(D, SP);
    F.Instrs = totalInstructions(Ivs);
    F.Digest = D.value();
    F.K = SP.K;
    F.Points = SP.Points.size();
    return F;
  });

  SelectionResult Sel = spanned("markers.select", [&] {
    return selectMarkers(*P.GRef, limitSelector());
  });
  MarkerRun Vli = spanned("markers.marker_intervals", [&] {
    return runMarkerIntervals(*P.Bin, P.Loops, *P.GRef, Sel.Markers, P.W.Ref,
                              true);
  });
  SimPointResult SP = spanned(
      "simpoint.run", [&] { return runSimPoint(Vli.Intervals, vliSimPoint()); });
  CpiEstimate Est[6];
  for (size_t I = 0; I < 3; ++I) {
    Est[I] = Fx[I].Est;
    Est[3 + I] = spanned("simpoint.estimate", [&] {
      return estimateCpi(Vli.Intervals, SP, Coverage[I]);
    });
  }

  Span S("bench.check");
  const RunResult &R = Vli.Run;
  for (const FixedOut &F : Fx)
    check(Out, F.Instrs == R.TotalInstrs,
          "fixed-interval instructions != run total");
  check(Out, totalInstructions(Vli.Intervals) == R.TotalInstrs,
        "VLI interval instructions != run total");
  PhaseStats::Totals T = PhaseStats::fromIntervals(Vli.Intervals).totals();
  check(Out,
        T.Instrs == R.TotalInstrs && T.Blocks == R.TotalBlocks &&
            T.Mem == R.TotalMemAccesses && T.Intervals == Vli.Intervals.size(),
        "per-phase sums != run totals");
  double ErrSum = 0.0, SimInstrs = 0.0;
  for (const CpiEstimate &E : Est) {
    check(Out,
          std::isfinite(E.TrueCpi) && std::isfinite(E.EstCpi) &&
              std::isfinite(E.RelError) && E.TrueCpi > 0.0,
          "non-finite CPI estimate");
    ErrSum += E.RelError;
    SimInstrs += static_cast<double>(E.SimulatedInstrs);
  }

  Digest D;
  for (const FixedOut &F : Fx)
    D.u64(F.Digest);
  for (const Marker &M : Sel.Markers.markers()) {
    D.u64(M.From);
    D.u64(M.To);
    D.u64(M.GroupN);
  }
  D.intervals(Vli.Intervals);
  digestSimPoint(D, SP);
  for (const CpiEstimate &E : Est)
    digestEstimate(D, E);
  Out.Digest = D.value();

  static const char *const Columns[6] = {"SP_1k",   "SP_10k",  "SP_100k",
                                         "VLI_95",  "VLI_99",  "VLI_100"};
  for (int I = 0; I < 6; ++I) {
    Out.Row[std::string("cpi_err_pct.") + Columns[I]] = Est[I].RelError * 100;
    Out.Row[std::string("sim_kinstr.") + Columns[I]] =
        static_cast<double>(Est[I].SimulatedInstrs) / 1000.0;
  }
  Out.Row["cpi_err_pct"] = ErrSum / 6.0 * 100.0;
  Out.Row["sim_kinstr"] = SimInstrs / 1000.0;
  Out.Counts["callloop.edges"] += static_cast<double>(P.GRef->numEdges());
  Out.Counts["simpoint.points"] += static_cast<double>(SP.Points.size());
  Out.Counts["simpoint.k_chosen"] += SP.K;
  for (const FixedOut &F : Fx) {
    Out.Counts["simpoint.points"] += static_cast<double>(F.Points);
    Out.Counts["simpoint.k_chosen"] += F.K;
  }
  return Out;
}

void arms(const Program &P, Values &Out) {
  for (size_t I = 0; I < 3; ++I) {
    std::vector<IntervalRecord> Ivs =
        fixedRunArms(P, P.W.Ref, Fixed[I].Len, true, 1, Out);
    projectArm(Ivs, fixedSimPoint(I), Out);
  }
  SelectionResult Sel = selectMarkers(*P.GRef, limitSelector());
  MarkerRun Vli =
      markerRunArms(P, *P.GRef, Sel.Markers, P.W.Ref, true, 1, Out);
  projectArm(Vli.Intervals, vliSimPoint(), Out);
  // The pass interprets ref four times: three fixed lengths and the VLIs.
  Out["vm.null"] += 4 * nullRunSeconds(P, P.W.Ref, 1);
}

Values accuracy(const std::vector<ProgramOut> &Outs) {
  double Sim = 0.0;
  for (const ProgramOut &O : Outs)
    if (auto It = O.Row.find("sim_kinstr"); It != O.Row.end())
      Sim += It->second;
  return {{"cpi_err_pct", meanOfRows(Outs, "cpi_err_pct")},
          {"sim_kinstr", Sim}};
}

} // namespace

const WorkloadSpec &simPointSweepSpec() {
  static const WorkloadSpec Spec{"simpoint_sweep",
                                 WorkloadRegistry::behaviorSuite(),
                                 /*ProfileInSetup=*/true,
                                 /*MapPrograms=*/true,
                                 run,
                                 arms,
                                 accuracy};
  return Spec;
}

} // namespace perfbench
