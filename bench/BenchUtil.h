//===- bench/BenchUtil.h - shared harness plumbing --------------*- C++ -*-===//
//
// Part of the SPM project: reproduction of "Selecting Software Phase Markers
// with Code Structure Analysis" (CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Common setup shared by the figures of bench/spm_figures: workload
/// preparation (lower + loop recovery + train/ref profiles), the
/// marker-selection configurations the paper's bar groups use, and the
/// per-workload rows several figures print. The scaled experiment knobs
/// live here so every figure uses the same 1000x-reduced constants:
///
///   paper                     here
///   ------------------------- --------------------
///   BBV fixed interval 10M    10K instructions
///   ilower 10M                10K
///   limit mode 10M..200M      10K..200K
///   whole-program 100K / 10M  100 / 10K
///   SimPoint dim 15, kmax 10  identical
///
//===----------------------------------------------------------------------===//

#ifndef SPM_BENCH_BENCHUTIL_H
#define SPM_BENCH_BENCHUTIL_H

#include "callloop/Profile.h"
#include "ir/Lowering.h"
#include "markers/Pipeline.h"
#include "markers/Selector.h"
#include "phase/Metrics.h"
#include "simpoint/SimPoint.h"
#include "support/Parallel.h"
#include "support/Table.h"
#include "workloads/Workloads.h"

#include <memory>
#include <set>
#include <string>

namespace spm {
namespace bench {

// The scaled experiment constants (see file comment).
constexpr uint64_t FixedBbvInterval = 10000;
constexpr uint64_t ILower = 10000;
constexpr uint64_t MaxLimit = 200000;
constexpr uint64_t WholeProgramFine = 100;
constexpr uint64_t WholeProgramCoarse = 10000;

/// A workload lowered and profiled on both inputs.
struct Prepared {
  Workload W;
  std::unique_ptr<Binary> Bin;
  LoopIndex Loops;
  std::unique_ptr<CallLoopGraph> GTrain;
  std::unique_ptr<CallLoopGraph> GRef;
};

inline Prepared prepare(const std::string &Name) {
  Prepared P;
  P.W = WorkloadRegistry::create(Name);
  P.Bin = lower(*P.W.Program, LoweringOptions::O2());
  P.Loops = LoopIndex::build(*P.Bin);
  // The two profiling runs are independent; at --jobs > 1 they overlap.
  auto Graphs =
      buildCallLoopGraphs(*P.Bin, P.Loops, {&P.W.Train, &P.W.Ref});
  P.GTrain = std::move(Graphs[0]);
  P.GRef = std::move(Graphs[1]);
  return P;
}

/// An observer that handles no event: Interpreter::runFast on it only
/// counts instructions.
struct NullSink {};

/// The marker-selection configurations of Figs. 7-9's bar groups.
inline SelectorConfig noLimitConfig(bool ProceduresOnly = false) {
  SelectorConfig C;
  C.ILower = ILower;
  C.ProceduresOnly = ProceduresOnly;
  return C;
}

inline SelectorConfig limitConfig() {
  SelectorConfig C;
  C.ILower = ILower;
  C.Limit = true;
  C.MaxLimit = MaxLimit;
  return C;
}

/// Runs the ref input under markers selected from \p G (train graph for
/// "cross", ref graph for "self").
inline MarkerRun markerRun(const Prepared &P, const CallLoopGraph &G,
                           const SelectorConfig &C, bool CollectBbv = false) {
  SelectionResult Sel = selectMarkers(G, C);
  return runMarkerIntervals(*P.Bin, P.Loops, G, Sel.Markers, P.W.Ref,
                            CollectBbv);
}

/// Number of distinct phase ids actually observed in a run.
inline size_t observedPhases(const std::vector<IntervalRecord> &Ivs) {
  std::set<int32_t> Ids;
  for (const IntervalRecord &R : Ivs)
    Ids.insert(R.PhaseId);
  return Ids.size();
}

/// One benchmark's results for all six approaches of Figs. 7-9, plus the
/// whole-program baselines of Fig. 9.
struct BehaviorRow {
  std::string Name;
  // Interval/phase summaries under the CPI metric.
  ClassificationSummary Bbv; ///< Fixed 10K intervals + SimPoint phases.
  uint32_t BbvK = 0;
  ClassificationSummary ProcsCross, ProcsSelf, Cross, Self, Limit;
  size_t ProcsCrossPhases = 0, ProcsSelfPhases = 0, CrossPhases = 0,
         SelfPhases = 0, LimitPhases = 0;
  double Whole100 = 0.0, Whole10K = 0.0;
  // The same classifications scored on the DL1 miss rate (the paper's
  // second metric; Sec. 1 "counting execution cycles and data cache
  // hits").
  double BbvMissCov = 0.0, CrossMissCov = 0.0, SelfMissCov = 0.0,
         LimitMissCov = 0.0, WholeMiss10K = 0.0;
};

/// Runs every approach on one workload. This is the shared computation
/// behind Figs. 7, 8 and 9.
inline BehaviorRow computeBehaviorRow(const Prepared &P) {
  BehaviorRow Row;
  Row.Name = P.W.displayName();

  // BBV baseline: fixed 10K intervals clustered by SimPoint.
  std::vector<IntervalRecord> Fixed =
      runFixedIntervals(*P.Bin, P.W.Ref, FixedBbvInterval, true);
  SimPointResult SP = runSimPoint(Fixed, SimPointConfig());
  Row.Bbv = summarizeClassification(Fixed, SP.Assign, cpiMetric);
  Row.BbvK = SP.K;
  Row.BbvMissCov =
      summarizeClassification(Fixed, SP.Assign, missRateMetric).OverallCov;
  Row.WholeMiss10K = wholeProgramCov(Fixed, missRateMetric);

  auto Summarize = [](const MarkerRun &R, ClassificationSummary &Out,
                      size_t &Phases) {
    Out = summarizeClassification(R.Intervals,
                                  phasesFromRecords(R.Intervals), cpiMetric);
    Phases = observedPhases(R.Intervals);
  };
  auto MissCov = [](const MarkerRun &R) {
    return summarizeClassification(R.Intervals,
                                   phasesFromRecords(R.Intervals),
                                   missRateMetric)
        .OverallCov;
  };
  MarkerRun R;
  R = markerRun(P, *P.GTrain, noLimitConfig(/*ProceduresOnly=*/true));
  Summarize(R, Row.ProcsCross, Row.ProcsCrossPhases);
  R = markerRun(P, *P.GRef, noLimitConfig(/*ProceduresOnly=*/true));
  Summarize(R, Row.ProcsSelf, Row.ProcsSelfPhases);
  R = markerRun(P, *P.GTrain, noLimitConfig());
  Summarize(R, Row.Cross, Row.CrossPhases);
  Row.CrossMissCov = MissCov(R);
  R = markerRun(P, *P.GRef, noLimitConfig());
  Summarize(R, Row.Self, Row.SelfPhases);
  Row.SelfMissCov = MissCov(R);
  R = markerRun(P, *P.GRef, limitConfig());
  Summarize(R, Row.Limit, Row.LimitPhases);
  Row.LimitMissCov = MissCov(R);

  // Whole-program CoV at the paper's two fixed granularities.
  Row.Whole100 = wholeProgramCov(
      runFixedIntervals(*P.Bin, P.W.Ref, WholeProgramFine, false), cpiMetric);
  Row.Whole10K = wholeProgramCov(Fixed, cpiMetric);
  return Row;
}

/// One workload's line in the suite-overview table (suite_summary).
/// Factored out of the figure so the serial-equivalence tests can compare
/// jobs=1 and jobs=N rows field by field.
struct SuiteRow {
  std::string Name;
  uint64_t Funcs = 0, Blocks = 0, Loops = 0;
  double TrainMInstr = 0.0, RefMInstr = 0.0;
  uint64_t Markers = 0, Phases = 0;
  double AvgIv = 0.0, CovCpi = 0.0, Whole10K = 0.0;
};

inline SuiteRow computeSuiteRow(const Prepared &P) {
  SuiteRow Row;
  NullSink Nop;
  RunResult Train = Interpreter(*P.Bin, P.W.Train).runFast(Nop);
  RunResult Ref = Interpreter(*P.Bin, P.W.Ref).runFast(Nop);

  SelectionResult Sel = selectMarkers(*P.GTrain, noLimitConfig());
  MarkerRun R = runMarkerIntervals(*P.Bin, P.Loops, *P.GTrain, Sel.Markers,
                                   P.W.Ref, false);
  ClassificationSummary S = summarizeClassification(
      R.Intervals, phasesFromRecords(R.Intervals), cpiMetric);

  Row.Name = P.W.displayName();
  Row.Funcs = P.Bin->Funcs.size();
  Row.Blocks = P.Bin->Blocks.size();
  Row.Loops = P.Loops.size();
  Row.TrainMInstr = static_cast<double>(Train.TotalInstrs) / 1e6;
  Row.RefMInstr = static_cast<double>(Ref.TotalInstrs) / 1e6;
  Row.Markers = Sel.Markers.size();
  Row.Phases = S.NumPhases;
  Row.AvgIv = S.AvgIntervalLen;
  Row.CovCpi = S.OverallCov;
  Row.Whole10K = wholeProgramCov(
      runFixedIntervals(*P.Bin, P.W.Ref, FixedBbvInterval, false), cpiMetric);
  return Row;
}

/// Figs. 11 and 12 report two views (simulation time, CPI error) of the
/// same experiment: standard fixed-length SimPoint at three interval sizes
/// versus SimPoint 3.0 over marker-cut VLIs at three coverage levels. The
/// fixed-length kmax values follow the paper's scaling rule ([22]): more,
/// smaller intervals warrant more clusters. A row holds one benchmark's
/// estimate under each of the six configurations.
struct SimPointRow {
  std::string Name;
  // SP_1K, SP_10K, SP_100K then VLI 95%, 99%, 100%.
  CpiEstimate Est[6];
};

inline SimPointRow computeSimPointRow(const Prepared &P) {
  SimPointRow Row;
  Row.Name = P.W.displayName();

  // Fixed-length SimPoint at 1K/10K/100K (paper: 1M/10M/100M) with the
  // scaled kmax of 30/30/10 (paper: 300/30/10; 300 clusters over a few
  // thousand points degenerates at our scale, so the finest level reuses
  // 30). The three configurations are independent runs over the same
  // prepared binary, so they fan out over the ambient job count.
  struct {
    uint64_t Len;
    uint32_t KMax;
  } FixedCfg[3] = {{1000, 30}, {10000, 30}, {100000, 10}};
  std::vector<CpiEstimate> Fixed = parallelMap(3, [&](size_t I) {
    std::vector<IntervalRecord> Ivs =
        runFixedIntervals(*P.Bin, P.W.Ref, FixedCfg[I].Len, true);
    SimPointConfig SPC;
    SPC.KMax = FixedCfg[I].KMax;
    SPC.Restarts = 3;
    SimPointResult SP = runSimPoint(Ivs, SPC);
    return estimateCpi(Ivs, SP, 1.0);
  });
  for (int I = 0; I < 3; ++I)
    Row.Est[I] = Fixed[I];

  // Marker VLIs with the Sec. 5.2 limit heuristics, SimPoint 3.0 weighted
  // clustering, coverage 95/99/100%.
  MarkerRun Vli = markerRun(P, *P.GRef, limitConfig(), /*CollectBbv=*/true);
  SimPointConfig SPC;
  SPC.KMax = 10;
  SPC.WeightByLength = true;
  SimPointResult SP = runSimPoint(Vli.Intervals, SPC);
  const double Coverage[3] = {0.95, 0.99, 1.0};
  for (int I = 0; I < 3; ++I)
    Row.Est[3 + I] = estimateCpi(Vli.Intervals, SP, Coverage[I]);
  return Row;
}

} // namespace bench
} // namespace spm

#endif // SPM_BENCH_BENCHUTIL_H
