//===- bench/spm_figures.cpp - the paper's evaluation, figure by figure ---==//
//
// Part of the SPM project: reproduction of "Selecting Software Phase Markers
// with Code Structure Analysis" (CGO 2006).
//
//===----------------------------------------------------------------------===//
//
// Prints the rows and series of every figure the reproduction covers:
//
//   spm_figures [--jobs N] [NAME...]
//
// NAME is one of the figures in the table at the bottom of this file
// (fig03_timevarying ... granularity_sweep); with no names every figure
// prints, in table order. --jobs N (0 = one worker per hardware thread)
// sets the ambient parallel job count, with SPM_JOBS as the environment
// fallback; the output is byte-identical at every job count. Anything else
// on the command line exits 2 with a diagnostic. The exit code is 1 when a
// figure's self-check fails (fig04's marker-trace identity).
//
// Figures share their expensive per-workload work through one RowMemo:
// each workload is prepared once, and its Figs. 7-9 BehaviorRow and
// Figs. 11/12 SimPointRow are computed once, whichever figures print them.
// Every per-workload loop fans out over the worker pool and prints in
// registry order.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "adaptcache/Policies.h"
#include "simpoint/KMeans.h"
#include "simpoint/Projection.h"
#include "support/ArgParse.h"

#include <climits>
#include <cmath>
#include <cstdio>
#include <map>

using namespace spm;
using namespace spm::bench;

namespace {

//===----------------------------------------------------------------------===//
// Shared rows
//===----------------------------------------------------------------------===//

/// Each workload's shared rows, computed at most once per process. Every
/// accessor is called on the main thread: it builds the missing entries
/// with parallelMap, each task owning its slot, then stores them. The
/// stored entries are const, so figures may read them from pool tasks.
class RowMemo {
public:
  std::vector<const Prepared *>
  prepared(const std::vector<std::string> &Names) {
    return memoize(Preps, Names,
                   [](const std::string &Name) { return prepare(Name); });
  }

  std::vector<const BehaviorRow *>
  behavior(const std::vector<std::string> &Names) {
    prepared(Names);
    return memoize(Behavior, Names, [&](const std::string &Name) {
      return computeBehaviorRow(*Preps.at(Name));
    });
  }

  std::vector<const SimPointRow *>
  simPoint(const std::vector<std::string> &Names) {
    prepared(Names);
    return memoize(SimPoint, Names, [&](const std::string &Name) {
      return computeSimPointRow(*Preps.at(Name));
    });
  }

private:
  template <class T>
  using Memo = std::map<std::string, std::unique_ptr<const T>>;

  template <class T, class BuildFn>
  static std::vector<const T *> memoize(Memo<T> &M,
                                        const std::vector<std::string> &Names,
                                        BuildFn Build) {
    std::vector<std::string> Missing;
    for (const std::string &Name : Names)
      if (!M.count(Name))
        Missing.push_back(Name);
    std::vector<T> Built = parallelMap(
        Missing.size(), [&](size_t I) { return Build(Missing[I]); });
    for (size_t I = 0; I < Missing.size(); ++I)
      M[Missing[I]] = std::make_unique<const T>(std::move(Built[I]));
    std::vector<const T *> Out;
    for (const std::string &Name : Names)
      Out.push_back(M.at(Name).get());
    return Out;
  }

  Memo<Prepared> Preps;
  Memo<BehaviorRow> Behavior;
  Memo<SimPointRow> SimPoint;
};

/// One benchmark's values in a table with an "avg" row.
struct NamedValues {
  std::string Name;
  std::vector<double> Vals;
};

/// How the values of such a table print: percentages, or fixed-point.
struct NumFormat {
  bool Percent = false;
  int Precision = 0;    ///< Decimals of a benchmark's cells.
  int AvgPrecision = 0; ///< Decimals of the avg row's cells.
};
constexpr NumFormat PercentFormat{
    .Percent = true, .Precision = 2, .AvgPrecision = 2};

/// Renders \p Header, a row per benchmark, and an "avg" row of column
/// means: the layout of Figs. 7-12 and the machine-model ablation.
std::string averagedTable(const std::vector<std::string> &Header,
                          const std::vector<NamedValues> &Rows, NumFormat F) {
  Table T;
  T.row();
  for (const std::string &H : Header)
    T.cell(H);
  auto Cell = [&](double V, int Precision) {
    if (F.Percent)
      T.percentCell(V, Precision);
    else
      T.cell(V, Precision);
  };
  std::vector<double> Sum(Header.size() - 1, 0.0);
  for (const NamedValues &R : Rows) {
    T.row().cell(R.Name);
    for (size_t I = 0; I < R.Vals.size(); ++I) {
      Cell(R.Vals[I], F.Precision);
      Sum[I] += R.Vals[I];
    }
  }
  T.row().cell("avg");
  for (double S : Sum)
    Cell(S / static_cast<double>(Rows.size()), F.AvgPrecision);
  return T.str();
}

/// Counts retired instructions, to timestamp marker firings.
struct InstrCounter {
  uint64_t Instrs = 0;
  void onBlock(const LoweredBlock &B) { Instrs += B.NumInstrs; }
};

//===----------------------------------------------------------------------===//
// Fig. 3: time-varying CPI and DL1 miss rate for gzip-graphic with
// software-phase-marker locations plotted on top. Markers are chosen on
// the *train* input and applied to the *ref* run. The paper plots one
// symbol per marker, showing only the first occurrence of rapidly
// repeating markers; this figure prints the metric series in coarse time
// buckets plus the (deduplicated) marker event list, which is the same
// data the figure draws.
//===----------------------------------------------------------------------===//

bool fig03TimeVarying(RowMemo &Memo) {
  std::printf("=== Figure 3: time-varying behavior with phase markers "
              "(gzip/graphic) ===\n\n");
  const Prepared &P = *Memo.prepared({"gzip"})[0];

  SelectionResult Sel = selectMarkers(*P.GTrain, noLimitConfig());
  std::printf("markers selected on train input:\n%s\n",
              printMarkers(Sel.Markers, *P.GTrain).c_str());

  // Instrument the ref run: fine-grained metric sampling plus the exact
  // instruction position of every marker firing.
  struct MarkerEvent {
    uint64_t Instr;
    int32_t Marker;
  };
  std::vector<MarkerEvent> Events;

  PerfModel Perf;
  IntervalBuilder Sampler =
      IntervalBuilder::fixedLength(2000, &Perf, /*CollectBbv=*/false);
  CallLoopTracker Tracker(*P.Bin, P.Loops, *P.GTrain);
  MarkerRuntime Runtime(Sel.Markers, *P.GTrain);
  Tracker.addListener(&Runtime);
  InstrCounter Count;
  Runtime.setCallback(
      [&](int32_t Idx) { Events.push_back({Count.Instrs, Idx}); });

  StaticMux<InstrCounter, CallLoopTracker, IntervalBuilder, PerfModel> Mux(
      Count, Tracker, Sampler, Perf);
  RunResult Run = Interpreter(*P.Bin, P.W.Ref).runFast(Mux);

  // Metric series, bucketed for readability (the CSV-ready fine series is
  // the samples themselves; print every Nth).
  const auto &Samples = Sampler.intervals();
  std::printf("time series (every 4th 2K-instruction sample):\n");
  Table T;
  T.row().cell("instr").cell("CPI").cell("DL1 miss");
  for (size_t I = 0; I < Samples.size(); I += 4) {
    PerfMetrics M = Samples[I].metrics();
    T.row()
        .cell(Samples[I].StartInstr)
        .cell(M.Cpi, 3)
        .percentCell(M.L1MissRate);
  }
  std::printf("%s\n", T.str().c_str());

  // Marker events, first occurrence of each repeating run (as the figure
  // plots them).
  std::printf("marker events (first of each repeating run):\n");
  Table E;
  E.row().cell("instr").cell("marker").cell("edge");
  int32_t LastMarker = -2;
  size_t Shown = 0;
  for (const MarkerEvent &Ev : Events) {
    if (Ev.Marker == LastMarker)
      continue;
    LastMarker = Ev.Marker;
    const Marker &M = Sel.Markers[Ev.Marker];
    E.row()
        .cell(Ev.Instr)
        .cell(std::string("m") + std::to_string(Ev.Marker))
        .cell(P.GTrain->node(M.From).Label + " -> " +
              P.GTrain->node(M.To).Label);
    if (++Shown >= 40) {
      E.row().cell(std::string("...")).cell(std::string("")).cell(
          std::string("(truncated)"));
      break;
    }
  }
  std::printf("%s\n", E.str().c_str());
  std::printf("total: %llu instructions, %zu marker firings, "
              "%zu metric samples\n",
              static_cast<unsigned long long>(Run.TotalInstrs), Events.size(),
              Samples.size());

  // The figure's qualitative content: the long high-miss phase and the
  // short low-miss phase alternate, each opened by its own marker.
  MarkerRun MR = runMarkerIntervals(*P.Bin, P.Loops, *P.GTrain, Sel.Markers,
                                    P.W.Ref, false);
  std::map<int32_t, WeightedStat> MissByPhase, LenByPhase;
  for (const IntervalRecord &R : MR.Intervals) {
    MissByPhase[R.PhaseId].add(R.metrics().L1MissRate,
                               static_cast<double>(R.NumInstrs));
    LenByPhase[R.PhaseId].add(static_cast<double>(R.NumInstrs), 1.0);
  }
  std::printf("\nper-phase summary (marker phases on the ref input):\n");
  Table S;
  S.row().cell("phase").cell("mean len").cell("mean DL1 miss");
  for (const auto &[Id, Stat] : MissByPhase) {
    if (Stat.totalWeight() < 20000)
      continue; // Skip negligible connective tissue.
    // Appended, not `"m" + std::to_string(Id)`: see callloop/Graph.cpp.
    std::string Label = "start";
    if (Id != ProloguePhase) {
      Label = "m";
      Label += std::to_string(Id);
    }
    S.row()
        .cell(Label)
        .cell(LenByPhase[Id].mean(), 0)
        .percentCell(Stat.mean());
  }
  std::printf("%s", S.str().c_str());
  return true;
}

//===----------------------------------------------------------------------===//
// Fig. 4 and Sec. 5.3.1: markers selected from one compilation's call-loop
// graph, mapped back to source constructs, and applied to a *different*
// compilation of the same source — the paper's Alpha/OSF -> x86/Linux
// experiment, realized here as O0 -> O2. The figure shows (a) the
// time-varying DL1 miss rate of the target binary with the mapped markers
// detecting the same high-level patterns, and (b) the Sec. 5.3.1
// validation: the executed marker traces of the two binaries match
// exactly, for every workload.
//===----------------------------------------------------------------------===//

/// One workload compiled at O0 ("the Alpha binary") and O2 ("the x86
/// binary"), with markers selected on the O0 train profile and mapped into
/// O2 through source locations. No call-loop graph profile is ever taken
/// on the O2 binary.
struct CrossBinary {
  Workload W;
  std::unique_ptr<Binary> B0, B2;
  LoopIndex L0, L2;
  std::unique_ptr<CallLoopGraph> G0, G2;
  MarkerSet M0, M2;
};

CrossBinary crossBinary(const std::string &Name) {
  CrossBinary C;
  C.W = WorkloadRegistry::create(Name);
  C.B0 = lower(*C.W.Program, LoweringOptions::O0());
  C.B2 = lower(*C.W.Program, LoweringOptions::O2());
  C.L0 = LoopIndex::build(*C.B0);
  C.L2 = LoopIndex::build(*C.B2);
  C.G0 = buildCallLoopGraph(*C.B0, C.L0, C.W.Train);
  SelectorConfig SC;
  SC.ILower = 2 * ILower; // O0 roughly doubles instruction counts.
  C.M0 = selectMarkers(*C.G0, SC).Markers;
  C.G2 = std::make_unique<CallLoopGraph>(*C.B2, C.L2);
  C.M2 = fromPortable(toPortable(C.M0, *C.G0, *C.B0), *C.G2, *C.B2, C.L2);
  return C;
}

bool fig04CrossBinary(RowMemo &) {
  std::printf("=== Figure 4: cross-binary phase markers (gzip/graphic, "
              "O0 -> O2) ===\n\n");
  CrossBinary C = crossBinary("gzip");
  std::printf("%zu markers selected on O0, %zu mapped into O2\n\n",
              C.M0.size(), C.M2.size());

  // Time-varying DL1 miss rate of the O2 run with mapped-marker positions.
  PerfModel Perf;
  IntervalBuilder Sampler = IntervalBuilder::fixedLength(2000, &Perf, false);
  CallLoopTracker Tracker(*C.B2, C.L2, *C.G2);
  MarkerRuntime Runtime(C.M2, *C.G2);
  Tracker.addListener(&Runtime);
  InstrCounter Count;
  std::vector<std::pair<uint64_t, int32_t>> Events;
  Runtime.setCallback(
      [&](int32_t Idx) { Events.push_back({Count.Instrs, Idx}); });

  StaticMux<InstrCounter, CallLoopTracker, IntervalBuilder, PerfModel> Mux(
      Count, Tracker, Sampler, Perf);
  Interpreter(*C.B2, C.W.Ref).runFast(Mux);

  std::printf("O2 DL1 miss-rate series (every 8th 2K sample) with marker "
              "positions:\n");
  Table T;
  T.row().cell("instr").cell("DL1 miss");
  for (size_t I = 0; I < Sampler.intervals().size(); I += 8) {
    const IntervalRecord &R = Sampler.intervals()[I];
    T.row().cell(R.StartInstr).percentCell(R.metrics().L1MissRate);
  }
  std::printf("%s\n", T.str().c_str());
  std::printf("first marker events on O2 (mapped from O0):\n");
  int32_t Last = -2;
  int Shown = 0;
  for (const auto &[At, Idx] : Events) {
    if (Idx == Last)
      continue;
    Last = Idx;
    std::printf("  @%-10llu m%d\n", static_cast<unsigned long long>(At), Idx);
    if (++Shown >= 16)
      break;
  }

  // Sec. 5.3.1 validation over the full suite: identical traces.
  std::printf("\n=== Sec. 5.3.1: marker-trace identity across compilations "
              "===\n\n");
  struct TraceRow {
    std::string Name;
    uint64_t Markers = 0, O0Firings = 0, O2Firings = 0;
    bool Same = false;
  };
  std::vector<std::string> Names = WorkloadRegistry::allNames();
  std::vector<TraceRow> Rows = parallelMap(Names.size(), [&](size_t I) {
    CrossBinary X = crossBinary(Names[I]);
    MarkerRun Ra = runMarkerIntervals(*X.B0, X.L0, *X.G0, X.M0, X.W.Train,
                                      false, true);
    MarkerRun Rb = runMarkerIntervals(*X.B2, X.L2, *X.G2, X.M2, X.W.Train,
                                      false, true);
    return TraceRow{X.W.displayName(), X.M0.size(), Ra.Firings.size(),
                    Rb.Firings.size(), Ra.Firings == Rb.Firings};
  });
  Table V;
  V.row().cell("workload").cell("markers").cell("O0 firings").cell(
      "O2 firings").cell("identical");
  int Identical = 0;
  for (const TraceRow &R : Rows) {
    Identical += R.Same;
    V.row()
        .cell(R.Name)
        .cell(R.Markers)
        .cell(R.O0Firings)
        .cell(R.O2Firings)
        .cell(R.Same ? std::string("yes") : std::string("NO"));
  }
  int Total = static_cast<int>(Rows.size());
  std::printf("%s\n%d/%d workloads have identical marker traces across "
              "compilations (paper: \"these traces were an identical "
              "match\").\n",
              V.str().c_str(), Identical, Total);
  return Identical == Total;
}

//===----------------------------------------------------------------------===//
// Figs. 5/6: 3-D random projection of bzip2-graphic's basic block vectors,
// once with fixed-length intervals (a scattered cloud with transition
// smears) and once with marker-cut VLIs (tight, well-separated clusters).
// Both use the same projection matrix, as in the paper. The figure prints
// the projected points for replotting plus a quantitative tightness
// statistic: the normalized within-cluster distance after clustering each
// interval set with the same k.
//===----------------------------------------------------------------------===//

/// Weighted mean distance to the assigned centroid, normalized by the
/// dataset's overall spread (so the two interval sets are comparable).
double normalizedTightness(const std::vector<ProjectedVec> &Pts,
                           const std::vector<double> &W, uint32_t K) {
  KMeansResult R = kmeansCluster(Pts, W, K, /*Seed=*/17, /*Restarts=*/5);
  double TotalW = 0.0, Within = 0.0;
  std::vector<double> Mean(Pts[0].size(), 0.0);
  for (size_t I = 0; I < Pts.size(); ++I) {
    TotalW += W[I];
    for (size_t D = 0; D < Mean.size(); ++D)
      Mean[D] += W[I] * Pts[I][D];
  }
  for (double &M : Mean)
    M /= TotalW;
  double Spread = 0.0;
  for (size_t I = 0; I < Pts.size(); ++I) {
    double DC = 0.0, DM = 0.0;
    for (size_t D = 0; D < Mean.size(); ++D) {
      double A = Pts[I][D] - R.Centroids[static_cast<uint32_t>(R.Assign[I])][D];
      double B = Pts[I][D] - Mean[D];
      DC += A * A;
      DM += B * B;
    }
    Within += W[I] * std::sqrt(DC);
    Spread += W[I] * std::sqrt(DM);
  }
  return Spread > 0 ? Within / Spread : 0.0;
}

bool fig0506Projection(RowMemo &Memo) {
  std::printf("=== Figures 5/6: BBV projections, fixed intervals vs marker "
              "VLIs (bzip2/graphic) ===\n\n");
  const Prepared &P = *Memo.prepared({"bzip2"})[0];

  // Fixed-length 10K intervals (Fig. 5).
  std::vector<IntervalRecord> Fixed =
      runFixedIntervals(*P.Bin, P.W.Ref, FixedBbvInterval, true);
  // Marker VLIs (Fig. 6), markers selected on this input as in the figure.
  MarkerRun Vli = markerRun(P, *P.GRef, noLimitConfig(), /*CollectBbv=*/true);

  constexpr uint64_t ProjSeed = 2006; // Same matrix for both figures.
  auto PFixed = projectIntervals(Fixed, 3, ProjSeed);
  auto PVli = projectIntervals(Vli.Intervals, 3, ProjSeed);

  std::printf("intervals: %zu fixed (Fig. 5), %zu VLIs (Fig. 6) — the "
              "paper used a similar count for both\n\n",
              Fixed.size(), Vli.Intervals.size());

  auto PrintPoints = [](const char *Title, const std::vector<ProjectedVec> &Pts,
                        const std::vector<IntervalRecord> &Ivs) {
    std::printf("%s (x, y, z, weight=instrs) — every 2nd point:\n", Title);
    for (size_t I = 0; I < Pts.size(); I += 2)
      std::printf("  %+8.4f %+8.4f %+8.4f  %8llu\n", Pts[I][0], Pts[I][1],
                  Pts[I][2],
                  static_cast<unsigned long long>(Ivs[I].NumInstrs));
    std::printf("\n");
  };
  PrintPoints("Fig. 5 points (fixed 10K)", PFixed, Fixed);
  PrintPoints("Fig. 6 points (marker VLIs)", PVli, Vli.Intervals);

  // Quantitative version of "substantially more clearly defined clusters".
  std::vector<double> WFixed(Fixed.size(), 1.0), WVli;
  for (const IntervalRecord &R : Vli.Intervals)
    WVli.push_back(static_cast<double>(R.NumInstrs));
  Table T;
  T.row().cell("interval set").cell("within/spread @k=4").cell(
      "within/spread @k=6");
  T.row()
      .cell("fixed 10K (Fig. 5)")
      .cell(normalizedTightness(PFixed, WFixed, 4), 4)
      .cell(normalizedTightness(PFixed, WFixed, 6), 4);
  T.row()
      .cell("marker VLIs (Fig. 6)")
      .cell(normalizedTightness(PVli, WVli, 4), 4)
      .cell(normalizedTightness(PVli, WVli, 6), 4);
  std::printf("%s\nlower = tighter clusters; the VLI rows should be "
              "markedly lower (the paper's visual claim).\n",
              T.str().c_str());
  return true;
}

//===----------------------------------------------------------------------===//
// Fig. 7: average instructions per interval for each approach, across the
// 11-benchmark behavior suite. Bars (left to right in the paper): fixed
// 10M BBV intervals (here 10K); procedures-only markers, no limit,
// cross-trained and self-trained; procedures+loops markers, no limit,
// cross and self; and the limit 10M-200M (10K-200K) SimPoint mode. The
// paper's headline: procedures-only intervals are orders of magnitude
// larger (whole-program scale on loop-dominated codes), loops bring them
// down near ilower, and the limit mode bounds them.
//===----------------------------------------------------------------------===//

bool fig07IntervalLength(RowMemo &Memo) {
  std::printf("=== Figure 7: average instructions per interval ===\n\n");
  std::vector<NamedValues> Rows;
  for (const BehaviorRow *R : Memo.behavior(WorkloadRegistry::behaviorSuite()))
    Rows.push_back({R->Name,
                    {R->Bbv.AvgIntervalLen, R->ProcsCross.AvgIntervalLen,
                     R->ProcsSelf.AvgIntervalLen, R->Cross.AvgIntervalLen,
                     R->Self.AvgIntervalLen, R->Limit.AvgIntervalLen}});
  std::printf("%s\n", averagedTable({"benchmark", "BBV", "procs-cross",
                                     "procs-self", "cross", "self",
                                     "limit 10k-200k"},
                                    Rows, {.Precision = 0, .AvgPrecision = 0})
                          .c_str());
  std::printf("(paper scale: multiply by ~1000 to compare against Fig. 7's "
              "10M-instruction axis)\n");
  return true;
}

//===----------------------------------------------------------------------===//
// Fig. 8: number of unique phase ids detected by each approach. For the
// BBV baseline this is SimPoint's chosen cluster count; for the marker
// approaches it is the number of distinct markers observed firing on the
// ref run (plus the prologue). The paper's shapes: BBV detects the most
// phases; the marker approaches typically find about half as many; the
// limit mode finds the most markers of the marker family (many small
// children get cut to respect the maximum interval size — galgel and gcc
// are the paper's examples).
//===----------------------------------------------------------------------===//

bool fig08NumPhases(RowMemo &Memo) {
  std::printf("=== Figure 8: number of phases detected ===\n\n");
  std::vector<NamedValues> Rows;
  for (const BehaviorRow *R : Memo.behavior(WorkloadRegistry::behaviorSuite()))
    Rows.push_back(
        {R->Name,
         {static_cast<double>(R->BbvK),
          static_cast<double>(R->ProcsCrossPhases),
          static_cast<double>(R->ProcsSelfPhases),
          static_cast<double>(R->CrossPhases),
          static_cast<double>(R->SelfPhases),
          static_cast<double>(R->LimitPhases)}});
  std::printf("%s", averagedTable({"benchmark", "BBV", "procs-cross",
                                   "procs-self", "cross", "self",
                                   "limit 10k-200k"},
                                  Rows, {.Precision = 0, .AvgPrecision = 1})
                        .c_str());
  return true;
}

//===----------------------------------------------------------------------===//
// Fig. 9: instruction-weighted coefficient of variation of CPI within each
// phase, averaged over phases, for every approach — against the
// whole-program CoV at fixed granularities of 100K and 10M instructions
// (100 and 10K here). The paper's claims this table carries: both BBV and
// the software markers partition execution into phases far more
// homogeneous than the program overall; procedures-only sometimes scores
// lower CoV than procedures+loops only because its intervals are
// enormous (the "treat the whole program as one interval" degenerate win,
// called out for vpr).
//===----------------------------------------------------------------------===//

bool fig09CovCpi(RowMemo &Memo) {
  std::printf("=== Figure 9: CoV of CPI per phase (percent) ===\n\n");
  std::vector<const BehaviorRow *> Behavior =
      Memo.behavior(WorkloadRegistry::behaviorSuite());
  std::vector<NamedValues> Cpi, Miss;
  for (const BehaviorRow *R : Behavior) {
    Cpi.push_back({R->Name,
                   {R->Bbv.OverallCov, R->ProcsCross.OverallCov,
                    R->ProcsSelf.OverallCov, R->Cross.OverallCov,
                    R->Self.OverallCov, R->Limit.OverallCov, R->Whole100,
                    R->Whole10K}});
    Miss.push_back({R->Name,
                    {R->BbvMissCov, R->CrossMissCov, R->SelfMissCov,
                     R->LimitMissCov, R->WholeMiss10K}});
  }
  std::printf("%s\n", averagedTable({"benchmark", "BBV", "procs-cross",
                                     "procs-self", "cross", "self", "limit",
                                     "whole@100", "whole@10k"},
                                    Cpi, PercentFormat)
                          .c_str());
  std::printf("expected shape: every phase approach well below the "
              "whole-program columns; BBV lowest.\n\n");

  // The paper's second phase metric: DL1 miss rate (Sec. 1 pairs "counting
  // execution cycles and data cache hits").
  std::printf("=== companion: CoV of DL1 miss rate per phase ===\n\n");
  std::printf("%s", averagedTable({"benchmark", "BBV", "cross", "self",
                                   "limit", "whole@10k"},
                                  Miss, PercentFormat)
                        .c_str());
  return true;
}

//===----------------------------------------------------------------------===//
// Fig. 10: average data-cache size under adaptive reconfiguration with no
// allowed increase in miss rate, across the five benchmarks Shen et al.
// provided (applu, compress, mesh, swim, tomcatv). Bars: the idealistic
// BBV/SimPoint oracle, our markers self-trained (SPM-Self), procedures-only
// cross-trained (Procs-Cross), the reuse-distance baseline, our markers
// cross-trained (SPM-Cross), and the best fixed size. Expected shape: the
// adaptive schemes cluster together well below the best fixed size, with
// SPM as effective as the reuse-distance approach.
//
// The second table reproduces the Sec. 6.1 text numbers for gcc and
// vortex, which the reuse-distance approach could not handle: best fixed
// size vs the SPM average (the paper reports 256KB -> ~240KB for gcc and
// 245KB -> ~200KB for vortex at full scale; the shape to match is "best
// fixed large, SPM somewhat below, reuse-distance finds no markers").
//===----------------------------------------------------------------------===//

bool fig10CacheReconfig(RowMemo &Memo) {
  std::printf("=== Figure 10: average cache size (KB), no allowed miss-rate "
              "increase ===\n\n");
  std::vector<const Prepared *> Suite =
      Memo.prepared(WorkloadRegistry::reconfigSuite());
  std::vector<NamedValues> Rows = parallelMap(Suite.size(), [&](size_t I) {
    const Prepared &P = *Suite[I];
    MarkerSet Self = selectMarkers(*P.GRef, noLimitConfig()).Markers;
    MarkerSet Cross = selectMarkers(*P.GTrain, noLimitConfig()).Markers;
    MarkerSet Procs =
        selectMarkers(*P.GTrain, noLimitConfig(/*ProceduresOnly=*/true))
            .Markers;
    ReuseMarkerSet Reuse = profileReuseMarkers(*P.Bin, P.W.Train);
    return NamedValues{
        P.W.Name + (Reuse.empty() ? "*" : ""),
        {runAdaptiveWithOracleBbv(*P.Bin, P.W.Ref, FixedBbvInterval)
             .AvgCacheKB,
         runAdaptiveWithMarkers(*P.Bin, P.Loops, *P.GRef, Self, P.W.Ref)
             .AvgCacheKB,
         runAdaptiveWithMarkers(*P.Bin, P.Loops, *P.GTrain, Procs, P.W.Ref)
             .AvgCacheKB,
         runAdaptiveWithReuseMarkers(*P.Bin, Reuse, P.W.Ref).AvgCacheKB,
         runAdaptiveWithMarkers(*P.Bin, P.Loops, *P.GTrain, Cross, P.W.Ref)
             .AvgCacheKB,
         bestFixedSize(*P.Bin, P.W.Ref).BestFixedKB}};
  });
  std::printf("%s", averagedTable({"benchmark", "BBV", "SPM-Self",
                                   "Procs-Cross", "ReuseDist", "SPM-Cross",
                                   "BestFixed"},
                                  Rows, {.Precision = 1, .AvgPrecision = 1})
                        .c_str());
  std::printf("(* = reuse-distance analysis found no markers; its policy "
              "stays at the safe 256KB)\n\n");

  // Sec. 6.1 in-text numbers: gcc and vortex, which defeat the
  // reuse-distance analysis but not the call-loop markers.
  std::printf("=== Sec. 6.1 text: gcc and vortex ===\n\n");
  struct TextRow {
    std::string Name;
    uint64_t ReuseMarkers = 0;
    AdaptiveCacheResult A;
    FixedSizeResult F;
  };
  std::vector<const Prepared *> Text = Memo.prepared({"gcc", "vortex"});
  std::vector<TextRow> TextRows = parallelMap(Text.size(), [&](size_t I) {
    const Prepared &P = *Text[I];
    MarkerSet Self = selectMarkers(*P.GRef, noLimitConfig()).Markers;
    return TextRow{
        P.W.displayName(), profileReuseMarkers(*P.Bin, P.W.Train).size(),
        runAdaptiveWithMarkers(*P.Bin, P.Loops, *P.GRef, Self, P.W.Ref),
        bestFixedSize(*P.Bin, P.W.Ref)};
  });
  Table G;
  G.row()
      .cell("benchmark")
      .cell("reuse markers")
      .cell("SPM avg KB")
      .cell("BestFixed KB")
      .cell("SPM miss")
      .cell("fixed miss");
  for (const TextRow &R : TextRows)
    G.row()
        .cell(R.Name)
        .cell(R.ReuseMarkers)
        .cell(R.A.AvgCacheKB, 1)
        .cell(R.F.BestFixedKB, 1)
        .percentCell(R.A.MissRate)
        .percentCell(R.F.PerConfig[R.F.BestIdx].missRate());
  std::printf("%s", G.str().c_str());
  return true;
}

//===----------------------------------------------------------------------===//
// Figs. 11 and 12: the same SimPoint sweep (fixed intervals of 1K/10K/100K,
// paper: 1M/10M/100M, versus phase-marker VLIs filtered to 95%/99%/100%
// execution coverage), seen as simulation time and as CPI error.
//
// Fig. 11's expected shape: simulation time scales with interval size for
// the fixed configurations, and VLI_99% lands near SP_10k (the paper's
// conclusion: "about the same simulation time as 10m fixed length SimPoint
// with a comparable error rate").
//
// Fig. 12's: smaller fixed intervals estimate better; the VLI
// configurations are comparable to SP_10k — the paper's point is not
// accuracy improvement but that VLI simulation points are defined by
// source-level markers and therefore portable across compilations.
//===----------------------------------------------------------------------===//

const std::vector<std::string> SimPointHeader = {
    "benchmark", "SP_1k",   "SP_10k",  "SP_100k",
    "VLI_95%",   "VLI_99%", "VLI_100%"};

bool fig11SimTime(RowMemo &Memo) {
  std::printf("=== Figure 11: simulated instructions per configuration "
              "===\n\n");
  std::vector<NamedValues> Rows;
  for (const SimPointRow *R :
       Memo.simPoint(WorkloadRegistry::behaviorSuite())) {
    Rows.push_back({R->Name, {}});
    for (const CpiEstimate &E : R->Est)
      Rows.back().Vals.push_back(static_cast<double>(E.SimulatedInstrs));
  }
  std::printf("%s", averagedTable(SimPointHeader, Rows,
                                  {.Precision = 0, .AvgPrecision = 0})
                        .c_str());
  return true;
}

bool fig12CpiError(RowMemo &Memo) {
  std::printf("=== Figure 12: SimPoint CPI relative error ===\n\n");
  std::vector<NamedValues> Rows;
  for (const SimPointRow *R :
       Memo.simPoint(WorkloadRegistry::behaviorSuite())) {
    Rows.push_back({R->Name, {}});
    for (const CpiEstimate &E : R->Est)
      Rows.back().Vals.push_back(E.RelError);
  }
  std::printf("%s", averagedTable(SimPointHeader, Rows, PercentFormat).c_str());
  return true;
}

//===----------------------------------------------------------------------===//
// Ablations for the design choices DESIGN.md calls out (beyond the
// procedures-only ablation that Figs. 7-10 already carry):
//
//  1. CoV threshold scaling: the paper scales each edge's threshold
//     between avg(CoV) and avg(CoV)+stddev(CoV) by its distance from
//     ilower; the ablation applies the flat avg(CoV) to everyone.
//  2. Iteration-grouping divisor: the paper picks N with
//     (avg iterations mod N) closest to zero; the ablation uses naive
//     ceil(ilower / A).
//  3. Head vs body marking: how the selected markers split across
//     loop-entry (head), per-iteration (body), and procedure edges.
//===----------------------------------------------------------------------===//

/// Cross-trained markers under one selector configuration, run on ref.
struct AblationResult {
  uint64_t Markers = 0;
  uint64_t Grouped = 0; ///< Markers that group loop iterations (GroupN > 1).
  double AvgIv = 0.0;
  double Cov = 0.0;
};

AblationResult evaluate(const Prepared &P, const SelectorConfig &C) {
  SelectionResult Sel = selectMarkers(*P.GTrain, C);
  MarkerRun R = runMarkerIntervals(*P.Bin, P.Loops, *P.GTrain, Sel.Markers,
                                   P.W.Ref, false);
  ClassificationSummary S = summarizeClassification(
      R.Intervals, phasesFromRecords(R.Intervals), cpiMetric);
  AblationResult A;
  A.Markers = Sel.Markers.size();
  for (const Marker &M : Sel.Markers.markers())
    A.Grouped += M.GroupN > 1;
  A.AvgIv = S.AvgIntervalLen;
  A.Cov = S.OverallCov;
  return A;
}

bool ablationSelector(RowMemo &Memo) {
  struct Row {
    std::string Name;
    AblationResult Base, Flat, Limit, Naive;
    uint64_t Head = 0, Body = 0, Proc = 0;
  };
  std::vector<const Prepared *> Suite =
      Memo.prepared(WorkloadRegistry::behaviorSuite());
  std::vector<Row> Rows = parallelMap(Suite.size(), [&](size_t I) {
    const Prepared &P = *Suite[I];
    Row R;
    R.Name = P.W.displayName();
    SelectorConfig Flat = noLimitConfig();
    Flat.FlatCovThreshold = true;
    SelectorConfig Naive = limitConfig();
    Naive.NaiveGrouping = true;
    R.Base = evaluate(P, noLimitConfig());
    R.Flat = evaluate(P, Flat);
    R.Limit = evaluate(P, limitConfig());
    R.Naive = evaluate(P, Naive);
    MarkerSet M = selectMarkers(*P.GTrain, noLimitConfig()).Markers;
    for (const Marker &Mk : M.markers()) {
      switch (P.GTrain->node(Mk.To).K) {
      case NodeKind::LoopHead:
        ++R.Head;
        break;
      case NodeKind::LoopBody:
        ++R.Body;
        break;
      default:
        ++R.Proc;
        break;
      }
    }
    return R;
  });

  std::printf("=== Ablation 1: CoV-threshold scaling (no-limit markers, "
              "cross-trained) ===\n\n");
  Table T1;
  T1.row()
      .cell("benchmark")
      .cell("mkrs")
      .cell("avgIv")
      .cell("CoV")
      .cell("mkrs(flat)")
      .cell("avgIv(flat)")
      .cell("CoV(flat)");
  for (const Row &R : Rows)
    T1.row()
        .cell(R.Name)
        .cell(R.Base.Markers)
        .cell(R.Base.AvgIv, 0)
        .percentCell(R.Base.Cov)
        .cell(R.Flat.Markers)
        .cell(R.Flat.AvgIv, 0)
        .percentCell(R.Flat.Cov);
  std::printf("%s\nthe scaled threshold admits near-ilower kernels the "
              "flat threshold rejects (more markers, finer intervals).\n\n",
              T1.str().c_str());

  std::printf("=== Ablation 2: iteration-grouping divisor (limit mode) "
              "===\n\n");
  Table T2;
  T2.row()
      .cell("benchmark")
      .cell("grouped mkrs")
      .cell("avgIv")
      .cell("grouped(naive)")
      .cell("avgIv(naive)");
  for (const Row &R : Rows)
    T2.row()
        .cell(R.Name)
        .cell(R.Limit.Grouped)
        .cell(R.Limit.AvgIv, 0)
        .cell(R.Naive.Grouped)
        .cell(R.Naive.AvgIv, 0);
  std::printf("%s\nthe mod-minimizing divisor aligns interval groups with "
              "loop entries; naive division leaves ragged tail intervals.\n\n",
              T2.str().c_str());

  std::printf("=== Ablation 3: where markers land (head vs body vs "
              "procedure edges) ===\n\n");
  Table T3;
  T3.row()
      .cell("benchmark")
      .cell("loop-head")
      .cell("loop-body")
      .cell("proc")
      .cell("total");
  for (const Row &R : Rows)
    T3.row()
        .cell(R.Name)
        .cell(R.Head)
        .cell(R.Body)
        .cell(R.Proc)
        .cell(R.Base.Markers);
  std::printf("%s", T3.str().c_str());
  return true;
}

//===----------------------------------------------------------------------===//
// CPI-model robustness. The marker selection algorithm is
// architecture-metric *independent*: it sees only hierarchical instruction
// counts (Sec. 2.3 — "an architecture metric independent method for
// modeling variance"). The *evaluation* metric (per-phase CoV of CPI) does
// depend on the performance model, so this ablation recomputes Fig. 9
// under different machine parameters:
//
//  1. Penalty sweep: the same counters re-priced for a compute-bound
//     machine (miss 6 / mispredict 2), the default (24/8), and a
//     memory-bound one (80/20). The markers' phase homogeneity must hold
//     across all three — and does, because the phases are homogeneous in
//     the underlying *events*, not just in one weighting of them.
//
//  2. Hierarchy: adding a 512KB L2. At our ~1000x-reduced run lengths the
//     L2 never fully reaches steady state, so cold-start transients leak
//     across interval boundaries and inflate the CoV of *every*
//     classification (the whole-program column inflates too). The paper's
//     10M-instruction intervals amortize this; we report the L2 column as
//     a documented scale caveat rather than a conclusion.
//===----------------------------------------------------------------------===//

/// CPI of an interval under explicit penalties (re-pricing the counters).
MetricFn cpiWith(uint64_t Miss, uint64_t Mispredict) {
  return [Miss, Mispredict](const IntervalRecord &R) {
    return PerfMetrics::from(R.Perf, Miss, Mispredict).Cpi;
  };
}

bool ablationPerfModel(RowMemo &Memo) {
  std::printf("=== Ablation: per-phase CoV of CPI under different machine "
              "models ===\n\n");
  struct Penalties {
    const char *Name;
    uint64_t Miss, Mispredict;
  } Models[3] = {{"compute-bound 6/2", 6, 2},
                 {"default 24/8", 24, 8},
                 {"memory-bound 80/20", 80, 20}};

  std::vector<std::string> Header = {"benchmark"};
  for (const auto &M : Models) {
    Header.push_back(std::string("CoV ") + M.Name);
    Header.push_back("whole");
  }
  std::vector<const Prepared *> Suite =
      Memo.prepared(WorkloadRegistry::behaviorSuite());
  std::vector<NamedValues> Rows = parallelMap(Suite.size(), [&](size_t I) {
    const Prepared &P = *Suite[I];
    SelectionResult Sel = selectMarkers(*P.GTrain, noLimitConfig());
    MarkerRun R = runMarkerIntervals(*P.Bin, P.Loops, *P.GTrain,
                                     Sel.Markers, P.W.Ref, false);
    std::vector<IntervalRecord> Fixed =
        runFixedIntervals(*P.Bin, P.W.Ref, FixedBbvInterval, false);
    NamedValues Row{P.W.displayName(), {}};
    for (const auto &M : Models) {
      MetricFn F = cpiWith(M.Miss, M.Mispredict);
      Row.Vals.push_back(summarizeClassification(
                             R.Intervals, phasesFromRecords(R.Intervals), F)
                             .OverallCov);
      Row.Vals.push_back(wholeProgramCov(Fixed, F));
    }
    return Row;
  });
  std::printf("%s\n", averagedTable(Header, Rows, PercentFormat).c_str());
  std::printf("the same markers (selection never sees the performance "
              "model) keep phases 4-8x more homogeneous than the whole "
              "program under every pricing.\n\n");

  // The L2 caveat, measured rather than asserted.
  std::printf("=== Scale caveat: 512KB L2 warm-up transients ===\n\n");
  PerfModelOptions WithL2;
  WithL2.EnableL2 = true;
  std::vector<const Prepared *> Caveat =
      Memo.prepared({"gzip", "bzip2", "mcf"});
  std::vector<NamedValues> L2Rows = parallelMap(Caveat.size(), [&](size_t I) {
    const Prepared &P = *Caveat[I];
    SelectionResult Sel = selectMarkers(*P.GTrain, noLimitConfig());
    NamedValues Row{P.W.displayName(), {}};
    for (const PerfModelOptions &Use : {PerfModelOptions(), WithL2}) {
      MarkerRun R = runMarkerIntervals(
          *P.Bin, P.Loops, *P.GTrain, Sel.Markers, P.W.Ref, false, false,
          std::numeric_limits<uint64_t>::max(), Use);
      Row.Vals.push_back(
          summarizeClassification(R.Intervals, phasesFromRecords(R.Intervals),
                                  cpiMetric)
              .OverallCov);
      Row.Vals.push_back(wholeProgramCov(
          runFixedIntervals(*P.Bin, P.W.Ref, FixedBbvInterval, false,
                            std::numeric_limits<uint64_t>::max(), Use),
          cpiMetric));
    }
    return Row;
  });
  Table L;
  L.row().cell("benchmark").cell("CoV (L1)").cell("whole (L1)").cell(
      "CoV (L1+L2)").cell("whole (L1+L2)");
  for (const NamedValues &R : L2Rows) {
    L.row().cell(R.Name);
    for (double V : R.Vals)
      L.percentCell(V);
  }
  std::printf("%s\nwith an L2, cold-start transients leak across interval "
              "boundaries at this run scale and inflate every CoV column; "
              "see EXPERIMENTS.md.\n",
              L.str().c_str());
  return true;
}

//===----------------------------------------------------------------------===//
// Not a paper figure: a one-stop overview of the 16 synthetic workloads
// (the substitution DESIGN.md describes for SPEC) so a user can sanity-
// check the suite at a glance — run sizes, static shape, marker yield, and
// phase quality on the ref input.
//===----------------------------------------------------------------------===//

bool suiteSummary(RowMemo &Memo) {
  std::printf("=== Workload suite overview ===\n\n");
  Table T;
  T.row()
      .cell("workload")
      .cell("funcs")
      .cell("blocks")
      .cell("loops")
      .cell("train Minstr")
      .cell("ref Minstr")
      .cell("mkrs")
      .cell("phases")
      .cell("avgIv")
      .cell("CoV CPI")
      .cell("whole@10k");

  std::vector<const Prepared *> All =
      Memo.prepared(WorkloadRegistry::allNames());
  std::vector<SuiteRow> Rows = parallelMap(
      All.size(), [&](size_t I) { return computeSuiteRow(*All[I]); });
  for (const SuiteRow &Row : Rows) {
    T.row()
        .cell(Row.Name)
        .cell(Row.Funcs)
        .cell(Row.Blocks)
        .cell(Row.Loops)
        .cell(Row.TrainMInstr, 2)
        .cell(Row.RefMInstr, 2)
        .cell(Row.Markers)
        .cell(Row.Phases)
        .cell(Row.AvgIv, 0)
        .percentCell(Row.CovCpi)
        .percentCell(Row.Whole10K);
  }
  std::printf("%s", T.str().c_str());
  return true;
}

//===----------------------------------------------------------------------===//
// Sec. 5.1: "Many programs exhibit repeating behavior at different time
// scales. ... Our call-graph can be used to find both large and small scale
// phase behaviors". This sweeps ilower across three orders of magnitude on
// a few structurally rich workloads and reports how the marker set walks
// up the call-loop hierarchy: small ilower marks inner loops (many markers,
// fine intervals), large ilower marks outer constructs (few markers, coarse
// intervals), with interval length tracking ilower throughout.
//===----------------------------------------------------------------------===//

bool granularitySweep(RowMemo &Memo) {
  std::printf("=== Sec. 5.1: marker granularity tracks ilower ===\n\n");
  const uint64_t Sweep[] = {1000, 10000, 100000, 1000000};

  std::vector<const Prepared *> Ps =
      Memo.prepared({"gzip", "mgrid", "gcc", "tomcatv"});
  std::vector<std::string> Tables = parallelMap(Ps.size(), [&](size_t I) {
    const Prepared &P = *Ps[I];
    Table T;
    T.row()
        .cell("ilower")
        .cell("candidates")
        .cell("markers")
        .cell("intervals")
        .cell("avg interval")
        .cell("CoV CPI");
    for (uint64_t IL : Sweep) {
      SelectorConfig C;
      C.ILower = IL;
      SelectionResult Sel = selectMarkers(*P.GRef, C);
      MarkerRun R = runMarkerIntervals(*P.Bin, P.Loops, *P.GRef,
                                       Sel.Markers, P.W.Ref, false);
      ClassificationSummary S = summarizeClassification(
          R.Intervals, phasesFromRecords(R.Intervals), cpiMetric);
      T.row()
          .cell(IL)
          .cell(static_cast<uint64_t>(Sel.NumCandidates))
          .cell(static_cast<uint64_t>(Sel.Markers.size()))
          .cell(static_cast<uint64_t>(S.NumIntervals))
          .cell(S.AvgIntervalLen, 0)
          .percentCell(S.OverallCov);
    }
    return P.W.displayName() + ":\n" + T.str();
  });
  for (const std::string &T : Tables)
    std::printf("%s\n", T.c_str());
  std::printf("markers thin out and intervals grow as ilower rises: the "
              "selector climbs the call-loop hierarchy.\n");
  return true;
}

//===----------------------------------------------------------------------===//
// The figure table and the command line
//===----------------------------------------------------------------------===//

struct Figure {
  const char *Name;
  /// Prints the figure to stdout; false when its self-check fails.
  bool (*Render)(RowMemo &);
};

const Figure Figures[] = {
    {"fig03_timevarying", fig03TimeVarying},
    {"fig04_crossbinary", fig04CrossBinary},
    {"fig05_06_projection", fig0506Projection},
    {"fig07_interval_length", fig07IntervalLength},
    {"fig08_num_phases", fig08NumPhases},
    {"fig09_cov_cpi", fig09CovCpi},
    {"fig10_cache_reconfig", fig10CacheReconfig},
    {"fig11_simtime", fig11SimTime},
    {"fig12_cpi_error", fig12CpiError},
    {"ablation_selector", ablationSelector},
    {"ablation_perfmodel", ablationPerfModel},
    {"suite_summary", suiteSummary},
    {"granularity_sweep", granularitySweep},
};

int usage() {
  std::fprintf(stderr, "usage: spm_figures [--jobs N] [NAME...]\nNAME is "
                       "one of:");
  for (const Figure &F : Figures)
    std::fprintf(stderr, " %s", F.Name);
  std::fprintf(stderr, "\n");
  return 2;
}

} // namespace

int main(int Argc, char **Argv) {
  std::vector<const Figure *> Selected;
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (Arg == "--jobs") {
      if (I + 1 == Argc) {
        std::fprintf(stderr, "arg[--jobs]: missing value\n");
        return 2;
      }
      uint64_t N = 0;
      if (!parseCount("--jobs", Argv[++I], N, INT_MAX))
        return 2;
      setParallelJobs(static_cast<int>(N));
      continue;
    }
    const Figure *Found = nullptr;
    for (const Figure &F : Figures)
      if (Arg == F.Name)
        Found = &F;
    if (!Found) {
      if (!Arg.empty() && Arg[0] == '-')
        std::fprintf(stderr, "unknown option %s\n", Arg.c_str());
      else
        std::fprintf(stderr, "unknown figure %s\n", Arg.c_str());
      return usage();
    }
    Selected.push_back(Found);
  }
  if (Selected.empty())
    for (const Figure &F : Figures)
      Selected.push_back(&F);

  RowMemo Memo;
  bool Ok = true;
  for (const Figure *F : Selected)
    Ok = F->Render(Memo) && Ok;
  return Ok ? 0 : 1;
}
