//===- bench/fig03_timevarying.cpp - Figure 3 ------------------------------==//
//
// Fig. 3 of the paper: time-varying CPI and DL1 miss rate for gzip-graphic
// with software-phase-marker locations plotted on top. Markers are chosen
// on the *train* input and applied to the *ref* run. The paper plots one
// symbol per marker, showing only the first occurrence of rapidly
// repeating markers; this harness prints the metric series in coarse time
// buckets plus the (deduplicated) marker event list, which is the same
// data the figure draws.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include <cstdio>

using namespace spm;
using namespace spm::bench;

int main() {
  std::printf("=== Figure 3: time-varying behavior with phase markers "
              "(gzip/graphic) ===\n\n");
  Prepared P = prepare("gzip");

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
  uint64_t *InstrSoFar = nullptr;
  RunResult Run;
  Runtime.setCallback([&](int32_t Idx) {
    Events.push_back({InstrSoFar ? *InstrSoFar : 0, Idx});
  });

  // Track retired instructions for event positions.
  struct Counter : ExecutionObserver {
    uint64_t Instrs = 0;
    void onBlock(const LoweredBlock &B) override { Instrs += B.NumInstrs; }
  } Count;
  InstrSoFar = &Count.Instrs;

  ObserverMux Mux;
  Mux.add(&Count);
  Mux.add(&Tracker);
  Mux.add(&Sampler);
  Mux.add(&Perf);
  Interpreter Interp(*P.Bin, P.W.Ref);
  Run = Interp.run(Mux);

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
  std::vector<IntervalRecord> Ivs;
  {
    MarkerRun MR = runMarkerIntervals(*P.Bin, P.Loops, *P.GTrain,
                                      Sel.Markers, P.W.Ref, false);
    Ivs = std::move(MR.Intervals);
  }
  std::map<int32_t, WeightedStat> MissByPhase, LenByPhase;
  for (const IntervalRecord &R : Ivs) {
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
  return 0;
}
