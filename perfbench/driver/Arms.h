//===- perfbench/driver/Arms.h - Subtraction arms ---------------*- C++ -*-===//
//
// Part of the SPM project: reproduction of "Selecting Software Phase Markers
// with Code Structure Analysis" (CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Layer attribution of the observer-composed runs. A driver such as
/// runMarkerIntervals interleaves the interpreter, the call-loop tracker,
/// the marker runtime, the perf model and the interval builder event by
/// event, so no span can separate them. Instead each composition is rebuilt
/// from the public classes one layer at a time, in the driver's observer
/// order, and timed:
///
///   vm        null observer
///   tracker   + CallLoopTracker
///   runtime   + MarkerRuntime
///   perf      + PerfModel
///   full      + IntervalBuilder  (the driver's whole composition)
///
/// A layer's self time is its arm minus the previous arm, so the self times
/// sum to the full arm. The driver itself is timed too: the gap between
/// the full arm and the driver shows whether the arms still reproduce what
/// the driver runs (a changed default engine, say, opens the gap).
///
//===----------------------------------------------------------------------===//

#ifndef SPM_PERFBENCH_ARMS_H
#define SPM_PERFBENCH_ARMS_H

#include "Bench.h"

#include "adaptcache/Policies.h"

namespace perfbench {

/// An observer with no handlers: runFast's bare-interpretation floor.
struct NullObserver {};

/// Bare interpretation of \p In under runFast.
inline double nullRunSeconds(const Program &P, const spm::WorkloadInput &In,
                             int Reps) {
  return fastestOf(Reps, [&] {
    NullObserver N;
    spm::Interpreter(*P.Bin, In).runFast(N);
  });
}

/// Adds the layer self times of one composed run to \p Out. \p Arms are the
/// cumulative arm times in layer order; \p Keys names each layer's self
/// time. The full composition and the driver feed the attribution check.
inline void addArms(Values &Out, const std::vector<double> &Arms,
                    const std::vector<const char *> &Keys, double Driver) {
  for (size_t I = 0; I < Arms.size(); ++I)
    Out[Keys[I]] += I == 0 ? Arms[0] : Arms[I] - Arms[I - 1];
  Out["arms.composed"] += Arms.back();
  Out["arms.driver"] += Driver;
}

/// runMarkerIntervals(B, Loops, G, M, In, CollectBbv), layer by layer.
/// Returns the driver's run.
inline spm::MarkerRun markerRunArms(const Program &P, const spm::CallLoopGraph &G,
                          const spm::MarkerSet &M,
                          const spm::WorkloadInput &In, bool CollectBbv,
                          int Reps, Values &Out) {
  using namespace spm;
  auto Run = [&](auto &Obs) { Interpreter(*P.Bin, In).runFast(Obs); };
  std::vector<double> Arms;
  Arms.push_back(nullRunSeconds(P, In, Reps));
  Arms.push_back(fastestOf(Reps, [&] {
    CallLoopTracker Tracker(*P.Bin, P.Loops, G);
    Run(Tracker);
  }));
  Arms.push_back(fastestOf(Reps, [&] {
    CallLoopTracker Tracker(*P.Bin, P.Loops, G);
    MarkerRuntime Runtime(M, G);
    Tracker.addListener(&Runtime);
    Runtime.setCallback([](int32_t) {});
    Run(Tracker);
  }));
  Arms.push_back(fastestOf(Reps, [&] {
    PerfModel Perf;
    CallLoopTracker Tracker(*P.Bin, P.Loops, G);
    MarkerRuntime Runtime(M, G);
    Tracker.addListener(&Runtime);
    Runtime.setCallback([](int32_t) {});
    StaticMux<CallLoopTracker, PerfModel> Mux(Tracker, Perf);
    Run(Mux);
  }));
  Arms.push_back(fastestOf(Reps, [&] {
    PerfModel Perf;
    IntervalBuilder Ivb = IntervalBuilder::markerDriven(&Perf, CollectBbv);
    CallLoopTracker Tracker(*P.Bin, P.Loops, G);
    MarkerRuntime Runtime(M, G);
    Tracker.addListener(&Runtime);
    Runtime.setCallback([&](int32_t Idx) { Ivb.requestCut(Idx); });
    StaticMux<CallLoopTracker, IntervalBuilder, PerfModel> Mux(Tracker, Ivb,
                                                               Perf);
    Run(Mux);
  }));
  MarkerRun Result;
  double Driver = fastestOf(Reps, [&] {
    Result = runMarkerIntervals(*P.Bin, P.Loops, G, M, In, CollectBbv);
  });
  addArms(Out, Arms,
          {"arms.vm", "callloop.tracker_self", "markers.runtime_self",
           "uarch.perf_self", "trace.intervals_self"},
          Driver);
  return Result;
}

/// runFixedIntervals(B, In, Len, CollectBbv), layer by layer. Returns the
/// driver's intervals for the projection arm.
inline std::vector<spm::IntervalRecord>
fixedRunArms(const Program &P, const spm::WorkloadInput &In, uint64_t Len,
             bool CollectBbv, int Reps, Values &Out) {
  using namespace spm;
  auto Run = [&](auto &Obs) { Interpreter(*P.Bin, In).runFast(Obs); };
  std::vector<double> Arms;
  Arms.push_back(nullRunSeconds(P, In, Reps));
  Arms.push_back(fastestOf(Reps, [&] {
    PerfModel Perf;
    Run(Perf);
  }));
  Arms.push_back(fastestOf(Reps, [&] {
    PerfModel Perf;
    IntervalBuilder Ivb = IntervalBuilder::fixedLength(Len, &Perf, CollectBbv);
    StaticMux<IntervalBuilder, PerfModel> Mux(Ivb, Perf);
    Run(Mux);
  }));
  std::vector<IntervalRecord> Ivs;
  double Driver = fastestOf(
      Reps, [&] { Ivs = runFixedIntervals(*P.Bin, In, Len, CollectBbv); });
  addArms(Out, Arms, {"arms.vm", "uarch.perf_self", "trace.intervals_self"},
          Driver);
  return Ivs;
}

/// runAdaptiveWithMarkers(B, Loops, G, M, In), layer by layer, on the
/// legacy virtual run() + ObserverMux path the driver uses.
inline void adaptiveRunArms(const Program &P, const spm::CallLoopGraph &G,
                            const spm::MarkerSet &M,
                            const spm::WorkloadInput &In, int Reps,
                            Values &Out) {
  using namespace spm;
  auto Run = [&](ObserverMux &Mux) { Interpreter(*P.Bin, In).run(Mux); };
  std::vector<double> Arms;
  Arms.push_back(fastestOf(Reps, [&] {
    ObserverMux Mux;
    Run(Mux);
  }));
  Arms.push_back(fastestOf(Reps, [&] {
    CallLoopTracker Tracker(*P.Bin, P.Loops, G);
    ObserverMux Mux;
    Mux.add(&Tracker);
    Run(Mux);
  }));
  Arms.push_back(fastestOf(Reps, [&] {
    CallLoopTracker Tracker(*P.Bin, P.Loops, G);
    MarkerRuntime Runtime(M, G);
    Tracker.addListener(&Runtime);
    Runtime.setCallback([](int32_t) {});
    ObserverMux Mux;
    Mux.add(&Tracker);
    Run(Mux);
  }));
  Arms.push_back(fastestOf(Reps, [&] {
    AdaptiveCacheEngine Engine;
    CallLoopTracker Tracker(*P.Bin, P.Loops, G);
    MarkerRuntime Runtime(M, G);
    Tracker.addListener(&Runtime);
    Runtime.setCallback([&](int32_t Idx) { Engine.onPhaseBoundary(Idx); });
    ObserverMux Mux;
    Mux.add(&Tracker);
    Mux.add(&Engine);
    Run(Mux);
  }));
  double Driver = fastestOf(
      Reps, [&] { runAdaptiveWithMarkers(*P.Bin, P.Loops, G, M, In); });
  addArms(Out, Arms,
          {"vm.legacy_null", "callloop.tracker_self", "markers.runtime_self",
           "adaptcache.engine_self"},
          Driver);
}

/// The projection step of runSimPoint(Ivs, C), timed on its own; the rest
/// of runSimPoint (k-means over every k with restarts, the BIC choice and
/// point picking) is the clustering time.
inline void projectArm(const std::vector<spm::IntervalRecord> &Ivs,
                       const spm::SimPointConfig &C, Values &Out) {
  Clock::time_point T0 = Clock::now();
  std::vector<spm::ProjectedVec> Pts =
      spm::projectIntervals(Ivs, C.Dim, C.Seed);
  Out["simpoint.project"] += secondsSince(T0);
  Out["simpoint.projected"] += static_cast<double>(Pts.size());
}

} // namespace perfbench

#endif // SPM_PERFBENCH_ARMS_H
