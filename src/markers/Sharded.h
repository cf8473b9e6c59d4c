//===- markers/Sharded.h - Sharded pipeline execution -----------*- C++ -*-===//
//
// Part of the SPM project: reproduction of "Selecting Software Phase Markers
// with Code Structure Analysis" (CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shard-level execution: split one deterministic run into N instruction-
/// count shards, execute them as independent resumable segments, and merge
/// the per-shard outputs into results byte-identical to the uninterrupted
/// run. See docs/sharding.md for the design.
///
/// Three phases:
///  1. Plan — a mem-skipped pre-run with a null observer measures the run
///     length; boundaries fall at i*Total/N.
///  2. Warm — a serial fast-forward chain executes segment after segment,
///     capturing a PipelineCheckpoint at every boundary. Cache contents,
///     predictor counters, and tracker stacks are history-dependent, so
///     this functional warming (SMARTS-style) cannot be skipped; for graph
///     profiling the chain carries only interpreter + tracker and is cheap.
///  3. Shard — every shard restores its checkpoint and re-executes its
///     segment in parallel on the ambient thread pool, recording outputs.
///     A leg that throws is re-run from its boundary checkpoint under the
///     bounded ShardRetryPolicy; legs are pure replays of immutable
///     checkpoints, so retries stay byte-identical (docs/robustness.md).
///
/// Merging is deterministic and exact:
///  - Interval records concatenate in shard order. An interval spanning a
///    boundary is emitted exactly once — by the shard where it cuts — with
///    exact content, because the open interval's partial state (position,
///    BBV, counter snapshot) traveled in the checkpoint.
///  - Marker firings concatenate in shard order.
///  - Graph statistics replay per-shard ordered traversal logs into one
///    graph, reproducing the sequential Welford accumulation bit-for-bit.
///    A traversal spanning a boundary is recorded once, by the shard that
///    closes the frame, with the carried partial hierarchical count.
///    (CallLoopGraph::mergeFrom offers the cheaper Chan-merge alternative
///    when bit-identity is not required.)
///
/// On a single-CPU host the value is checkpointing itself (resumable runs,
/// differential testing); with cores, phase 3 parallelizes the expensive
/// full-observation pass.
///
//===----------------------------------------------------------------------===//

#ifndef SPM_MARKERS_SHARDED_H
#define SPM_MARKERS_SHARDED_H

#include "callloop/Profile.h"
#include "markers/Checkpoint.h"
#include "markers/Pipeline.h"
#include "support/FailPoint.h"
#include "support/FlightRecorder.h"
#include "support/Metrics.h"
#include "support/Parallel.h"
#include "support/Trace.h"

#include <cassert>
#include <chrono>
#include <limits>
#include <memory>
#include <vector>

namespace spm {

/// Tracker listener that records every finished edge traversal in stream
/// order, for exact-order replay into a graph during shard merge.
class TraversalLog : public TrackerListener {
public:
  struct Entry {
    NodeId From;
    NodeId To;
    uint64_t Hier;
  };

  void onEdgeEnd(NodeId From, NodeId To, uint64_t HierInstrs) override {
    Log.push_back({From, To, HierInstrs});
  }

  std::vector<Entry> Log;
};

/// Segment end positions (cumulative instruction counts) for an N-shard
/// split. Until.size() == N; the last entry is the caller's original
/// MaxInstrs so the final shard terminates exactly as run() would.
struct ShardPlan {
  std::vector<uint64_t> Until;
};

/// Plans \p NShards boundaries by measuring the run length with a null
/// observer (memory generation skipped, so this is the cheapest possible
/// pass over the control flow).
inline ShardPlan
planShards(const Binary &B, const WorkloadInput &In, unsigned NShards,
           uint64_t MaxInstrs = std::numeric_limits<uint64_t>::max(),
           const BytecodeModule *Bc = nullptr) {
  assert(NShards >= 1 && "need at least one shard");
  SPM_TRACE_SPAN("shard.plan");
  struct NullObs {};
  NullObs O;
  Interpreter Interp(B, In);
  uint64_t Total = (Bc ? Interp.runBytecode(*Bc, O, MaxInstrs)
                       : Interp.runFast(O, MaxInstrs))
                       .TotalInstrs;

  ShardPlan P;
  P.Until.reserve(NShards);
  for (unsigned S = 0; S + 1 < NShards; ++S)
    P.Until.push_back(Total * (S + 1) / NShards);
  P.Until.push_back(MaxInstrs);
  return P;
}

/// Bounded retry for shard legs (docs/robustness.md). A leg is a pure
/// replay: it builds a fresh interpreter + observer stack and restores from
/// an immutable boundary checkpoint, so re-running a failed attempt cannot
/// observe partial state from the one that died — which is what makes
/// retry-after-fault byte-identical to a clean run (pinned by the fault
/// fuzz suite). A leg that keeps failing rethrows its last exception after
/// MaxRetries re-attempts, and parallelMap surfaces it to the driver's
/// caller.
struct ShardRetryPolicy {
  /// Re-attempts after the first failure (total attempts = MaxRetries + 1).
  unsigned MaxRetries = 2;
};

namespace detail {

inline double secondsSince(std::chrono::steady_clock::time_point T0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - T0)
      .count();
}

/// Runs one shard-leg attempt loop under \p Retry. Every attempt — not
/// every leg — counts in `shard.runs` and crosses the `shard.exec`
/// failpoint, so observability tests can pin exact attempt totals and the
/// fault suite can kill any attempt it likes.
template <class Fn>
auto runShardLegWithRetry(const ShardRetryPolicy &Retry, Fn &&Leg) {
  for (unsigned Attempt = 0;; ++Attempt) {
    try {
      SPM_TRACE_SPAN("shard.exec");
      flightRecord("shard.exec", "attempt=" + std::to_string(Attempt));
      metrics().counter("shard.runs").add(1);
      SPM_FAILPOINT("shard.exec");
      return Leg();
    } catch (const std::exception &E) {
      if (Attempt >= Retry.MaxRetries)
        throw;
      flightRecord("shard.retry", E.what());
      metrics().counter("shard.retries").add(1);
    }
  }
}

/// Runs one segment on whichever execution tier \p Bc selects. Checkpoints
/// are tier-independent (ResumeFrame stacks address source structure, not
/// engine state), so a single warm/shard chain can mix tiers freely. A
/// fused module works here unchanged: shard boundaries are arbitrary
/// instruction counts, and a resume pc that lands inside a fused tape's
/// op span executes the original ops until the next tape start, while the
/// tape budget guard keeps suspensions at the same block boundaries every
/// tier uses (vm/Fusion.h).
template <class ObsT>
RunResult segmentWithEngine(Interpreter &I, const BytecodeModule *Bc,
                            ObsT &Obs, const InterpCheckpoint *From,
                            uint64_t UntilInstrs,
                            InterpCheckpoint *Out = nullptr) {
  return Bc ? I.runBytecodeSegment(*Bc, Obs, From, UntilInstrs, Out)
            : I.runFastSegment(Obs, From, UntilInstrs, Out);
}

} // namespace detail

/// Sharded call-loop graph profiling: byte-identical to buildCallLoopGraph
/// for any shard count. The warming chain carries interpreter + tracker
/// only. \p ShardSeconds, when non-null, receives per-shard wall times.
/// \p Bc, when non-null, runs every segment on the bytecode tier.
inline std::unique_ptr<CallLoopGraph> buildCallLoopGraphSharded(
    const Binary &B, const LoopIndex &Loops, const WorkloadInput &In,
    unsigned NShards,
    uint64_t MaxInstrs = std::numeric_limits<uint64_t>::max(),
    std::vector<double> *ShardSeconds = nullptr,
    const BytecodeModule *Bc = nullptr,
    const ShardRetryPolicy &Retry = ShardRetryPolicy()) {
  if (NShards <= 1) {
    auto T0 = std::chrono::steady_clock::now();
    auto G = buildCallLoopGraph(B, Loops, In, MaxInstrs, Bc);
    if (ShardSeconds)
      ShardSeconds->push_back(detail::secondsSince(T0));
    return G;
  }

  ShardPlan Plan = planShards(B, In, NShards, MaxInstrs, Bc);
  auto G = std::make_unique<CallLoopGraph>(B, Loops);

  // Warm: interpreter + bare tracker (no listeners, no profile target).
  std::vector<PipelineCheckpoint> Cks(NShards - 1);
  {
    SPM_TRACE_SPAN("shard.warm");
    Interpreter Interp(B, In);
    CallLoopTracker Tracker(B, Loops, *G);
    Tracker.onRunStart(B, In);
    const InterpCheckpoint *From = nullptr;
    for (unsigned S = 0; S + 1 < NShards; ++S) {
      detail::segmentWithEngine(Interp, Bc, Tracker, From, Plan.Until[S],
                                &Cks[S].Interp);
      Cks[S].Seed = In.seed();
      Cks[S].HasTracker = true;
      Cks[S].Tracker = Tracker.saveState();
      From = &Cks[S].Interp;
    }
  }

  // Shard: replay each segment with a traversal log.
  struct Out {
    std::vector<TraversalLog::Entry> Log;
    double Sec = 0.0;
  };
  auto Leg = [&](size_t S) {
    auto T0 = std::chrono::steady_clock::now();
    auto O = std::make_unique<Out>();
    Interpreter Interp(B, In);
    CallLoopTracker Tracker(B, Loops, *G);
    TraversalLog Log;
    Tracker.addListener(&Log);
    RunResult R;
    if (S == 0) {
      Tracker.onRunStart(B, In);
      R = detail::segmentWithEngine(Interp, Bc, Tracker, nullptr,
                                    Plan.Until[0]);
    } else {
      bool OK = Tracker.restoreState(Cks[S - 1].Tracker);
      assert(OK && "tracker checkpoint does not fit the binary");
      (void)OK;
      R = detail::segmentWithEngine(Interp, Bc, Tracker, &Cks[S - 1].Interp,
                                    Plan.Until[S]);
    }
    if (S + 1 == NShards)
      Tracker.onRunEnd(R.TotalInstrs); // Pop-all, as run() does.
    O->Log = std::move(Log.Log);
    O->Sec = detail::secondsSince(T0);
    return O;
  };
  std::vector<std::unique_ptr<Out>> Outs =
      parallelMap(NShards, [&](size_t S) {
        return detail::runShardLegWithRetry(Retry, [&] { return Leg(S); });
      });

  // Merge: replay the logs in shard order — the concatenation is the exact
  // traversal-end order of the uninterrupted run, so the Welford updates
  // happen in the same sequence on the same values.
  {
    SPM_TRACE_SPAN("shard.merge");
    for (const auto &O : Outs) {
      for (const TraversalLog::Entry &E : O->Log)
        G->addTraversal(E.From, E.To, E.Hier);
      if (ShardSeconds)
        ShardSeconds->push_back(O->Sec);
    }
    G->finalize();
  }
  return G;
}

/// Sharded marker-instrumented run: intervals, firings, and run totals
/// byte-identical to runMarkerIntervals for any shard count.
/// \p Bc, when non-null, runs every segment on the bytecode tier.
inline MarkerRun runMarkerIntervalsSharded(
    const Binary &B, const LoopIndex &Loops, const CallLoopGraph &G,
    const MarkerSet &M, const WorkloadInput &In, bool CollectBbv,
    bool RecordFirings, unsigned NShards,
    uint64_t MaxInstrs = std::numeric_limits<uint64_t>::max(),
    const PerfModelOptions &PerfOpts = PerfModelOptions(),
    std::vector<double> *ShardSeconds = nullptr,
    const BytecodeModule *Bc = nullptr,
    const ShardRetryPolicy &Retry = ShardRetryPolicy()) {
  if (NShards <= 1) {
    auto T0 = std::chrono::steady_clock::now();
    MarkerRun Out =
        runMarkerIntervals(B, Loops, G, M, In, CollectBbv, RecordFirings,
                           MaxInstrs, PerfOpts, Bc);
    if (ShardSeconds)
      ShardSeconds->push_back(detail::secondsSince(T0));
    return Out;
  }

  ShardPlan Plan = planShards(B, In, NShards, MaxInstrs, Bc);

  // Warm: the full observer stack must run (cache and predictor contents
  // are history-dependent); its outputs are discarded, only boundary
  // checkpoints are kept.
  std::vector<PipelineCheckpoint> Cks(NShards - 1);
  {
    SPM_TRACE_SPAN("shard.warm");
    PerfModel Perf(PerfOpts);
    IntervalBuilder Ivb = IntervalBuilder::markerDriven(&Perf, CollectBbv);
    CallLoopTracker Tracker(B, Loops, G);
    MarkerRuntime Runtime(M, G);
    Tracker.addListener(&Runtime);
    Runtime.setCallback([&](int32_t Idx) { Ivb.requestCut(Idx); });
    StaticMux<CallLoopTracker, IntervalBuilder, PerfModel> Mux(Tracker, Ivb,
                                                               Perf);
    Interpreter Interp(B, In);
    Mux.onRunStart(B, In);
    const InterpCheckpoint *From = nullptr;
    for (unsigned S = 0; S + 1 < NShards; ++S) {
      detail::segmentWithEngine(Interp, Bc, Mux, From, Plan.Until[S],
                                &Cks[S].Interp);
      Cks[S].Seed = In.seed();
      Cks[S].HasTracker = true;
      Cks[S].Tracker = Tracker.saveState();
      Cks[S].HasInterval = true;
      Cks[S].Interval = Ivb.saveState();
      Cks[S].HasPerf = true;
      Cks[S].Perf = Perf.saveState();
      Cks[S].HasMarkers = true;
      Cks[S].Markers = Runtime.saveState();
      From = &Cks[S].Interp;
    }
  }

  // Shard: restore and record.
  struct Out {
    std::vector<IntervalRecord> Iv;
    std::vector<int32_t> Fr;
    RunResult R;
    double Sec = 0.0;
  };
  auto Leg = [&](size_t S) {
    auto T0 = std::chrono::steady_clock::now();
    auto O = std::make_unique<Out>();
    PerfModel Perf(PerfOpts);
    IntervalBuilder Ivb = IntervalBuilder::markerDriven(&Perf, CollectBbv);
    CallLoopTracker Tracker(B, Loops, G);
    MarkerRuntime Runtime(M, G);
    Tracker.addListener(&Runtime);
    Runtime.setCallback([&, OutP = O.get()](int32_t Idx) {
      Ivb.requestCut(Idx);
      if (RecordFirings)
        OutP->Fr.push_back(Idx);
    });
    StaticMux<CallLoopTracker, IntervalBuilder, PerfModel> Mux(Tracker, Ivb,
                                                               Perf);
    Interpreter Interp(B, In);
    if (S == 0) {
      Mux.onRunStart(B, In);
      O->R = detail::segmentWithEngine(Interp, Bc, Mux, nullptr,
                                       Plan.Until[0]);
    } else {
      const PipelineCheckpoint &C = Cks[S - 1];
      bool OK = Tracker.restoreState(C.Tracker) && Perf.restoreState(C.Perf) &&
                Runtime.restoreState(C.Markers);
      assert(OK && "checkpoint does not fit this pipeline");
      (void)OK;
      Ivb.restoreState(C.Interval);
      O->R = detail::segmentWithEngine(Interp, Bc, Mux, &C.Interp,
                                       Plan.Until[S]);
    }
    if (S + 1 == NShards)
      Mux.onRunEnd(O->R.TotalInstrs); // Pop-all + final interval cut.
    O->Iv = Ivb.takeIntervals();
    O->Sec = detail::secondsSince(T0);
    return O;
  };
  std::vector<std::unique_ptr<Out>> Outs =
      parallelMap(NShards, [&](size_t S) {
        return detail::runShardLegWithRetry(Retry, [&] { return Leg(S); });
      });

  SPM_TRACE_SPAN("shard.merge");
  MarkerRun Out;
  Out.Run = Outs.back()->R; // Cumulative totals; limit flag of the final
                            // segment, whose budget is the original cap.
  for (auto &O : Outs) {
    Out.Intervals.insert(Out.Intervals.end(),
                         std::make_move_iterator(O->Iv.begin()),
                         std::make_move_iterator(O->Iv.end()));
    Out.Firings.insert(Out.Firings.end(), O->Fr.begin(), O->Fr.end());
    if (ShardSeconds)
      ShardSeconds->push_back(O->Sec);
  }
  return Out;
}

/// Sharded fixed-length interval run: byte-identical to runFixedIntervals
/// for any shard count. \p Bc, when non-null, runs every segment on the
/// bytecode tier.
inline std::vector<IntervalRecord> runFixedIntervalsSharded(
    const Binary &B, const WorkloadInput &In, uint64_t Len, bool CollectBbv,
    unsigned NShards,
    uint64_t MaxInstrs = std::numeric_limits<uint64_t>::max(),
    const PerfModelOptions &PerfOpts = PerfModelOptions(),
    std::vector<double> *ShardSeconds = nullptr,
    const BytecodeModule *Bc = nullptr,
    const ShardRetryPolicy &Retry = ShardRetryPolicy()) {
  if (NShards <= 1) {
    auto T0 = std::chrono::steady_clock::now();
    auto Out = runFixedIntervals(B, In, Len, CollectBbv, MaxInstrs, PerfOpts,
                                 Bc);
    if (ShardSeconds)
      ShardSeconds->push_back(detail::secondsSince(T0));
    return Out;
  }

  ShardPlan Plan = planShards(B, In, NShards, MaxInstrs, Bc);

  std::vector<PipelineCheckpoint> Cks(NShards - 1);
  {
    SPM_TRACE_SPAN("shard.warm");
    PerfModel Perf(PerfOpts);
    IntervalBuilder Ivb = IntervalBuilder::fixedLength(Len, &Perf,
                                                       CollectBbv);
    StaticMux<IntervalBuilder, PerfModel> Mux(Ivb, Perf);
    Interpreter Interp(B, In);
    Mux.onRunStart(B, In);
    const InterpCheckpoint *From = nullptr;
    for (unsigned S = 0; S + 1 < NShards; ++S) {
      detail::segmentWithEngine(Interp, Bc, Mux, From, Plan.Until[S],
                                &Cks[S].Interp);
      Cks[S].Seed = In.seed();
      Cks[S].HasInterval = true;
      Cks[S].Interval = Ivb.saveState();
      Cks[S].HasPerf = true;
      Cks[S].Perf = Perf.saveState();
      From = &Cks[S].Interp;
    }
  }

  struct Out {
    std::vector<IntervalRecord> Iv;
    double Sec = 0.0;
  };
  auto Leg = [&](size_t S) {
    auto T0 = std::chrono::steady_clock::now();
    auto O = std::make_unique<Out>();
    PerfModel Perf(PerfOpts);
    IntervalBuilder Ivb = IntervalBuilder::fixedLength(Len, &Perf,
                                                       CollectBbv);
    StaticMux<IntervalBuilder, PerfModel> Mux(Ivb, Perf);
    Interpreter Interp(B, In);
    RunResult R;
    if (S == 0) {
      Mux.onRunStart(B, In);
      R = detail::segmentWithEngine(Interp, Bc, Mux, nullptr, Plan.Until[0]);
    } else {
      const PipelineCheckpoint &C = Cks[S - 1];
      bool OK = Perf.restoreState(C.Perf);
      assert(OK && "perf checkpoint does not fit this model");
      (void)OK;
      Ivb.restoreState(C.Interval);
      R = detail::segmentWithEngine(Interp, Bc, Mux, &C.Interp,
                                    Plan.Until[S]);
    }
    if (S + 1 == NShards)
      Mux.onRunEnd(R.TotalInstrs);
    O->Iv = Ivb.takeIntervals();
    O->Sec = detail::secondsSince(T0);
    return O;
  };
  std::vector<std::unique_ptr<Out>> Outs =
      parallelMap(NShards, [&](size_t S) {
        return detail::runShardLegWithRetry(Retry, [&] { return Leg(S); });
      });

  SPM_TRACE_SPAN("shard.merge");
  std::vector<IntervalRecord> Merged;
  for (auto &O : Outs) {
    Merged.insert(Merged.end(), std::make_move_iterator(O->Iv.begin()),
                  std::make_move_iterator(O->Iv.end()));
    if (ShardSeconds)
      ShardSeconds->push_back(O->Sec);
  }
  return Merged;
}

} // namespace spm

#endif // SPM_MARKERS_SHARDED_H
