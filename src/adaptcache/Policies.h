//===- adaptcache/Policies.h - Fig. 10 policy drivers -----------*- C++ -*-===//
//
// Part of the SPM project: reproduction of "Selecting Software Phase Markers
// with Code Structure Analysis" (CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One driver per bar of Fig. 10: adaptive reconfiguration steered by our
/// software phase markers, by Shen-style reuse-distance markers, by oracle
/// SimPoint phase ids over fixed-length intervals, and the best-fixed-size
/// baseline.
///
//===----------------------------------------------------------------------===//

#ifndef SPM_ADAPTCACHE_POLICIES_H
#define SPM_ADAPTCACHE_POLICIES_H

#include "adaptcache/AdaptiveCache.h"
#include "markers/Pipeline.h"
#include "reuse/ReuseMarkers.h"
#include "simpoint/SimPoint.h"

#include <vector>

namespace spm {

/// Software-phase-marker policy: boundaries fire when a marked call-loop
/// edge is traversed. Back-to-back firings (e.g. a call edge immediately
/// followed by the callee's head->body edge) are coalesced by the engine.
inline AdaptiveCacheResult
runAdaptiveWithMarkers(const Binary &B, const LoopIndex &Loops,
                       const CallLoopGraph &G, const MarkerSet &M,
                       const WorkloadInput &In) {
  AdaptiveCacheEngine Engine;
  CallLoopTracker Tracker(B, Loops, G);
  MarkerRuntime Runtime(M, G);
  Tracker.addListener(&Runtime);
  Runtime.setCallback(
      [&](int32_t Idx) { Engine.onPhaseBoundary(Idx); });

  StaticMux<CallLoopTracker, AdaptiveCacheEngine> Mux(Tracker, Engine);
  Interpreter(B, In).runFast(Mux);
  return Engine.result();
}

/// Reuse-distance-marker policy (the Shen et al. baseline). An empty
/// marker set degenerates to one phase at the safe (largest) size, which
/// is how the baseline behaves when its analysis finds no structure.
inline AdaptiveCacheResult
runAdaptiveWithReuseMarkers(const Binary &B, const ReuseMarkerSet &M,
                            const WorkloadInput &In) {
  AdaptiveCacheEngine Engine;
  ReuseMarkerRuntime Runtime(M);
  Runtime.setCallback(
      [&](int32_t Idx) { Engine.onPhaseBoundary(Idx); });

  StaticMux<ReuseMarkerRuntime, AdaptiveCacheEngine> Mux(Runtime, Engine);
  Interpreter(B, In).runFast(Mux);
  return Engine.result();
}

/// Feeds precomputed per-interval phase ids (from an oracle clustering) to
/// the engine at fixed-length interval boundaries, mirroring
/// IntervalBuilder's cut rule exactly (cut before the crossing block).
class OracleBoundaryDriver : public ExecutionObserver {
public:
  OracleBoundaryDriver(AdaptiveCacheEngine &Engine, uint64_t FixedLen,
                       std::vector<int32_t> PhaseIds)
      : Engine(Engine), FixedLen(FixedLen), PhaseIds(std::move(PhaseIds)) {}

  void onRunStart(const Binary &B, const WorkloadInput &In) override {
    (void)B;
    (void)In;
    if (!PhaseIds.empty())
      Engine.onPhaseBoundary(PhaseIds[0]);
    Next = 1;
    CurInstrs = 0;
  }

  void onBlock(const LoweredBlock &Blk) override {
    if (CurInstrs >= FixedLen && Next < PhaseIds.size()) {
      Engine.onPhaseBoundary(PhaseIds[Next++]);
      CurInstrs = 0;
    }
    CurInstrs += Blk.NumInstrs;
  }

private:
  AdaptiveCacheEngine &Engine;
  uint64_t FixedLen;
  std::vector<int32_t> PhaseIds;
  size_t Next = 1;
  uint64_t CurInstrs = 0;
};

/// The oracle policy's first pass: fixed-length intervals of \p FixedLen
/// instructions with their BBVs. runSimPoint reads only each interval's
/// Vector and NumInstrs, so no PerfModel runs (Perf counters stay zero),
/// and with no memory observer the interpreter skips address generation.
/// Vector and NumInstrs equal runFixedIntervals(B, In, FixedLen, true)'s.
inline std::vector<IntervalRecord>
oracleBbvIntervals(const Binary &B, const WorkloadInput &In,
                   uint64_t FixedLen) {
  IntervalBuilder Ivb =
      IntervalBuilder::fixedLength(FixedLen, nullptr, /*CollectBbv=*/true);
  Interpreter(B, In).runFast(Ivb);
  return Ivb.takeIntervals();
}

/// Oracle SimPoint/BBV policy: cluster fixed-length BBV intervals offline,
/// then replay with perfect next-interval phase knowledge (the paper's
/// "ideal SimPoint-based approach", a stand-in for hardware BBV phase
/// classification with perfect prediction).
inline AdaptiveCacheResult
runAdaptiveWithOracleBbv(const Binary &B, const WorkloadInput &In,
                         uint64_t FixedLen,
                         const SimPointConfig &SPConfig = SimPointConfig()) {
  // Pass 1: collect BBVs and cluster.
  SimPointResult SP =
      runSimPoint(oracleBbvIntervals(B, In, FixedLen), SPConfig);

  // Pass 2: replay deterministically, steering by the oracle phase ids.
  AdaptiveCacheEngine Engine;
  OracleBoundaryDriver Driver(Engine, FixedLen, SP.Assign);
  StaticMux<OracleBoundaryDriver, AdaptiveCacheEngine> Mux(Driver, Engine);
  Interpreter(B, In).runFast(Mux);
  return Engine.result();
}

/// Whole-run statistics for every configuration of the sweep, plus the
/// best fixed size: the smallest configuration whose hit rate is within
/// \p HitTolAbs (absolute) of the maximum.
struct FixedSizeResult {
  std::vector<CacheStats> PerConfig;
  size_t BestIdx = 0;
  double BestFixedKB = 0.0;
};

inline FixedSizeResult
bestFixedSize(const Binary &B, const WorkloadInput &In,
              double HitTolAbs = 0.0005,
              std::vector<CacheConfig> Sweep = CacheConfig::reconfigSweep()) {
  struct ProbeSink {
    void onMemAccess(uint64_t Addr, bool IsStore) {
      (void)IsStore;
      Probe.access(Addr);
    }
    MultiCacheProbe Probe;
  };

  ProbeSink Sink{MultiCacheProbe(Sweep)};
  Interpreter(B, In).runFast(Sink);

  FixedSizeResult R;
  R.PerConfig = Sink.Probe.statsSnapshot();
  double MaxHit = 0.0;
  for (const CacheStats &S : R.PerConfig)
    MaxHit = std::max(MaxHit, S.hitRate());
  for (size_t I = 0; I < R.PerConfig.size(); ++I) {
    if (R.PerConfig[I].hitRate() >= MaxHit - HitTolAbs) {
      R.BestIdx = I;
      break;
    }
  }
  R.BestFixedKB = Sweep[R.BestIdx].sizeKB();
  return R;
}

/// Profiles a binary and selects reuse markers in one step (the baseline's
/// offline analysis).
inline ReuseMarkerSet profileReuseMarkers(const Binary &B,
                                          const WorkloadInput &In) {
  ReuseSignalCollector Collector;
  Interpreter(B, In).runFast(Collector);
  ReuseProfile P = Collector.takeProfile();
  return selectReuseMarkers(P);
}

} // namespace spm

#endif // SPM_ADAPTCACHE_POLICIES_H
