//===- adaptcache/AdaptiveCache.h - Sec. 6.1 reconfiguration ---*- C++ -*-===//
//
// Part of the SPM project: reproduction of "Selecting Software Phase Markers
// with Code Structure Analysis" (CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Adaptive data-cache reconfiguration, exactly the Sec. 6.1 experiment:
/// the cache (512 sets x 64B, 1-8 ways = 32KB-256KB) reconfigures at phase
/// boundaries. Per phase id, the first two intervals are spent exploring —
/// all eight configurations are measured at once by MultiCacheProbe's
/// recency stack — after which the smallest configuration whose miss count
/// matches the best (no allowed increase in miss rate) is locked in and
/// applied whenever that phase marker is seen again. Exploration intervals
/// are accounted at the largest size (the hardware must run somewhere safe
/// while measuring). The figure of merit is the execution-weighted average
/// cache size.
///
/// One cache simulation per access does both jobs: the way-masked cache
/// the policy serves from is a variable-length prefix of the probe's
/// recency stacks (uarch/Cache.h), so its hits and misses come from the
/// same stack walk that feeds the exploration statistics.
///
/// The same engine serves every policy of Fig. 10: boundaries can come from
/// our software phase markers (self- or cross-trained, procedures-only or
/// not), from Shen-style reuse markers, or from oracle SimPoint phase ids
/// at fixed-length boundaries.
///
//===----------------------------------------------------------------------===//

#ifndef SPM_ADAPTCACHE_ADAPTIVECACHE_H
#define SPM_ADAPTCACHE_ADAPTIVECACHE_H

#include "uarch/Cache.h"
#include "vm/Observer.h"

#include <cstdint>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

namespace spm {

/// Outcome of one adaptive-cache run.
struct AdaptiveCacheResult {
  double AvgCacheKB = 0.0; ///< Instruction-weighted average size.
  double MissRate = 0.0;   ///< Served miss rate under the policy.
  uint64_t Intervals = 0;
  uint64_t Explorations = 0;
};

/// The reconfiguration engine. Register it as an observer and feed it
/// phase-boundary events from whichever marker scheme is under test.
class AdaptiveCacheEngine : public ExecutionObserver {
public:
  /// \p SweepIn lists the configurations smallest first: Assoc must be
  /// strictly increasing (exploration runs at the last entry, and locking
  /// in picks the first adequate one). \p Tolerance: a configuration is
  /// "as good as the best" when its miss count is within this relative
  /// slack (plus a tiny absolute allowance for degenerate counts). The
  /// paper's rule is "no allowed increase in cache miss rate"; at our
  /// 1000x-reduced interval lengths the two exploration intervals carry
  /// sampling noise a strict rule would misread, so a 5%-of-misses slack
  /// stands in for "no increase".
  /// Throws std::invalid_argument on an empty sweep, Assoc values that do
  /// not strictly increase, or a geometry MultiCacheProbe rejects.
  explicit AdaptiveCacheEngine(
      std::vector<CacheConfig> SweepIn = CacheConfig::reconfigSweep(),
      double Tolerance = 0.05, uint32_t ExploreIntervals = 2)
      : Sweep(checkAscending(std::move(SweepIn))), Probe(Sweep),
        Tolerance(Tolerance), ExploreIntervals(ExploreIntervals) {
    CurConfigIdx = Sweep.size() - 1; // Start at the largest (safe) size.
    ProbeStart = Probe.statsSnapshot();
  }

  /// Minimum instructions for a boundary to end a real interval. Markers
  /// can fire back to back (a call edge, then the callee's head->body edge
  /// a few instructions later); relabeling in place instead of cutting
  /// keeps such micro-intervals from polluting exploration statistics and
  /// from triggering pointless reconfigurations.
  static constexpr uint64_t CoalesceInstrs = 1000;

  /// A phase boundary: the interval in progress ends; the next belongs to
  /// \p PhaseId. Boundaries arriving within CoalesceInstrs of the previous
  /// one relabel the current interval (the later marker wins).
  void onPhaseBoundary(int32_t PhaseId) {
    if (IntervalInstrs < CoalesceInstrs) {
      CurPhase = PhaseId;
      applyConfigFor(PhaseId);
      ProbeStart = Probe.statsSnapshot();
      return;
    }
    finalizeInterval();
    beginInterval(PhaseId);
  }

  void onBlock(const LoweredBlock &Blk) override {
    IntervalInstrs += Blk.NumInstrs;
  }

  void onMemAccess(uint64_t Addr, bool IsStore) override {
    (void)IsStore;
    ++ServedAccesses;
    if (!Probe.access(Addr))
      ++ServedMisses;
  }

  void onRunEnd(uint64_t Total) override {
    (void)Total;
    finalizeInterval();
  }

  AdaptiveCacheResult result() const {
    AdaptiveCacheResult R;
    R.AvgCacheKB = TotalWeight > 0 ? SizeWeighted / TotalWeight : 0.0;
    R.MissRate = ServedAccesses
                     ? static_cast<double>(ServedMisses) / ServedAccesses
                     : 0.0;
    R.Intervals = NumIntervals;
    R.Explorations = NumExplorations;
    return R;
  }

  /// Size chosen for \p PhaseId so far, or the largest if still exploring.
  double chosenSizeKB(int32_t PhaseId) const {
    auto It = Phases.find(PhaseId);
    if (It == Phases.end() || It->second.BestIdx < 0)
      return Sweep.back().sizeKB();
    return Sweep[static_cast<size_t>(It->second.BestIdx)].sizeKB();
  }

private:
  struct PhaseState {
    uint32_t Explored = 0;
    int32_t BestIdx = -1;
    std::vector<CacheStats> Aggregate; ///< Per config, explored intervals.
  };

  static std::vector<CacheConfig> checkAscending(std::vector<CacheConfig> S) {
    if (S.empty())
      throw std::invalid_argument("adaptive cache sweep is empty");
    for (size_t I = 1; I < S.size(); ++I)
      if (S[I].Assoc <= S[I - 1].Assoc)
        throw std::invalid_argument(
            "adaptive cache sweep entry " + std::to_string(I) + " (Assoc = " +
            std::to_string(S[I].Assoc) + ") must have more ways than entry " +
            std::to_string(I - 1) + " (Assoc = " +
            std::to_string(S[I - 1].Assoc) +
            "): Assoc must strictly increase");
    return S;
  }

  void applyConfigFor(int32_t PhaseId) {
    PhaseState &PS = Phases[PhaseId];
    Exploring = PS.BestIdx < 0;
    // Explore at the largest (safe) configuration.
    CurConfigIdx = Exploring ? Sweep.size() - 1
                             : static_cast<size_t>(PS.BestIdx);
    Probe.setServedWays(Sweep[CurConfigIdx].Assoc);
  }

  void beginInterval(int32_t PhaseId) {
    CurPhase = PhaseId;
    applyConfigFor(PhaseId);
    ProbeStart = Probe.statsSnapshot();
  }

  void finalizeInterval() {
    if (IntervalInstrs == 0)
      return;
    ++NumIntervals;
    double W = static_cast<double>(IntervalInstrs);
    SizeWeighted += Sweep[CurConfigIdx].sizeKB() * W;
    TotalWeight += W;

    if (Exploring) {
      ++NumExplorations;
      PhaseState &PS = Phases[CurPhase];
      if (PS.Aggregate.empty())
        PS.Aggregate.assign(Sweep.size(), CacheStats());
      std::vector<CacheStats> Now = Probe.statsSnapshot();
      for (size_t I = 0; I < Sweep.size(); ++I)
        PS.Aggregate[I] += Now[I] - ProbeStart[I];
      if (++PS.Explored >= ExploreIntervals)
        PS.BestIdx = static_cast<int32_t>(pickBest(PS.Aggregate));
    }
    IntervalInstrs = 0;
  }

  /// Smallest configuration whose misses match the best within tolerance.
  size_t pickBest(const std::vector<CacheStats> &Agg) const {
    uint64_t BestMisses = ~0ull;
    for (const CacheStats &S : Agg)
      BestMisses = std::min(BestMisses, S.Misses);
    for (size_t I = 0; I < Agg.size(); ++I) {
      auto Limit = static_cast<uint64_t>(
          static_cast<double>(BestMisses) * (1.0 + Tolerance) + 4.0);
      if (Agg[I].Misses <= Limit)
        return I;
    }
    return Agg.size() - 1;
  }

  std::vector<CacheConfig> Sweep;
  MultiCacheProbe Probe; ///< Also the served cache (see the file comment).
  double Tolerance;
  uint32_t ExploreIntervals;

  std::unordered_map<int32_t, PhaseState> Phases;
  int32_t CurPhase = -1;
  size_t CurConfigIdx = 0;
  bool Exploring = true;
  std::vector<CacheStats> ProbeStart;
  uint64_t IntervalInstrs = 0;

  double SizeWeighted = 0.0;
  double TotalWeight = 0.0;
  uint64_t ServedAccesses = 0;
  uint64_t ServedMisses = 0;
  uint64_t NumIntervals = 0;
  uint64_t NumExplorations = 0;
};

} // namespace spm

#endif // SPM_ADAPTCACHE_ADAPTIVECACHE_H
