//===- uarch/PerfModel.h - CPI and miss-rate performance model --*- C++ -*-===//
//
// Part of the SPM project: reproduction of "Selecting Software Phase Markers
// with Code Structure Analysis" (CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// PerfModel is the execution observer that produces the architecture
/// metrics the paper evaluates phases with: CPI and L1 data-cache miss rate
/// (Figs. 3, 9, 12). It combines per-class instruction latencies, an LRU
/// data cache, and a bimodal branch predictor into an analytic cycle count.
/// The absolute numbers are not meant to match the paper's Alpha testbed;
/// what matters is that CPI responds to the same program behaviors
/// (locality and branch regularity) so phase homogeneity is measurable.
///
//===----------------------------------------------------------------------===//

#ifndef SPM_UARCH_PERFMODEL_H
#define SPM_UARCH_PERFMODEL_H

#include "uarch/BranchPredictor.h"
#include "uarch/Cache.h"
#include "vm/Observer.h"

#include <optional>
#include <utility>

namespace spm {

/// Snapshot of cumulative performance counters. Interval metrics are
/// differences of two snapshots.
struct PerfCounters {
  uint64_t Instrs = 0;
  uint64_t BaseCycles = 0;
  uint64_t L1Accesses = 0;
  uint64_t L1Misses = 0;
  uint64_t L2Accesses = 0; ///< Nonzero only when an L2 is modeled.
  uint64_t L2Misses = 0;
  uint64_t Branches = 0;
  uint64_t Mispredicts = 0;

  uint64_t cycles(uint64_t MissPenalty, uint64_t MispredictPenalty) const {
    // Without an L2 every L1 miss pays the full memory penalty; with one,
    // an L1 miss that hits L2 costs a third of it and an L2 miss twice it.
    uint64_t MemCycles =
        L2Accesses ? (L2Accesses - L2Misses) * (MissPenalty / 3) +
                         L2Misses * (2 * MissPenalty)
                   : L1Misses * MissPenalty;
    return BaseCycles + MemCycles + Mispredicts * MispredictPenalty;
  }

  PerfCounters operator-(const PerfCounters &O) const {
    return {Instrs - O.Instrs,           BaseCycles - O.BaseCycles,
            L1Accesses - O.L1Accesses,   L1Misses - O.L1Misses,
            L2Accesses - O.L2Accesses,   L2Misses - O.L2Misses,
            Branches - O.Branches,       Mispredicts - O.Mispredicts};
  }
};

/// Optional deeper-hierarchy configuration of the performance model.
struct PerfModelOptions {
  CacheConfig DL1{512, 2, 64};
  bool EnableL2 = false;
  /// 512KB unified second level. Kept below the workloads' streamed
  /// region sizes so its content reaches steady state quickly; a
  /// multi-megabyte L2 would spend our entire (scaled-down) runs warming
  /// up and the cold transient would swamp per-phase statistics.
  CacheConfig L2{1024, 8, 64};
};

/// Scalar metrics derived from a counter delta.
struct PerfMetrics {
  double Cpi = 0.0;
  double L1MissRate = 0.0;

  static PerfMetrics from(const PerfCounters &D, uint64_t MissPenalty,
                          uint64_t MispredictPenalty) {
    PerfMetrics M;
    if (D.Instrs)
      M.Cpi = static_cast<double>(D.cycles(MissPenalty, MispredictPenalty)) /
              static_cast<double>(D.Instrs);
    if (D.L1Accesses)
      M.L1MissRate =
          static_cast<double>(D.L1Misses) / static_cast<double>(D.L1Accesses);
    return M;
  }
};

/// The performance-model observer.
class PerfModel : public ExecutionObserver {
public:
  /// Per-class base latencies (cycles) in OpClass order:
  /// IntALU, FpALU, Load, Store, Branch.
  static constexpr uint64_t ClassLatency[NumOpClasses] = {1, 2, 1, 1, 1};
  static constexpr uint64_t MissPenalty = 24;
  static constexpr uint64_t MispredictPenalty = 8;

  explicit PerfModel(CacheConfig DL1 = CacheConfig{512, 2, 64})
      : DL1(DL1) {}

  explicit PerfModel(const PerfModelOptions &Opts) : DL1(Opts.DL1) {
    if (Opts.EnableL2)
      L2.emplace(Opts.L2);
  }

  void onBlock(const LoweredBlock &Blk) override {
    C.Instrs += Blk.NumInstrs;
    C.BaseCycles +=
        baseCycles(Blk.Mix, std::make_index_sequence<NumOpClasses>());
  }

  void onMemAccess(uint64_t Addr, bool IsStore) override {
    onMemRun(&Addr, 1, IsStore);
  }

  /// Bulk form, used by the devirtualized engines (see ObserverTraits). The
  /// L2 test is made once per run; without an L2 the run is one
  /// CacheModel::accessRun call. Cache probes go in stream order, so the
  /// counters equal per-access delivery's, which is this with Count = 1.
  void onMemRun(const uint64_t *Addrs, uint32_t Count, bool IsStore) {
    (void)IsStore;
    C.L1Accesses += Count;
    if (!L2) {
      C.L1Misses += DL1.accessRun(Addrs, Count);
      return;
    }
    for (uint32_t I = 0; I < Count; ++I) {
      uint64_t Addr = Addrs[I];
      if (DL1.access(Addr))
        continue;
      ++C.L1Misses;
      ++C.L2Accesses;
      if (!L2->access(Addr))
        ++C.L2Misses;
    }
  }

  void onBranch(uint64_t Pc, uint64_t Target, bool Taken, bool Backward,
                bool Conditional) override {
    (void)Target;
    (void)Backward;
    if (!Conditional)
      return;
    ++C.Branches;
    if (!Bp.predictAndUpdate(Pc, Taken))
      ++C.Mispredicts;
  }

  /// Current cumulative counters; take deltas for interval metrics.
  const PerfCounters &counters() const { return C; }

  /// Metrics over the whole run so far.
  PerfMetrics metrics() const {
    return PerfMetrics::from(C, MissPenalty, MispredictPenalty);
  }

  /// Metrics for a counter delta.
  static PerfMetrics metricsFor(const PerfCounters &Delta) {
    return PerfMetrics::from(Delta, MissPenalty, MispredictPenalty);
  }

private:
  /// Sum of ClassLatency[I] * Counts[I], written out as one expression so
  /// the constant latencies fold into the adds.
  template <size_t... I>
  static uint64_t baseCycles(const OpMix &Mix, std::index_sequence<I...>) {
    return ((ClassLatency[I] * Mix.Counts[I]) + ...);
  }

  PerfCounters C;
  CacheModel DL1;
  std::optional<CacheModel> L2;
  BranchPredictor2Bit Bp;
};

} // namespace spm

#endif // SPM_UARCH_PERFMODEL_H
