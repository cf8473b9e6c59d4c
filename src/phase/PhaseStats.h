//===- phase/PhaseStats.h - Per-phase metric attribution --------*- C++ -*-===//
//
// Part of the SPM project: reproduction of "Selecting Software Phase Markers
// with Code Structure Analysis" (CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Rolls interval records up by phase id: exact integer totals (instructions,
/// dynamic blocks, memory accesses, wall time, performance-counter sums) plus
/// Welford moments of per-interval CPI and length, the same homogeneity lens
/// the paper applies to phases (Sec. 3.1) turned into an online accumulator
/// the observability layer can export after — or during — a run.
///
/// The integer totals obey an exactness invariant the differential suite
/// pins (tests/attribution_test.cpp): summed across phases they equal the
/// run's global counters, bit-exact however many checkpoint segments the
/// run was split into.
///
//===----------------------------------------------------------------------===//

#ifndef SPM_PHASE_PHASESTATS_H
#define SPM_PHASE_PHASESTATS_H

#include "support/Stats.h"
#include "trace/Interval.h"
#include "uarch/PerfModel.h"

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace spm {

/// Accumulated attribution for one phase id.
struct PhaseAgg {
  uint64_t Intervals = 0;
  uint64_t Instrs = 0;
  uint64_t Blocks = 0; ///< Dynamic block executions.
  uint64_t Mem = 0;    ///< Dynamic memory accesses.
  uint64_t WallNs = 0; ///< Wall time attributed to the phase (host-dependent).
  PerfCounters Perf;   ///< Summed counter deltas.
  /// Per-interval CPI moments (only intervals that retired instructions
  /// under a wired perf model contribute). cov() is the paper's per-phase
  /// homogeneity measure.
  RunningStat Cpi;
  RunningStat Len; ///< Per-interval instruction-count moments.
};

/// Per-phase rollup of interval records, keyed by phase id (ordered, so
/// exports are deterministic).
class PhaseStats {
public:
  /// Attributes one completed interval to its phase.
  void addInterval(const IntervalRecord &R);

  static PhaseStats fromIntervals(const std::vector<IntervalRecord> &Ivs);

  const std::map<int32_t, PhaseAgg> &phases() const { return Phases; }
  bool empty() const { return Phases.empty(); }

  /// Cross-phase totals, for the exactness invariant against the run's
  /// global counters.
  struct Totals {
    uint64_t Intervals = 0;
    uint64_t Instrs = 0;
    uint64_t Blocks = 0;
    uint64_t Mem = 0;
  };
  Totals totals() const;

  /// One JSON object per phase per line, ascending phase id:
  ///   {"phase": 0, "intervals": 4, "instrs": ..., "blocks": ..., "mem": ...,
  ///    "wall_ns": ..., "cycles": ..., "l1_misses": ..., "cpi_mean": ...,
  ///    "cpi_cov": ..., "len_mean": ..., "len_cov": ...}
  /// See docs/FORMATS.md ("Per-phase attribution JSONL").
  std::string toJsonl() const;

  /// Aligned human-readable table of the same rollup, minus wall time: the
  /// table is a deterministic function of the run, so two reports compare
  /// with cmp(1). Host time stays in the JSONL and the trace phase track.
  std::string toText() const;

private:
  std::map<int32_t, PhaseAgg> Phases;
};

} // namespace spm

#endif // SPM_PHASE_PHASESTATS_H
