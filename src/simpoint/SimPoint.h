//===- simpoint/SimPoint.h - Simulation point selection ---------*- C++ -*-===//
//
// Part of the SPM project: reproduction of "Selecting Software Phase Markers
// with Code Structure Analysis" (CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The SimPoint pipeline (Sherwood et al., reimplemented from the papers
/// this work cites): project interval BBVs to 15 dimensions, cluster with
/// weighted k-means choosing k by BIC, and pick one simulation point per
/// cluster (the interval nearest its centroid). With fixed-length intervals
/// and unit weights this is SimPoint 2.0; with marker-cut variable-length
/// intervals weighted by instruction count it is the SimPoint 3.0 VLI
/// algorithm the paper feeds its phase markers into (Sec. 6.2). The
/// coverage filter ("95%/99% of execution") and the CPI-error estimator
/// reproduce Figs. 11 and 12's measurement procedure.
///
//===----------------------------------------------------------------------===//

#ifndef SPM_SIMPOINT_SIMPOINT_H
#define SPM_SIMPOINT_SIMPOINT_H

#include "simpoint/KMeans.h"
#include "simpoint/Projection.h"
#include "trace/Interval.h"

#include <vector>

namespace spm {

/// SimPoint knobs.
struct SimPointConfig {
  uint32_t Dim = 15;    ///< Random projection dimensions.
  uint32_t KMax = 10;   ///< Largest cluster count tried.
  uint64_t Seed = 42;
  int Restarts = 5;
  /// Weight intervals by instruction count (SimPoint 3.0 VLI). Off, every
  /// interval counts equally (SimPoint 2.0 fixed-length).
  bool WeightByLength = false;
};

/// One chosen simulation point.
struct SimPointChoice {
  uint32_t Cluster = 0;
  size_t IntervalIdx = 0; ///< Index into the interval list.
  double Weight = 0.0;    ///< Cluster's share of executed instructions.
};

/// Full SimPoint outcome.
struct SimPointResult {
  uint32_t K = 0;
  std::vector<int32_t> Assign; ///< Cluster id per interval.
  std::vector<SimPointChoice> Points;
};

/// Runs the pipeline on intervals that carry BBVs.
SimPointResult runSimPoint(const std::vector<IntervalRecord> &Ivs,
                           const SimPointConfig &Config);

/// CPI estimation from simulation points.
struct CpiEstimate {
  double TrueCpi = 0.0;
  double EstCpi = 0.0;
  double RelError = 0.0;        ///< |Est - True| / True.
  uint64_t SimulatedInstrs = 0; ///< Total size of the points simulated.
  size_t PointsUsed = 0;
};

/// Estimates whole-program CPI from the simulation points whose clusters
/// cover at least \p Coverage of execution (clusters taken by decreasing
/// weight, weights renormalized — the paper's 95%/99%/100% variants).
CpiEstimate estimateCpi(const std::vector<IntervalRecord> &Ivs,
                        const SimPointResult &SP, double Coverage);

} // namespace spm

#endif // SPM_SIMPOINT_SIMPOINT_H
