//===- simpoint/KMeans.h - Weighted k-means clustering ----------*- C++ -*-===//
//
// Part of the SPM project: reproduction of "Selecting Software Phase Markers
// with Code Structure Analysis" (CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The clustering engine behind SimPoint: Lloyd's algorithm with k-means++
/// seeding and per-point weights. Weights are 1 for SimPoint 2.0
/// (fixed-length intervals all count equally) and the interval instruction
/// counts for the SimPoint 3.0 VLI algorithm the paper uses with phase
/// markers ("we had to use this new version of SimPoint, since each VLI
/// represents a different percentage of execution", Sec. 6.2). The BIC
/// score (Bayesian Information Criterion, Pelleg & Moore's X-means form)
/// picks the number of clusters, as in SimPoint.
///
//===----------------------------------------------------------------------===//

#ifndef SPM_SIMPOINT_KMEANS_H
#define SPM_SIMPOINT_KMEANS_H

#include "support/Random.h"

#include <cstdint>
#include <vector>

namespace spm {

/// Result of one clustering.
struct KMeansResult {
  uint32_t K = 0;
  std::vector<int32_t> Assign;               ///< Cluster of each point.
  std::vector<std::vector<double>> Centroids;
  double Distortion = 0.0; ///< Weighted sum of squared distances.
};

/// Runs weighted k-means on \p Points. \p Weights must be the same length
/// (use all-ones for unweighted). \p Restarts independent k-means++
/// seedings are tried; the lowest-distortion run wins (earliest restart on
/// ties). Deterministic for a fixed \p Seed: each restart draws from its
/// own RNG stream seeded by kmeansRestartSeed(Seed, restart) up front, so
/// the result is bit-identical whether the restarts run serially or on the
/// parallelJobs() worker pool.
KMeansResult kmeansCluster(const std::vector<std::vector<double>> &Points,
                           const std::vector<double> &Weights, uint32_t K,
                           uint64_t Seed, int Restarts = 5,
                           int MaxIters = 100);

/// The seed-derivation scheme for k-means restarts, exposed so tests can
/// pin it: restart \p Restart of a run with master seed \p Seed uses the
/// (Restart+1)-th output of SplitMix64(Seed). Changing this silently
/// changes every clustering; treat it as a stable contract.
uint64_t kmeansRestartSeed(uint64_t Seed, int Restart);

/// One k-means++ seeding + Lloyd run with an RNG seeded directly from
/// \p RawSeed (no restart derivation). kmeansCluster(.., Seed, R) is
/// exactly the lowest-distortion result of kmeansSingleRun over
/// kmeansRestartSeed(Seed, 0..R-1), earliest restart winning ties.
KMeansResult kmeansSingleRun(const std::vector<std::vector<double>> &Points,
                             const std::vector<double> &Weights, uint32_t K,
                             uint64_t RawSeed, int MaxIters = 100);

/// BIC score of a clustering (higher is better): the X-means spherical
/// Gaussian likelihood minus the (d+1)k/2 * log(R) complexity penalty.
double bicScore(const std::vector<std::vector<double>> &Points,
                const std::vector<double> &Weights, const KMeansResult &R);

/// The SimPoint model-selection rule: cluster for each k in \p Ks and
/// return the result with the smallest k whose BIC reaches
/// minBIC + 0.9 * (maxBIC - minBIC).
KMeansResult pickClustering(const std::vector<std::vector<double>> &Points,
                            const std::vector<double> &Weights,
                            const std::vector<uint32_t> &Ks, uint64_t Seed,
                            int Restarts = 5);

} // namespace spm

#endif // SPM_SIMPOINT_KMEANS_H
