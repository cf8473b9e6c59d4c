//===- simpoint/KMeans.cpp ------------------------------------------------==//

#include "simpoint/KMeans.h"

#include "support/Metrics.h"
#include "support/Parallel.h"
#include "support/Trace.h"

#include <cassert>
#include <cmath>
#include <limits>

using namespace spm;

namespace {

double sqDist(const std::vector<double> &A, const std::vector<double> &B) {
  double S = 0.0;
  for (size_t I = 0; I < A.size(); ++I) {
    double D = A[I] - B[I];
    S += D * D;
  }
  return S;
}

/// k-means++ seeding over weighted points.
std::vector<std::vector<double>>
seedPlusPlus(const std::vector<std::vector<double>> &Pts,
             const std::vector<double> &W, uint32_t K, Rng &Rand) {
  std::vector<std::vector<double>> Centers;
  Centers.reserve(K);

  // First center: weighted-uniform draw.
  double TotalW = 0.0;
  for (double X : W)
    TotalW += X;
  double Pick = Rand.nextDouble() * TotalW;
  size_t First = 0;
  for (size_t I = 0; I < Pts.size(); ++I) {
    Pick -= W[I];
    if (Pick <= 0.0) {
      First = I;
      break;
    }
  }
  Centers.push_back(Pts[First]);

  std::vector<double> MinD(Pts.size(),
                           std::numeric_limits<double>::infinity());
  while (Centers.size() < K) {
    double Sum = 0.0;
    for (size_t I = 0; I < Pts.size(); ++I) {
      double D = sqDist(Pts[I], Centers.back());
      if (D < MinD[I])
        MinD[I] = D;
      Sum += MinD[I] * W[I];
    }
    if (Sum <= 0.0) {
      // All mass sits on existing centers; duplicate one.
      Centers.push_back(Centers.back());
      continue;
    }
    double Target = Rand.nextDouble() * Sum;
    size_t Chosen = Pts.size() - 1;
    for (size_t I = 0; I < Pts.size(); ++I) {
      Target -= MinD[I] * W[I];
      if (Target <= 0.0) {
        Chosen = I;
        break;
      }
    }
    Centers.push_back(Pts[Chosen]);
  }
  return Centers;
}

KMeansResult lloydOnce(const std::vector<std::vector<double>> &Pts,
                       const std::vector<double> &W, uint32_t K, Rng &Rand,
                       int MaxIters) {
  size_t N = Pts.size();
  size_t Dim = Pts[0].size();
  KMeansResult R;
  R.K = K;
  R.Centroids = seedPlusPlus(Pts, W, K, Rand);
  R.Assign.assign(N, -1);

  int ItersRun = 0;
  for (int Iter = 0; Iter < MaxIters; ++Iter) {
    ItersRun = Iter + 1;
    bool Changed = false;
    // Assignment step.
    for (size_t I = 0; I < N; ++I) {
      int32_t Best = 0;
      double BestD = std::numeric_limits<double>::infinity();
      for (uint32_t C = 0; C < K; ++C) {
        double D = sqDist(Pts[I], R.Centroids[C]);
        if (D < BestD) {
          BestD = D;
          Best = static_cast<int32_t>(C);
        }
      }
      if (R.Assign[I] != Best) {
        R.Assign[I] = Best;
        Changed = true;
      }
    }
    if (!Changed && Iter > 0)
      break;
    // Update step.
    std::vector<std::vector<double>> Sums(K,
                                          std::vector<double>(Dim, 0.0));
    std::vector<double> Mass(K, 0.0);
    for (size_t I = 0; I < N; ++I) {
      auto C = static_cast<uint32_t>(R.Assign[I]);
      Mass[C] += W[I];
      for (size_t D = 0; D < Dim; ++D)
        Sums[C][D] += W[I] * Pts[I][D];
    }
    for (uint32_t C = 0; C < K; ++C) {
      if (Mass[C] <= 0.0)
        continue; // Empty cluster keeps its centroid.
      for (size_t D = 0; D < Dim; ++D)
        R.Centroids[C][D] = Sums[C][D] / Mass[C];
    }
  }

  R.Distortion = 0.0;
  for (size_t I = 0; I < N; ++I)
    R.Distortion +=
        W[I] * sqDist(Pts[I], R.Centroids[static_cast<uint32_t>(R.Assign[I])]);

  if (spmTraceEnabled()) {
    MetricsRegistry &M = metrics();
    M.counter("simpoint.restarts").forceAdd(1);
    M.histogram("simpoint.kmeans_iters").forceRecord(ItersRun);
    M.histogram("simpoint.kmeans_inertia").forceRecord(R.Distortion);
  }
  return R;
}

} // namespace

uint64_t spm::kmeansRestartSeed(uint64_t Seed, int Restart) {
  SplitMix64 SM(Seed);
  uint64_t S = SM.next();
  for (int I = 0; I < Restart; ++I)
    S = SM.next();
  return S;
}

KMeansResult
spm::kmeansSingleRun(const std::vector<std::vector<double>> &Pts,
                     const std::vector<double> &W, uint32_t K,
                     uint64_t RawSeed, int MaxIters) {
  assert(!Pts.empty() && "clustering requires points");
  assert(Pts.size() == W.size() && "one weight per point");
  assert(K >= 1 && "k must be positive");
  if (K > Pts.size())
    K = static_cast<uint32_t>(Pts.size());
  Rng Rand(RawSeed);
  return lloydOnce(Pts, W, K, Rand, MaxIters);
}

KMeansResult spm::kmeansCluster(const std::vector<std::vector<double>> &Pts,
                                const std::vector<double> &W, uint32_t K,
                                uint64_t Seed, int Restarts, int MaxIters) {
  assert(!Pts.empty() && "clustering requires points");
  assert(Pts.size() == W.size() && "one weight per point");
  assert(K >= 1 && "k must be positive");
  SPM_TRACE_SPAN("simpoint.kmeans");
  if (K > Pts.size())
    K = static_cast<uint32_t>(Pts.size());

  // Every restart's seed is derived by index before any work starts; no
  // restart ever touches a generator another restart reads. This is what
  // makes the parallel fan-out bit-identical to the serial loop.
  SplitMix64 SeedSeq(Seed);
  std::vector<uint64_t> Seeds(static_cast<size_t>(Restarts));
  for (uint64_t &S : Seeds)
    S = SeedSeq.next();

  std::vector<KMeansResult> Runs =
      parallelMap(Seeds.size(), [&](size_t T) {
        Rng Rand(Seeds[T]);
        return lloydOnce(Pts, W, K, Rand, MaxIters);
      });

  // Lowest distortion wins; strict < keeps the earliest restart on ties,
  // matching what the serial loop always did.
  KMeansResult Best;
  Best.Distortion = std::numeric_limits<double>::infinity();
  for (KMeansResult &R : Runs)
    if (R.Distortion < Best.Distortion)
      Best = std::move(R);
  return Best;
}

double spm::bicScore(const std::vector<std::vector<double>> &Pts,
                     const std::vector<double> &W, const KMeansResult &R) {
  size_t Dim = Pts[0].size();
  uint32_t K = R.K;

  double TotalMass = 0.0;
  std::vector<double> Mass(K, 0.0);
  for (size_t I = 0; I < Pts.size(); ++I) {
    Mass[static_cast<uint32_t>(R.Assign[I])] += W[I];
    TotalMass += W[I];
  }

  // Pooled spherical variance estimate.
  double Var = R.Distortion / (Dim * std::max(TotalMass - K, 1.0));
  if (Var <= 0.0)
    Var = 1e-12;

  double Llh = 0.0;
  for (uint32_t C = 0; C < K; ++C) {
    if (Mass[C] <= 0.0)
      continue;
    Llh += Mass[C] * std::log(Mass[C] / TotalMass) -
           Mass[C] * 0.5 * std::log(2.0 * M_PI * Var) * Dim -
           (Mass[C] - 1.0) * 0.5 * Dim;
  }
  double NumParams = K * (Dim + 1.0);
  return Llh - 0.5 * NumParams * std::log(TotalMass);
}

KMeansResult
spm::pickClustering(const std::vector<std::vector<double>> &Pts,
                    const std::vector<double> &W,
                    const std::vector<uint32_t> &Ks, uint64_t Seed,
                    int Restarts) {
  // SimPoint's BIC threshold: the share of the observed BIC range a
  // clustering must reach.
  constexpr double BicThreshold = 0.9;
  assert(!Ks.empty() && "no candidate cluster counts");
  // Each candidate k is an independent clustering with its own seed; fan
  // them out. Restarts nested inside each kmeansCluster call then run
  // inline on their worker (Parallel.h's nesting rule).
  std::vector<KMeansResult> Runs = parallelMap(Ks.size(), [&](size_t I) {
    return kmeansCluster(Pts, W, Ks[I], Seed + Ks[I], Restarts);
  });
  std::vector<double> Bics(Runs.size());
  double MinBic = std::numeric_limits<double>::infinity();
  double MaxBic = -std::numeric_limits<double>::infinity();
  for (size_t I = 0; I < Runs.size(); ++I) {
    Bics[I] = bicScore(Pts, W, Runs[I]);
    MinBic = std::min(MinBic, Bics[I]);
    MaxBic = std::max(MaxBic, Bics[I]);
  }
  double Cut = MinBic + BicThreshold * (MaxBic - MinBic);
  for (size_t I = 0; I < Runs.size(); ++I)
    if (Bics[I] >= Cut)
      return Runs[I];
  return Runs.back();
}
