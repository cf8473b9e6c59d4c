//===- simpoint/SimPoint.cpp ----------------------------------------------==//

#include "simpoint/SimPoint.h"

#include <algorithm>
#include <cmath>
#include <limits>

using namespace spm;

SimPointResult spm::runSimPoint(const std::vector<IntervalRecord> &Ivs,
                                const SimPointConfig &Config) {
  assert(!Ivs.empty() && "SimPoint needs at least one interval");
  SimPointResult Out;

  std::vector<ProjectedVec> Pts =
      projectIntervals(Ivs, Config.Dim, Config.Seed);
  std::vector<double> W(Ivs.size(), 1.0);
  if (Config.WeightByLength)
    for (size_t I = 0; I < Ivs.size(); ++I)
      W[I] = static_cast<double>(Ivs[I].NumInstrs);

  std::vector<uint32_t> Ks;
  for (uint32_t K = 1; K <= Config.KMax && K <= Ivs.size(); ++K)
    Ks.push_back(K);

  KMeansResult KM = pickClustering(Pts, W, Ks, Config.Seed, Config.Restarts);
  Out.K = KM.K;
  Out.Assign = KM.Assign;

  // Per cluster: instruction mass and the representative interval, the
  // one nearest the centroid.
  uint64_t TotalInstrs = totalInstructions(Ivs);
  std::vector<uint64_t> Mass(KM.K, 0);
  std::vector<double> BestD(KM.K, std::numeric_limits<double>::infinity());
  std::vector<int64_t> BestIdx(KM.K, -1);
  for (size_t I = 0; I < Ivs.size(); ++I) {
    auto C = static_cast<uint32_t>(KM.Assign[I]);
    Mass[C] += Ivs[I].NumInstrs;
    double D = 0.0;
    for (size_t X = 0; X < Pts[I].size(); ++X) {
      double T = Pts[I][X] - KM.Centroids[C][X];
      D += T * T;
    }
    if (D < BestD[C]) {
      BestD[C] = D;
      BestIdx[C] = static_cast<int64_t>(I);
    }
  }
  for (uint32_t C = 0; C < KM.K; ++C) {
    if (BestIdx[C] < 0)
      continue; // Empty cluster.
    SimPointChoice Choice;
    Choice.Cluster = C;
    Choice.IntervalIdx = static_cast<size_t>(BestIdx[C]);
    Choice.Weight = TotalInstrs ? static_cast<double>(Mass[C]) /
                                      static_cast<double>(TotalInstrs)
                                : 0.0;
    Out.Points.push_back(Choice);
  }
  return Out;
}

CpiEstimate spm::estimateCpi(const std::vector<IntervalRecord> &Ivs,
                             const SimPointResult &SP, double Coverage) {
  CpiEstimate E;

  // True CPI over the complete execution.
  PerfCounters Total;
  for (const IntervalRecord &R : Ivs) {
    Total.Instrs += R.Perf.Instrs;
    Total.BaseCycles += R.Perf.BaseCycles;
    Total.L1Accesses += R.Perf.L1Accesses;
    Total.L1Misses += R.Perf.L1Misses;
    Total.Branches += R.Perf.Branches;
    Total.Mispredicts += R.Perf.Mispredicts;
  }
  E.TrueCpi = PerfModel::metricsFor(Total).Cpi;

  // Coverage filter: largest clusters first until the target is met.
  std::vector<SimPointChoice> Sorted = SP.Points;
  std::sort(Sorted.begin(), Sorted.end(),
            [](const SimPointChoice &A, const SimPointChoice &B) {
              if (A.Weight != B.Weight)
                return A.Weight > B.Weight;
              return A.Cluster < B.Cluster;
            });
  double Covered = 0.0;
  std::vector<SimPointChoice> Used;
  for (const SimPointChoice &C : Sorted) {
    Used.push_back(C);
    Covered += C.Weight;
    if (Covered >= Coverage - 1e-12)
      break;
  }

  double WeightSum = 0.0;
  for (const SimPointChoice &C : Used)
    WeightSum += C.Weight;

  double Est = 0.0;
  for (const SimPointChoice &C : Used) {
    const IntervalRecord &R = Ivs[C.IntervalIdx];
    Est += (C.Weight / WeightSum) * R.metrics().Cpi;
    E.SimulatedInstrs += R.NumInstrs;
  }
  E.EstCpi = Est;
  E.PointsUsed = Used.size();
  E.RelError = E.TrueCpi > 0 ? std::abs(Est - E.TrueCpi) / E.TrueCpi : 0.0;
  return E;
}
