//===- perfbench/driver/CacheReconfig.cpp - cache_reconfig ---------------==//
//
// Part of the SPM project: reproduction of "Selecting Software Phase Markers
// with Code Structure Analysis" (CGO 2006).
//
//===----------------------------------------------------------------------===//
//
// The paper's Fig. 10 experiment and its Sec. 6.1 gcc/vortex text: every
// adaptive cache policy plus the best fixed size on the 5 reconfig-suite
// programs and gcc and vortex. The adaptcache engine, the uarch cache
// probe and the reuse layer do most of the work, driven through the legacy
// virtual run() + ObserverMux path with memory-event-heavy observers.
//
//===----------------------------------------------------------------------===//

#include "Arms.h"

#include "markers/Selector.h"
#include "simpoint/SimPoint.h"

using namespace spm;

namespace perfbench {
namespace {

/// Fig. 10's oracle interval length (the scaled 10M-instruction BBV).
constexpr uint64_t OracleInterval = 10000;

SelectorConfig proceduresOnly() {
  SelectorConfig C;
  C.ProceduresOnly = true;
  return C;
}

/// The three marker sets of Fig. 10: self-trained, procedures-only
/// cross-trained and cross-trained.
struct Selections {
  MarkerSet Self, Procs, Cross;
};

Selections select(const Program &P) {
  Selections S;
  S.Self = spanned("markers.select", [&] {
             return selectMarkers(*P.GRef, SelectorConfig());
           }).Markers;
  S.Procs = spanned("markers.select", [&] {
              return selectMarkers(*P.GTrain, proceduresOnly());
            }).Markers;
  S.Cross = spanned("markers.select", [&] {
              return selectMarkers(*P.GTrain, SelectorConfig());
            }).Markers;
  return S;
}

void digestMarkers(Digest &D, const MarkerSet &M) {
  D.u64(M.size());
  for (const Marker &Mk : M.markers()) {
    D.u64(Mk.From);
    D.u64(Mk.To);
    D.u64(Mk.GroupN);
  }
}

ProgramOut run(const Program &P) {
  ProgramOut Out;
  Selections Sel = select(P);
  ReuseMarkerSet Reuse = spanned(
      "reuse.profile", [&] { return profileReuseMarkers(*P.Bin, P.W.Train); });

  // Fig. 10's bar order: BBV oracle, SPM-Self, Procs-Cross, ReuseDist,
  // SPM-Cross.
  AdaptiveCacheResult R[5];
  R[0] = spanned("adaptcache.oracle_policy", [&] {
    return runAdaptiveWithOracleBbv(*P.Bin, P.W.Ref, OracleInterval);
  });
  R[1] = spanned("adaptcache.marker_policy", [&] {
    return runAdaptiveWithMarkers(*P.Bin, P.Loops, *P.GRef, Sel.Self, P.W.Ref);
  });
  R[2] = spanned("adaptcache.marker_policy", [&] {
    return runAdaptiveWithMarkers(*P.Bin, P.Loops, *P.GTrain, Sel.Procs,
                                  P.W.Ref);
  });
  R[3] = spanned("adaptcache.reuse_policy", [&] {
    return runAdaptiveWithReuseMarkers(*P.Bin, Reuse, P.W.Ref);
  });
  R[4] = spanned("adaptcache.marker_policy", [&] {
    return runAdaptiveWithMarkers(*P.Bin, P.Loops, *P.GTrain, Sel.Cross,
                                  P.W.Ref);
  });
  FixedSizeResult F =
      spanned("uarch.probe", [&] { return bestFixedSize(*P.Bin, P.W.Ref); });

  Span S("bench.check");
  // Every size the policies can pick lies in the 32..256 KB sweep, so an
  // instruction-weighted average outside it is a wrong answer.
  auto InSweep = [](double KB) { return KB >= 32.0 && KB <= 256.0; };
  for (const AdaptiveCacheResult &A : R) {
    check(Out, InSweep(A.AvgCacheKB), "average cache size outside sweep");
    check(Out, std::isfinite(A.MissRate) && A.MissRate >= 0.0 &&
                   A.MissRate <= 1.0,
          "miss rate outside [0, 1]");
  }
  check(Out, InSweep(F.BestFixedKB), "best fixed size outside sweep");

  Digest D;
  digestMarkers(D, Sel.Self);
  digestMarkers(D, Sel.Procs);
  digestMarkers(D, Sel.Cross);
  D.u64(Reuse.size());
  for (size_t I = 0; I < Reuse.size(); ++I) {
    D.u64(Reuse.Blocks[I]);
    D.u64(Reuse.Labels[I]);
  }
  for (const AdaptiveCacheResult &A : R) {
    D.f64(A.AvgCacheKB);
    D.f64(A.MissRate);
    D.u64(A.Intervals);
    D.u64(A.Explorations);
  }
  for (const CacheStats &C : F.PerConfig) {
    D.u64(C.Accesses);
    D.u64(C.Misses);
  }
  D.u64(F.BestIdx);
  Out.Digest = D.value();

  static const char *const Columns[5] = {"bbv_kb", "self_kb", "procs_cross_kb",
                                         "reuse_kb", "cross_kb"};
  for (int I = 0; I < 5; ++I)
    Out.Row[Columns[I]] = R[I].AvgCacheKB;
  Out.Row["best_fixed_kb"] = F.BestFixedKB;
  Out.Row["avg_cache_kb"] = R[4].AvgCacheKB;
  Out.Row["miss_rate_pct"] = R[4].MissRate * 100.0;
  Out.Counts["callloop.edges"] +=
      static_cast<double>(P.GRef->numEdges() + P.GTrain->numEdges());
  Out.Counts["reuse.markers"] += static_cast<double>(Reuse.size());
  for (const AdaptiveCacheResult &A : R) {
    Out.Counts["adaptcache.intervals"] += static_cast<double>(A.Intervals);
    Out.Counts["adaptcache.explorations"] +=
        static_cast<double>(A.Explorations);
  }
  return Out;
}

void arms(const Program &P, Values &Out) {
  Selections Sel = select(P);
  adaptiveRunArms(P, *P.GRef, Sel.Self, P.W.Ref, 1, Out);
  adaptiveRunArms(P, *P.GTrain, Sel.Procs, P.W.Ref, 1, Out);
  adaptiveRunArms(P, *P.GTrain, Sel.Cross, P.W.Ref, 1, Out);

  // The oracle policy's first pass is fixed-length BBV intervals clustered
  // by SimPoint (small n); time those steps on their own.
  Clock::time_point T0 = Clock::now();
  std::vector<IntervalRecord> Ivs =
      runFixedIntervals(*P.Bin, P.W.Ref, OracleInterval, true);
  Out["trace.fixed_intervals"] += secondsSince(T0);
  projectArm(Ivs, SimPointConfig(), Out);
  T0 = Clock::now();
  SimPointResult SP = runSimPoint(Ivs, SimPointConfig());
  Out["simpoint.run"] += secondsSince(T0);
  Out["simpoint.points"] += static_cast<double>(SP.Points.size());
  Out["simpoint.k_chosen"] += SP.K;

  // The pass interprets train once (the reuse profile) and ref seven times
  // (two oracle passes, three marker policies, the reuse policy and the
  // fixed-size probe).
  Out["vm.null"] += nullRunSeconds(P, P.W.Train, 1) +
                    7 * nullRunSeconds(P, P.W.Ref, 1);
}

Values accuracy(const std::vector<ProgramOut> &Outs) {
  return {{"avg_cache_kb", meanOfRows(Outs, "avg_cache_kb")},
          {"miss_rate_pct", meanOfRows(Outs, "miss_rate_pct")}};
}

std::vector<std::string> programs() {
  std::vector<std::string> Names = WorkloadRegistry::reconfigSuite();
  Names.push_back("gcc");
  Names.push_back("vortex");
  return Names;
}

} // namespace

const WorkloadSpec &cacheReconfigSpec() {
  static const WorkloadSpec Spec{"cache_reconfig",
                                 programs(),
                                 /*ProfileInSetup=*/true,
                                 /*MapPrograms=*/false,
                                 run,
                                 arms,
                                 accuracy};
  return Spec;
}

} // namespace perfbench
