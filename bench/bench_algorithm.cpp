//===- bench/bench_algorithm.cpp - algorithm microbenchmarks --------------==//
//
// Google-benchmark measurements backing the paper's Sec. 5.1 performance
// claims: marker selection is O(E + N log N) and "runs in seconds on every
// call-loop graph we have collected" (milliseconds here), and the whole
// profiling pass is cheap. Also benchmarks the substrate costs (interpreter
// throughput, cache model, exact reuse distance, k-means) so regressions in
// any layer are visible.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "reuse/ReuseDistance.h"
#include "simpoint/KMeans.h"
#include "support/Random.h"
#include "uarch/Cache.h"

#include <benchmark/benchmark.h>

using namespace spm;
using namespace spm::bench;

namespace {

/// Builds a synthetic call-loop graph: a call tree of \p NumFuncs
/// functions, each containing two loops, with plausible edge statistics.
std::unique_ptr<CallLoopGraph> syntheticGraph(uint32_t NumFuncs) {
  uint32_t NumLoops = 2 * NumFuncs;
  auto G = std::make_unique<CallLoopGraph>(NumFuncs, NumLoops);
  Rng R(99);
  auto AddStats = [&](NodeId From, NodeId To, double Scale) {
    for (int I = 0; I < 4; ++I)
      G->addTraversal(From, To,
                      static_cast<uint64_t>(Scale * (0.9 + 0.2 * R.nextDouble())));
  };
  AddStats(RootNode, G->procHead(0), 1e9);
  AddStats(G->procHead(0), G->procBody(0), 1e9);
  for (uint32_t F = 1; F < NumFuncs; ++F) {
    auto Parent = static_cast<uint32_t>(R.nextBelow(F));
    double Scale = 1e9 / (1.0 + F);
    AddStats(G->procBody(Parent), G->procHead(F), Scale);
    AddStats(G->procHead(F), G->procBody(F), Scale);
  }
  for (uint32_t L = 0; L < NumLoops; ++L) {
    uint32_t Owner = L / 2;
    double Scale = 1e8 / (1.0 + Owner);
    AddStats(G->procBody(Owner), G->loopHead(L), Scale);
    AddStats(G->loopHead(L), G->loopBody(L), Scale / 50.0);
  }
  G->finalize();
  return G;
}

void BM_SelectMarkers(benchmark::State &State) {
  auto G = syntheticGraph(static_cast<uint32_t>(State.range(0)));
  SelectorConfig C;
  C.ILower = 10000;
  for (auto _ : State) {
    SelectionResult R = selectMarkers(*G, C);
    benchmark::DoNotOptimize(R.Markers.size());
  }
  State.SetComplexityN(State.range(0));
}
BENCHMARK(BM_SelectMarkers)->Range(256, 65536)->Complexity();

void BM_SelectMarkersLimitMode(benchmark::State &State) {
  auto G = syntheticGraph(static_cast<uint32_t>(State.range(0)));
  SelectorConfig C;
  C.ILower = 10000;
  C.Limit = true;
  C.MaxLimit = 200000;
  for (auto _ : State) {
    SelectionResult R = selectMarkers(*G, C);
    benchmark::DoNotOptimize(R.Markers.size());
  }
}
BENCHMARK(BM_SelectMarkersLimitMode)->Range(256, 16384);

void BM_EstimateMaxDepths(benchmark::State &State) {
  auto G = syntheticGraph(static_cast<uint32_t>(State.range(0)));
  for (auto _ : State) {
    auto D = estimateMaxDepths(*G);
    benchmark::DoNotOptimize(D.data());
  }
}
BENCHMARK(BM_EstimateMaxDepths)->Range(256, 65536);

void BM_InterpreterRaw(benchmark::State &State) {
  Workload W = WorkloadRegistry::create("gzip");
  auto B = lower(*W.Program, LoweringOptions::O2());
  uint64_t Instrs = 0;
  for (auto _ : State) {
    NullSink Nop;
    Interpreter Interp(*B, W.Train);
    RunResult R = Interp.runFast(Nop);
    Instrs += R.TotalInstrs;
  }
  State.SetItemsProcessed(static_cast<int64_t>(Instrs));
}
BENCHMARK(BM_InterpreterRaw);

void BM_ProfileCallLoopGraph(benchmark::State &State) {
  Workload W = WorkloadRegistry::create("gzip");
  auto B = lower(*W.Program, LoweringOptions::O2());
  LoopIndex Loops = LoopIndex::build(*B);
  uint64_t Instrs = 0;
  for (auto _ : State) {
    auto G = buildCallLoopGraph(*B, Loops, W.Train);
    benchmark::DoNotOptimize(G->numEdges());
    Instrs += 500000; // Approximate train-run length; items ~ instructions.
  }
  State.SetItemsProcessed(static_cast<int64_t>(Instrs));
}
BENCHMARK(BM_ProfileCallLoopGraph);

void BM_MarkerRuntime(benchmark::State &State) {
  Workload W = WorkloadRegistry::create("gzip");
  auto B = lower(*W.Program, LoweringOptions::O2());
  LoopIndex Loops = LoopIndex::build(*B);
  auto G = buildCallLoopGraph(*B, Loops, W.Train);
  SelectorConfig C;
  C.ILower = 10000;
  MarkerSet M = selectMarkers(*G, C).Markers;
  for (auto _ : State) {
    MarkerRun R = runMarkerIntervals(*B, Loops, *G, M, W.Train, false);
    benchmark::DoNotOptimize(R.Intervals.size());
  }
}
BENCHMARK(BM_MarkerRuntime);

void BM_CacheAccess(benchmark::State &State) {
  CacheModel Cache({512, static_cast<uint32_t>(State.range(0)), 64});
  Rng R(7);
  uint64_t N = 0;
  for (auto _ : State) {
    Cache.access((1ull << 32) + R.nextBelow(4096) * 64);
    ++N;
  }
  State.SetItemsProcessed(static_cast<int64_t>(N));
}
BENCHMARK(BM_CacheAccess)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

void BM_ReuseDistance(benchmark::State &State) {
  ReuseDistanceTracker T(64);
  Rng R(13);
  uint64_t N = 0;
  for (auto _ : State) {
    benchmark::DoNotOptimize(T.access(R.nextBelow(1 << 20) * 64));
    ++N;
  }
  State.SetItemsProcessed(static_cast<int64_t>(N));
}
BENCHMARK(BM_ReuseDistance);

void BM_KMeans(benchmark::State &State) {
  Rng R(5);
  std::vector<std::vector<double>> Pts;
  for (int I = 0; I < 400; ++I) {
    std::vector<double> P(15);
    for (double &X : P)
      X = R.nextGaussian();
    Pts.push_back(std::move(P));
  }
  std::vector<double> W(Pts.size(), 1.0);
  for (auto _ : State) {
    KMeansResult KR =
        kmeansCluster(Pts, W, static_cast<uint32_t>(State.range(0)), 3, 2);
    benchmark::DoNotOptimize(KR.Distortion);
  }
}
BENCHMARK(BM_KMeans)->Arg(4)->Arg(10);

} // namespace

BENCHMARK_MAIN();
