//===- vm/Interpreter.cpp -------------------------------------------------==//

#include "vm/Interpreter.h"

using namespace spm;

// Out-of-line virtual method anchor.
ExecutionObserver::~ExecutionObserver() = default;

Interpreter::Interpreter(const Binary &B, const WorkloadInput &In)
    : B(B), In(In), Rand(In.seed()) {
  RegionSizes.reserve(B.Regions.size());
  for (const MemRegionSpec &R : B.Regions) {
    uint64_t Size = R.SizeParam.empty()
                        ? R.FixedSize
                        : static_cast<uint64_t>(In.get(R.SizeParam)) *
                              R.SizeScale;
    assert(Size > 0 && "region resolved to zero bytes");
    assert(Size <= RegionSpacing && "region larger than its address slot");
    RegionSizes.push_back(Size < 64 ? 64 : Size);
  }
  SeqPos.assign(B.NumMemSites, 0);
  ChaseState.assign(B.NumMemSites, 0);
  RandState.assign(B.NumMemSites, 0);
  for (uint32_t I = 0; I < B.NumMemSites; ++I) {
    ChaseState[I] = In.seed() * 0x9e3779b97f4a7c15ULL + I;
    // Counter-based stream per site: random addresses are drawn by mixing
    // successive counter values, never from the shared control-flow RNG.
    // Decoupling keeps the structural path independent of whether memory
    // is modeled at all, and makes skipping N accesses a single addition.
    RandState[I] = splitMix64(In.seed() ^ (0x9e3779b97f4a7c15ULL * (I + 1)));
  }
  SchedCursor.assign(B.NumTripSites, 0);
  CondCounter.assign(B.NumCondSites, 0);
  RRCursor.assign(B.NumRRSites, 0);
}

RunResult Interpreter::run(ExecutionObserver &Obs, uint64_t MaxInstrsIn) {
  return runFast(Obs, MaxInstrsIn);
}

// The exec tree and the address/trip/cond evaluators live in Interpreter.h
// so every runFast instantiation, run()'s included, inlines them fully.
