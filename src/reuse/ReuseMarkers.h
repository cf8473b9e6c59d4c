//===- reuse/ReuseMarkers.h - Locality-phase marker baseline ----*- C++ -*-===//
//
// Part of the SPM project: reproduction of "Selecting Software Phase Markers
// with Code Structure Analysis" (CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The comparison baseline of Sec. 6.1: Shen et al.'s locality phase
/// prediction selects software markers from the *data reuse distance*
/// signal rather than from code structure. Their pipeline (wavelets over
/// the reuse trace + Sequitur grammar induction) is substituted here by an
/// equivalent-in-spirit detector: sample the reuse-distance signal in small
/// instruction windows, find change points, label phases by quantized
/// signal level, and promote to markers the basic blocks whose executions
/// coincide with the starts of a phase (high recall) without firing all
/// over the rest of the run (bounded fire ratio). On programs with regular
/// periodic locality (the Fig. 10 suite) this finds solid markers; on
/// irregular programs (gcc, vortex) no block passes the precision gate and
/// selection fails — matching the limitation the paper reports for the
/// reuse-distance approach.
///
//===----------------------------------------------------------------------===//

#ifndef SPM_REUSE_REUSEMARKERS_H
#define SPM_REUSE_REUSEMARKERS_H

#include "reuse/ReuseDistance.h"
#include "vm/Observer.h"

#include <cmath>
#include <cstdint>
#include <functional>
#include <map>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace spm {

/// Profile gathered in one instrumented run.
struct ReuseProfile {
  /// Signal sampling granularity, in instructions per window.
  static constexpr uint64_t WindowInstrs = 2000;

  /// Cap on distinct blocks remembered per window. Phase-entry blocks (the
  /// useful marker candidates) execute somewhere inside the transition
  /// window, not necessarily first, so the whole (small) distinct set is
  /// kept; windows touching more blocks than this are irregular anyway.
  static constexpr unsigned MaxBlocksPerWindow = 64;

  std::vector<double> Signal; ///< Per-window mean log2 distance.
  std::vector<std::vector<uint32_t>> WindowBlocks;
  std::unordered_map<uint32_t, uint64_t> BlockExecs;
};

/// Observer that samples the reuse-distance signal.
class ReuseSignalCollector : public ExecutionObserver {
public:
  void onBlock(const LoweredBlock &Blk) override {
    if (Lead.size() < ReuseProfile::MaxBlocksPerWindow) {
      bool Seen = false;
      for (uint32_t B : Lead)
        Seen |= B == Blk.GlobalId;
      if (!Seen)
        Lead.push_back(Blk.GlobalId);
    }
    ++P.BlockExecs[Blk.GlobalId];
    InstrsInWindow += Blk.NumInstrs;
    if (InstrsInWindow >= ReuseProfile::WindowInstrs)
      finishWindow();
  }

  void onMemAccess(uint64_t Addr, bool IsStore) override {
    (void)IsStore;
    uint64_t D = Tracker.access(Addr);
    // Cold misses register as a large distance (a 16M-block footprint).
    double L = D == ReuseDistanceTracker::ColdMiss
                   ? 24.0
                   : std::log2(1.0 + static_cast<double>(D));
    SignalSum += L;
    ++SignalCount;
  }

  void onRunEnd(uint64_t Total) override {
    (void)Total;
    if (InstrsInWindow > 0)
      finishWindow();
  }

  /// The collected profile (move out after the run).
  ReuseProfile takeProfile() { return std::move(P); }

private:
  void finishWindow() {
    P.Signal.push_back(SignalCount ? SignalSum / SignalCount : 0.0);
    P.WindowBlocks.push_back(std::move(Lead));
    Lead.clear();
    SignalSum = 0.0;
    SignalCount = 0;
    InstrsInWindow = 0;
  }

  ReuseDistanceTracker Tracker;
  ReuseProfile P;
  std::vector<uint32_t> Lead;
  double SignalSum = 0.0;
  uint64_t SignalCount = 0;
  uint64_t InstrsInWindow = 0;
};

/// The selected reuse markers: basic blocks (by global id), one phase label
/// per marker. Marker index is the phase id used when cutting intervals.
struct ReuseMarkerSet {
  std::vector<uint32_t> Blocks;
  std::vector<uint32_t> Labels;

  bool empty() const { return Blocks.empty(); }
  size_t size() const { return Blocks.size(); }
};

/// Detected change points of a signal (exposed for tests).
struct SignalBoundary {
  size_t Window = 0;
  uint32_t Label = 0; ///< Quantized level after the change.
};

/// Finds change points: a window whose signal departs from the running
/// mean of the current segment by more than 0.75 global stddevs.
std::vector<SignalBoundary> detectBoundaries(const std::vector<double> &Signal);

/// Selects reuse markers from a profile with the windowed change-point
/// detector. Returns an empty set when no block passes the recall /
/// precision gates (irregular programs).
ReuseMarkerSet selectReuseMarkers(const ReuseProfile &P);

/// Online detector: fires the callback when a marker block executes.
class ReuseMarkerRuntime : public ExecutionObserver {
public:
  using FireCallback = std::function<void(int32_t MarkerIdx)>;

  explicit ReuseMarkerRuntime(const ReuseMarkerSet &M) {
    for (size_t I = 0; I < M.Blocks.size(); ++I) {
      uint32_t Id = M.Blocks[I];
      if (Id >= Index.size())
        Index.resize(static_cast<size_t>(Id) + 1, -1);
      Index[Id] = static_cast<int32_t>(I); // A repeated block: last wins.
    }
  }

  void setCallback(FireCallback CB) { Callback = std::move(CB); }

  void onBlock(const LoweredBlock &Blk) override {
    if (Blk.GlobalId >= Index.size())
      return;
    int32_t Idx = Index[Blk.GlobalId];
    if (Idx < 0)
      return;
    ++Fired;
    if (Callback)
      Callback(Idx);
  }

  uint64_t fireCount() const { return Fired; }

private:
  /// Marker index by block id, -1 for unmarked blocks; as long as the
  /// largest marker block id + 1.
  std::vector<int32_t> Index;
  FireCallback Callback;
  uint64_t Fired = 0;
};

} // namespace spm

#endif // SPM_REUSE_REUSEMARKERS_H
