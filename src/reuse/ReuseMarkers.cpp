//===- reuse/ReuseMarkers.cpp ---------------------------------------------==//

#include "reuse/ReuseMarkers.h"

#include "support/Stats.h"

using namespace spm;

namespace {

// Tunables of the baseline, fixed at the values Fig. 10 uses.
constexpr double BoundarySigma = 0.75; ///< Change threshold, global stddevs.
constexpr uint32_t QuantLevels = 4;    ///< Phase labels = quantized level.
constexpr double MinRecall = 0.4;      ///< Block at >= this share of starts.
constexpr double MaxFireRatio = 3.0;   ///< Execs <= ratio x credited starts.
constexpr uint32_t MinBoundaries = 4;  ///< Labels with fewer are ignored.

} // namespace

std::vector<SignalBoundary>
spm::detectBoundaries(const std::vector<double> &Signal) {
  std::vector<SignalBoundary> Out;
  if (Signal.size() < 4)
    return Out;

  RunningStat Global;
  for (double S : Signal)
    Global.add(S);
  double Threshold = BoundarySigma * Global.stddev();
  if (Threshold <= 0)
    return Out;
  double Lo = Global.min(), Hi = Global.max();
  double Span = Hi > Lo ? Hi - Lo : 1.0;

  auto Quantize = [&](double V) {
    auto L = static_cast<int64_t>((V - Lo) / Span * QuantLevels);
    if (L < 0)
      L = 0;
    if (L >= QuantLevels)
      L = QuantLevels - 1;
    return static_cast<uint32_t>(L);
  };

  // Segment-mean change detection. The label of a boundary is the
  // quantized level of the *new* segment, estimated from a short lookahead
  // so one noisy window cannot mislabel the phase.
  auto LabelAt = [&](size_t I) {
    double Sum = 0.0;
    size_t N = 0;
    for (size_t J = I; J < Signal.size() && J < I + 3; ++J, ++N)
      Sum += Signal[J];
    return Quantize(Sum / static_cast<double>(N));
  };

  double SegSum = Signal[0];
  size_t SegLen = 1;
  for (size_t I = 1; I < Signal.size(); ++I) {
    double SegMean = SegSum / static_cast<double>(SegLen);
    if (std::abs(Signal[I] - SegMean) > Threshold) {
      Out.push_back({I, LabelAt(I)});
      SegSum = Signal[I];
      SegLen = 1;
      continue;
    }
    SegSum += Signal[I];
    ++SegLen;
  }
  return Out;
}

namespace {

/// Back half of selectReuseMarkers: credit blocks around boundaries and
/// promote the gated best per label.
ReuseMarkerSet creditAndSelect(const ReuseProfile &P,
                               const std::vector<SignalBoundary> &Bs) {
  ReuseMarkerSet M;
  if (Bs.empty())
    return M;

  // Credit the blocks around each boundary to (label, block): the
  // phase-entry block executes inside the transition window or at the tail
  // of the previous one, so the union of both windows' block sets is
  // credited once per boundary. Hot kernel blocks collect credit too and
  // are killed by the fire-ratio gate below.
  std::map<uint32_t, uint64_t> BoundariesPerLabel;
  std::map<std::pair<uint32_t, uint32_t>, uint64_t> Credit; // (label,block).
  for (const SignalBoundary &B : Bs) {
    if (B.Window >= P.WindowBlocks.size())
      continue;
    ++BoundariesPerLabel[B.Label];
    std::unordered_set<uint32_t> Around(P.WindowBlocks[B.Window].begin(),
                                        P.WindowBlocks[B.Window].end());
    if (B.Window > 0)
      Around.insert(P.WindowBlocks[B.Window - 1].begin(),
                    P.WindowBlocks[B.Window - 1].end());
    for (uint32_t Block : Around)
      ++Credit[{B.Label, Block}];
  }

  // Per label, promote the best block passing recall and fire-ratio gates.
  std::unordered_set<uint32_t> Chosen;
  for (const auto &[Label, NumB] : BoundariesPerLabel) {
    if (NumB < MinBoundaries)
      continue;
    uint32_t BestBlock = 0;
    uint64_t BestCredit = 0;
    uint64_t BestExecs = 0;
    for (const auto &[Key, C] : Credit) {
      if (Key.first != Label)
        continue;
      if (C < static_cast<uint64_t>(MinRecall * static_cast<double>(NumB)))
        continue; // Not tied to this label's starts.
      auto ExecIt = P.BlockExecs.find(Key.second);
      uint64_t Execs = ExecIt == P.BlockExecs.end() ? 0 : ExecIt->second;
      if (static_cast<double>(Execs) > MaxFireRatio * static_cast<double>(C))
        continue; // Fires far too often elsewhere: would shred phases.
      // Prefer higher recall, then the rarer (more precise) block.
      if (C > BestCredit || (C == BestCredit && Execs < BestExecs)) {
        BestCredit = C;
        BestExecs = Execs;
        BestBlock = Key.second;
      }
    }
    if (BestCredit == 0)
      continue;
    if (!Chosen.insert(BestBlock).second)
      continue;
    M.Blocks.push_back(BestBlock);
    M.Labels.push_back(Label);
  }
  return M;
}

} // namespace

ReuseMarkerSet spm::selectReuseMarkers(const ReuseProfile &P) {
  return creditAndSelect(P, detectBoundaries(P.Signal));
}
