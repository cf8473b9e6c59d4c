//===- support/FailPoint.cpp - Deterministic fault injection --------------===//
//
// Part of the SPM project: reproduction of "Selecting Software Phase Markers
// with Code Structure Analysis" (CGO 2006).
//
//===----------------------------------------------------------------------===//

#include "support/FailPoint.h"
#include "support/FlightRecorder.h"
#include "support/Metrics.h"
#include "support/Trace.h"

#include <atomic>
#include <cstdlib>
#include <mutex>
#include <unordered_map>

namespace spm {

const std::vector<std::string> &failpointSeamNames() {
  // One name per failpointCheck / failpointEval site. Keep sorted; the
  // kill-at-every-seam fuzz and docs/robustness.md mirror this list.
  static const std::vector<std::string> Names = {
      "bench.write",   // bench JSON emit (tools/spm_tool.cpp)
      "cfg.import",    // importCfg (cfg/Import.cpp)
      "metrics.write", // --metrics-out emit (tools/spm_tool.cpp)
      "tool.write",    // any other spm_tool output file
      "trace.write",   // --trace-out emit (tools/spm_tool.cpp)
  };
  return Names;
}

namespace {

enum class Mode : uint8_t { ThrowAlways, ThrowOnce, ThrowNth, ThrowEvery, Partial };

struct PointState {
  Mode M = Mode::ThrowAlways;
  uint64_t N = 0;    ///< nth / every period / partial byte count.
  uint64_t Hits = 0; ///< Evaluations since armed.
  bool Fired = false;///< once/partial modes: already triggered.
};

std::mutex PointsMu;
std::unordered_map<std::string, PointState> Points;

/// Disarmed fast-path guard: number of armed failpoints. Relaxed is enough —
/// specs are (re)armed outside the regions they fault, exactly like the
/// spmtrace runtime switch.
std::atomic<uint64_t> NumArmed{0};

bool parseCount(const std::string &S, uint64_t &Out) {
  if (S.empty())
    return false;
  uint64_t V = 0;
  for (char C : S) {
    if (C < '0' || C > '9')
      return false;
    if (V > (UINT64_MAX - (C - '0')) / 10)
      return false;
    V = V * 10 + (C - '0');
  }
  if (V == 0)
    return false;
  Out = V;
  return true;
}

bool parseMode(const std::string &ModeStr, PointState &St, std::string &Detail) {
  if (ModeStr == "throw") {
    St.M = Mode::ThrowAlways;
    return true;
  }
  if (ModeStr == "throw:once") {
    St.M = Mode::ThrowOnce;
    return true;
  }
  const std::string Nth = "throw:nth:", Every = "throw:every:",
                    Part = "partial:";
  if (ModeStr.rfind(Nth, 0) == 0) {
    St.M = Mode::ThrowNth;
    if (!parseCount(ModeStr.substr(Nth.size()), St.N)) {
      Detail = "throw:nth needs a positive count";
      return false;
    }
    return true;
  }
  if (ModeStr.rfind(Every, 0) == 0) {
    St.M = Mode::ThrowEvery;
    if (!parseCount(ModeStr.substr(Every.size()), St.N)) {
      Detail = "throw:every needs a positive period";
      return false;
    }
    return true;
  }
  if (ModeStr.rfind(Part, 0) == 0) {
    St.M = Mode::Partial;
    if (!parseCount(ModeStr.substr(Part.size()), St.N)) {
      Detail = "partial needs a positive byte count";
      return false;
    }
    return true;
  }
  Detail = "unknown mode '" + ModeStr + "'";
  return false;
}

bool knownSeam(const std::string &Name) {
  for (const std::string &S : failpointSeamNames())
    if (S == Name)
      return true;
  return false;
}

} // namespace

bool failpointsConfigure(const std::string &Spec, std::string *Err) {
  std::unordered_map<std::string, PointState> Parsed;
  size_t Pos = 0;
  while (Pos < Spec.size()) {
    size_t Comma = Spec.find(',', Pos);
    if (Comma == std::string::npos)
      Comma = Spec.size();
    std::string Item = Spec.substr(Pos, Comma - Pos);
    Pos = Comma + 1;
    if (Item.empty())
      continue;
    size_t Eq = Item.find('=');
    if (Eq == std::string::npos || Eq == 0) {
      if (Err)
        *Err = "failpoint spec item '" + Item + "' is not name=mode";
      return false;
    }
    std::string Name = Item.substr(0, Eq);
    if (!knownSeam(Name)) {
      if (Err)
        *Err = "unknown failpoint '" + Name + "'";
      return false;
    }
    PointState St;
    std::string Detail;
    if (!parseMode(Item.substr(Eq + 1), St, Detail)) {
      if (Err)
        *Err = "failpoint '" + Name + "': " + Detail;
      return false;
    }
    Parsed[Name] = St;
  }
  std::lock_guard<std::mutex> L(PointsMu);
  Points = std::move(Parsed);
  NumArmed.store(Points.size(), std::memory_order_relaxed);
  return true;
}

void failpointsClear() {
  std::lock_guard<std::mutex> L(PointsMu);
  Points.clear();
  NumArmed.store(0, std::memory_order_relaxed);
}

uint64_t failpointHits(const std::string &Name) {
  std::lock_guard<std::mutex> L(PointsMu);
  auto It = Points.find(Name);
  return It == Points.end() ? 0 : It->second.Hits;
}

FailAction failpointEval(const char *Name) {
  if (NumArmed.load(std::memory_order_relaxed) == 0)
    return FailAction{};
  FailAction Act;
  {
    std::lock_guard<std::mutex> L(PointsMu);
    auto It = Points.find(Name);
    if (It == Points.end())
      return FailAction{};
    PointState &St = It->second;
    ++St.Hits;
    switch (St.M) {
    case Mode::ThrowAlways:
      Act.K = FailAction::Kind::Throw;
      break;
    case Mode::ThrowOnce:
      if (!St.Fired) {
        St.Fired = true;
        Act.K = FailAction::Kind::Throw;
      }
      break;
    case Mode::ThrowNth:
      if (St.Hits == St.N)
        Act.K = FailAction::Kind::Throw;
      break;
    case Mode::ThrowEvery:
      if (St.Hits % St.N == 0)
        Act.K = FailAction::Kind::Throw;
      break;
    case Mode::Partial:
      if (!St.Fired) {
        St.Fired = true;
        Act.K = FailAction::Kind::Partial;
        Act.Arg = St.N;
      }
      break;
    }
  }
  if (Act.K != FailAction::Kind::None) {
    metrics().counter("fault.injected").add(1);
    flightRecord("fault.injected", Name);
  }
  return Act;
}

} // namespace spm
