//===- perfbench/driver/Bench.h - Benchmark driver plumbing -----*- C++ -*-===//
//
// Part of the SPM project: reproduction of "Selecting Software Phase Markers
// with Code Structure Analysis" (CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shared pieces of the end-to-end benchmark driver: the prepared program
/// (set-up output), the per-program result of one pass, the output digest
/// that proves two passes computed the same thing, and the benchmark's own
/// span recorder. Spans are recorded here, around each call into a library
/// module, never inside the libraries; a span's name starts with the module
/// (layer) it times, e.g. "simpoint.run" or "adaptcache.marker_policy".
///
/// Only public headers under src/ are used, so the figure harnesses in
/// bench/ can be refactored without touching this driver.
///
//===----------------------------------------------------------------------===//

#ifndef SPM_PERFBENCH_BENCH_H
#define SPM_PERFBENCH_BENCH_H

#include "callloop/Profile.h"
#include "markers/Pipeline.h"
#include "workloads/Workloads.h"

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double secondsSince(Clock::time_point T0) {
  return std::chrono::duration<double>(Clock::now() - T0).count();
}

/// One registry program after set-up: lowered, loop-indexed and, for the
/// workloads whose every configuration reuses them, profiled on both inputs.
struct Program {
  spm::Workload W;
  std::unique_ptr<spm::Binary> Bin;
  spm::LoopIndex Loops;
  std::unique_ptr<spm::CallLoopGraph> GTrain, GRef;
};

/// Named values, summed over programs (layer counts, arm times).
using Values = std::map<std::string, double>;

/// One program through one workload pass: the operation the benchmark
/// counts as attempted or failed.
struct ProgramOut {
  uint64_t Digest = 0;
  std::string Failure; ///< Empty when every output check passed.
  double Seconds = 0.0;
  Values Row;    ///< Telemetry: accuracy figures of this program.
  Values Counts; ///< Per-layer work counts taken from the outputs.
};

/// A workload: which programs it walks, what set-up does, how one program
/// runs through a pass, and the traced-run subtraction arms.
struct WorkloadSpec {
  const char *Name;
  std::vector<std::string> Programs;
  /// Set-up also profiles train and ref (the graphs every configuration
  /// reuses); otherwise profiling is part of the pass.
  bool ProfileInSetup;
  /// At jobs > 1 the pass maps over programs, as the matching user entry
  /// point does; otherwise programs run in order and only the libraries'
  /// own parallel loops fan out.
  bool MapPrograms;
  ProgramOut (*Run)(const Program &P);
  /// Times each observer-composed run of the pass layer by layer (see
  /// Arms.h) and adds the results to \p Out.
  void (*Arms)(const Program &P, Values &Out);
  /// Workload-scoped end-to-end accuracy metrics from one pass's rows.
  Values (*Accuracy)(const std::vector<ProgramOut> &Outs);
};

const WorkloadSpec &simPointSweepSpec();
const WorkloadSpec &cacheReconfigSpec();
const WorkloadSpec &markerPipelineSpec();

//===----------------------------------------------------------------------===//
// Output digest
//===----------------------------------------------------------------------===//

/// FNV-1a over the deterministic outputs of a program. Host-dependent
/// fields (IntervalRecord::WallNs) are never fed in.
class Digest {
public:
  void bytes(const void *P, size_t N) {
    const auto *B = static_cast<const unsigned char *>(P);
    for (size_t I = 0; I < N; ++I) {
      H ^= B[I];
      H *= 0x100000001b3ULL;
    }
  }
  void u64(uint64_t V) { bytes(&V, sizeof V); }
  void f64(double V) {
    uint64_t Bits = 0;
    std::memcpy(&Bits, &V, sizeof V);
    u64(Bits);
  }
  void str(const std::string &S) {
    u64(S.size());
    bytes(S.data(), S.size());
  }
  void perf(const spm::PerfCounters &C) {
    u64(C.Instrs);
    u64(C.BaseCycles);
    u64(C.L1Accesses);
    u64(C.L1Misses);
    u64(C.Branches);
    u64(C.Mispredicts);
  }
  void intervals(const std::vector<spm::IntervalRecord> &Ivs) {
    u64(Ivs.size());
    for (const spm::IntervalRecord &R : Ivs) {
      u64(R.StartInstr);
      u64(R.NumInstrs);
      u64(R.NumBlocks);
      u64(R.NumMem);
      u64(static_cast<uint64_t>(static_cast<int64_t>(R.PhaseId)));
      perf(R.Perf);
      u64(R.Vector.size());
      for (const auto &[Id, W] : R.Vector) {
        u64(Id);
        f64(W);
      }
    }
  }
  void ids(const std::vector<int32_t> &V) {
    u64(V.size());
    for (int32_t X : V)
      u64(static_cast<uint64_t>(static_cast<int64_t>(X)));
  }
  uint64_t value() const { return H; }

private:
  uint64_t H = 0xcbf29ce484222325ULL;
};

//===----------------------------------------------------------------------===//
// Span recorder
//===----------------------------------------------------------------------===//

/// In-memory spans of one traced pass, recorded on one thread (the traced
/// pass runs at jobs=1). Each span has a name, a start, an end and the span
/// that encloses it; spans are written out only when the pass has ended.
class Tracer {
public:
  void begin(const char *Name) {
    int32_t Parent = Open.empty() ? -1 : static_cast<int32_t>(Open.back());
    Open.push_back(Spans.size());
    Spans.push_back({Name, Clock::now(), Clock::time_point(), Parent});
  }
  void end() {
    Spans[Open.back()].End = Clock::now();
    Open.pop_back();
  }

  /// Summed duration per span name (seconds).
  Values totals() const {
    Values Out;
    for (const Span &S : Spans)
      Out[S.Name] += seconds(S);
    return Out;
  }
  /// Summed duration of the top-level spans (those with no parent).
  double topLevelSeconds() const {
    double T = 0.0;
    for (const Span &S : Spans)
      if (S.Parent < 0)
        T += seconds(S);
    return T;
  }

private:
  struct Span {
    const char *Name;
    Clock::time_point Begin, End;
    int32_t Parent;
  };
  static double seconds(const Span &S) {
    return std::chrono::duration<double>(S.End - S.Begin).count();
  }
  std::vector<Span> Spans;
  std::vector<size_t> Open;
};

/// The tracer of the pass in progress, or null (untraced passes). Set and
/// cleared by the driver between passes, and only consulted on the thread
/// that set it.
void setActiveTracer(Tracer *T);
Tracer *activeTracer();

/// RAII span around one call into a library module.
class Span {
public:
  explicit Span(const char *Name) : T(activeTracer()) {
    if (T)
      T->begin(Name);
  }
  ~Span() {
    if (T)
      T->end();
  }
  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;

private:
  Tracer *T;
};

/// Times \p Fn under a span named \p Name and returns its result.
template <class Fn> auto spanned(const char *Name, Fn &&F) {
  Span S(Name);
  return F();
}

/// Runs \p Fn \p Reps times and returns the fastest wall time in seconds:
/// the subtraction arms report each composition's floor, so host noise
/// cannot make a layer's self time go negative by chance as easily.
template <class Fn> double fastestOf(int Reps, Fn &&F) {
  double Best = 0.0;
  for (int R = 0; R < Reps; ++R) {
    Clock::time_point T0 = Clock::now();
    F();
    double S = secondsSince(T0);
    if (R == 0 || S < Best)
      Best = S;
  }
  return Best;
}

/// Mean of row \p Key over the programs that produced it (a program that
/// failed before producing its outputs has no row).
inline double meanOfRows(const std::vector<ProgramOut> &Outs,
                         const std::string &Key) {
  double Sum = 0.0;
  size_t N = 0;
  for (const ProgramOut &O : Outs)
    if (auto It = O.Row.find(Key); It != O.Row.end()) {
      Sum += It->second;
      ++N;
    }
  return N ? Sum / static_cast<double>(N) : 0.0;
}

/// Appends a failure note to \p Out (operations keep running after a
/// failed check so every failure of the pass is reported).
inline void check(ProgramOut &Out, bool Ok, const char *What) {
  if (Ok)
    return;
  if (!Out.Failure.empty())
    Out.Failure += "; ";
  Out.Failure += What;
}

} // namespace perfbench

#endif // SPM_PERFBENCH_BENCH_H
