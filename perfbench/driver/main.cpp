//===- perfbench/driver/main.cpp - End-to-end benchmark driver -----------==//
//
// Part of the SPM project: reproduction of "Selecting Software Phase Markers
// with Code Structure Analysis" (CGO 2006).
//
//===----------------------------------------------------------------------===//
//
//   spm_perfbench --workload <simpoint_sweep|cache_reconfig|marker_pipeline>
//                 [--seed N] [--seconds S] [--trace 0|1]
//
// One closed-loop client in one process. Set-up (registry creation,
// lowering, loop recovery and, where every configuration reuses them, the
// train/ref profiles) runs several times; the fastest is setup_s. Then
// jobs=1 passes over the workload's programs run for --seconds. Every pass
// is checked: each program's outputs must digest to the same value in
// every pass, whatever the job count and whether traced or not.
//
// --trace 0 reports the end-to-end metrics. --trace 1 alternates untraced
// and traced jobs=1 passes instead, then runs one jobs=4 pass and the
// subtraction arms, and reports the per-layer metrics (see README.md).
//
// stdout: one JSON telemetry row per program, one per workload, then the
// result object as the last line.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "ir/Lowering.h"
#include "support/Metrics.h"
#include "support/Parallel.h"
#include "support/Trace.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <sys/resource.h>
#include <thread>

using namespace spm;
using namespace perfbench;

namespace perfbench {
namespace {
Tracer *Active = nullptr;
std::thread::id ActiveThread;
} // namespace

void setActiveTracer(Tracer *T) {
  Active = T;
  ActiveThread = std::this_thread::get_id();
}

Tracer *activeTracer() {
  return Active && std::this_thread::get_id() == ActiveThread ? Active
                                                              : nullptr;
}
} // namespace perfbench

namespace {

/// Set-up repeats at least MinSetupReps times and until MinSetupSeconds
/// have passed (cheap set-ups), at most MaxSetupReps times; setup_s is the
/// fastest, for the reason fastestPass gives.
constexpr size_t MinSetupReps = 5, MaxSetupReps = 500;
constexpr double MinSetupSeconds = 1.0;
/// The parallel job count of the fanned-out passes.
constexpr int ParallelJobs = 4;

/// Metrics a workload does not compute (the accuracy axis of another
/// workload) read as this constant, so every workload reports every
/// end-to-end metric and none reads 0.
constexpr double NotApplicable = 1.0;

struct Args {
  std::string Workload;
  uint64_t Seed = 0;
  double Seconds = 10.0;
  bool Trace = false;
};

bool parseArgs(int Argc, char **Argv, Args &A) {
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (I + 1 >= Argc)
      return false;
    std::string V = Argv[++I];
    char *End = nullptr;
    if (Arg == "--workload") {
      A.Workload = V;
    } else if (Arg == "--seed") {
      A.Seed = std::strtoull(V.c_str(), &End, 10);
    } else if (Arg == "--seconds") {
      A.Seconds = std::strtod(V.c_str(), &End);
    } else if (Arg == "--trace") {
      A.Trace = V == "1";
      if (V != "0" && V != "1")
        return false;
    } else {
      return false;
    }
    if (End && *End)
      return false;
  }
  return !A.Workload.empty() && A.Seconds > 0;
}

const WorkloadSpec *findSpec(const std::string &Name) {
  for (const WorkloadSpec *S :
       {&simPointSweepSpec(), &cacheReconfigSpec(), &markerPipelineSpec()})
    if (Name == S->Name)
      return S;
  return nullptr;
}

/// Data seed of one input under benchmark seed \p Seed. Seed 0 keeps the
/// registry's own seeds.
uint64_t inputSeed(uint64_t Seed, const std::string &Program,
                   const WorkloadInput &In) {
  if (Seed == 0)
    return In.seed();
  Digest D;
  D.u64(Seed);
  D.str(Program);
  D.str(In.name());
  return D.value() | 1;
}

/// Set-up: the programs every pass of the run reuses.
std::vector<Program> setup(const WorkloadSpec &Spec, uint64_t Seed) {
  std::vector<Program> Ps(Spec.Programs.size());
  for (size_t I = 0; I < Ps.size(); ++I) {
    Program &P = Ps[I];
    const std::string &Name = Spec.Programs[I];
    P.W = spanned("workloads.create",
                  [&] { return WorkloadRegistry::create(Name); });
    P.W.Train.setSeed(inputSeed(Seed, Name, P.W.Train));
    P.W.Ref.setSeed(inputSeed(Seed, Name, P.W.Ref));
    P.Bin = spanned("ir.lower",
                    [&] { return lower(*P.W.Program, LoweringOptions::O2()); });
    P.Loops = spanned("ir.loops", [&] { return LoopIndex::build(*P.Bin); });
    if (Spec.ProfileInSetup) {
      auto Graphs = spanned("callloop.profile", [&] {
        return buildCallLoopGraphs(*P.Bin, P.Loops, {&P.W.Train, &P.W.Ref});
      });
      P.GTrain = std::move(Graphs[0]);
      P.GRef = std::move(Graphs[1]);
    }
  }
  return Ps;
}

struct Pass {
  std::vector<ProgramOut> Outs;
  double Seconds = 0.0;
};

Pass runPass(const WorkloadSpec &Spec, const std::vector<Program> &Ps,
             int Jobs) {
  setParallelJobs(Jobs);
  auto One = [&](size_t I) {
    Clock::time_point T0 = Clock::now();
    ProgramOut O = Spec.Run(Ps[I]);
    O.Seconds = secondsSince(T0);
    return O;
  };
  Pass R;
  Clock::time_point T0 = Clock::now();
  if (Spec.MapPrograms) {
    R.Outs = parallelMap(Ps.size(), One);
  } else {
    for (size_t I = 0; I < Ps.size(); ++I)
      R.Outs.push_back(One(I));
  }
  R.Seconds = secondsSince(T0);
  setParallelJobs(1);
  return R;
}

/// Operations attempted and failed. One operation is one program through
/// one pass; it fails when a check fails or when its outputs differ from
/// the run's first pass (jobs=1, untraced).
struct Ledger {
  std::vector<uint64_t> Reference;
  uint64_t Attempted = 0, Failed = 0;

  void add(const WorkloadSpec &Spec, const Pass &P, const char *Label) {
    if (Reference.empty())
      for (const ProgramOut &O : P.Outs)
        Reference.push_back(O.Digest);
    for (size_t I = 0; I < P.Outs.size(); ++I) {
      std::string Why = P.Outs[I].Failure;
      if (P.Outs[I].Digest != Reference[I])
        Why += Why.empty() ? "outputs differ from the first pass"
                           : "; outputs differ from the first pass";
      ++Attempted;
      if (Why.empty())
        continue;
      ++Failed;
      std::fprintf(stderr, "FAILED %s %s (%s pass): %s\n", Spec.Name,
                   Spec.Programs[I].c_str(), Label, Why.c_str());
    }
  }

  uint64_t combined() const {
    Digest D;
    for (uint64_t X : Reference)
      D.u64(X);
    return D.value();
  }
};

double quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  double Pos = Q * static_cast<double>(V.size() - 1);
  size_t Lo = static_cast<size_t>(Pos);
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  return V[Lo] + (V[Hi] - V[Lo]) * (Pos - static_cast<double>(Lo));
}

double median(const std::vector<double> &V) { return quantile(V, 0.5); }

double fastest(const std::vector<double> &V) {
  return V.empty() ? 0.0 : *std::min_element(V.begin(), V.end());
}

/// The jobs=1 pass time reported as wall_s: the sum over programs of each
/// program's fastest time across the run's passes. On a shared host,
/// co-tenants slow a core for bursts of a second or so; the fastest sample
/// of each program is its least-disturbed one, and the sum stays steady
/// where the median pass time does not. \p Seconds is indexed
/// [program][pass].
double fastestPass(const std::vector<std::vector<double>> &Seconds) {
  double Sum = 0.0;
  for (const std::vector<double> &V : Seconds)
    Sum += fastest(V);
  return Sum;
}

double ratio(double A, double B) { return B != 0.0 ? A / B : 0.0; }

double peakRssMb() {
  struct rusage U;
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0; // ru_maxrss is KiB.
}

std::string num(double V) {
  if (!std::isfinite(V))
    V = 0.0;
  char Buf[40];
  std::snprintf(Buf, sizeof Buf, "%.17g", V);
  return Buf;
}

std::string hex(uint64_t V) {
  char Buf[20];
  std::snprintf(Buf, sizeof Buf, "%016llx", static_cast<unsigned long long>(V));
  return Buf;
}

/// A flat JSON object, keys in insertion order.
class JsonObject {
public:
  JsonObject &raw(const std::string &K, const std::string &V) {
    Body += (Body.empty() ? "" : ", ") + ("\"" + K + "\": ") + V;
    return *this;
  }
  JsonObject &str(const std::string &K, const std::string &V) {
    return raw(K, "\"" + V + "\"");
  }
  JsonObject &num(const std::string &K, double V) {
    return raw(K, ::num(V));
  }
  std::string text() const { return "{" + Body + "}"; }

private:
  std::string Body;
};

std::string summary(const std::vector<double> &V) {
  return JsonObject()
      .num("median", median(V))
      .num("q1", quantile(V, 0.25))
      .num("q3", quantile(V, 0.75))
      .num("n", static_cast<double>(V.size()))
      .text();
}

/// Prints the per-program telemetry rows and the workload row.
void printRows(const Args &A, const WorkloadSpec &Spec,
               const std::vector<ProgramOut> &First,
               const std::vector<std::vector<double>> &Seconds,
               const std::vector<std::vector<double>> &SecondsJ4,
               const Ledger &L, const JsonObject &Extra) {
  for (size_t I = 0; I < First.size(); ++I) {
    JsonObject Row;
    Row.str("row", "program")
        .str("workload", Spec.Name)
        .num("seed", static_cast<double>(A.Seed))
        .num("trace", A.Trace)
        .str("program", Spec.Programs[I])
        .str("digest", hex(First[I].Digest))
        .raw("seconds_j1", summary(Seconds[I]));
    if (I < SecondsJ4.size())
      Row.raw("seconds_j4", summary(SecondsJ4[I]));
    if (!First[I].Failure.empty())
      Row.str("failure", First[I].Failure);
    for (const auto &[K, V] : First[I].Row)
      Row.num(K, V);
    std::printf("%s\n", Row.text().c_str());
  }
  JsonObject W = Extra;
  W.str("row", "workload")
      .str("workload", Spec.Name)
      .num("seed", static_cast<double>(A.Seed))
      .num("trace", A.Trace)
      .str("digest", hex(L.combined()))
      .num("attempted", static_cast<double>(L.Attempted))
      .num("failed", static_cast<double>(L.Failed));
  std::printf("%s\n", W.text().c_str());
}

void printResult(const Ledger &L, const JsonObject &Metrics) {
  std::printf("%s\n", JsonObject()
                          .raw("correct", L.Failed == 0 ? "true" : "false")
                          .num("attempted", static_cast<double>(L.Attempted))
                          .num("failed", static_cast<double>(L.Failed))
                          .raw("metrics", Metrics.text())
                          .text()
                          .c_str());
}

/// {"value": V, "unit": U}
std::string metric(double V, const char *Unit) {
  return JsonObject().num("value", V).str("unit", Unit).text();
}

/// Adds each pass's per-program seconds to \p Seconds.
void addSeconds(std::vector<std::vector<double>> &Seconds, const Pass &P) {
  Seconds.resize(P.Outs.size());
  for (size_t I = 0; I < P.Outs.size(); ++I)
    Seconds[I].push_back(P.Outs[I].Seconds);
}

int runEndToEnd(const Args &A, const WorkloadSpec &Spec) {
  std::vector<double> Setup;
  std::vector<Program> Ps;
  Clock::time_point SetupStart = Clock::now();
  while (Setup.size() < MinSetupReps ||
         (secondsSince(SetupStart) < MinSetupSeconds &&
          Setup.size() < MaxSetupReps)) {
    Ps.clear();
    Clock::time_point T0 = Clock::now();
    Ps = setup(Spec, A.Seed);
    Setup.push_back(secondsSince(T0));
  }

  // All the measured time goes to jobs=1 passes, each starting only if it
  // fits; the more passes, the more samples per program for wall_s. The
  // jobs=4 pass (whose outputs must match) is part of the traced run.
  Ledger L;
  std::vector<Pass> Passes;
  Clock::time_point Start = Clock::now();
  do {
    Passes.push_back(runPass(Spec, Ps, 1));
    L.add(Spec, Passes.back(), "jobs=1");
  } while (secondsSince(Start) + Passes.back().Seconds <= A.Seconds);

  const std::vector<ProgramOut> &First = Passes.front().Outs;
  Values Acc = Spec.Accuracy(First);
  auto Accuracy = [&](const char *K) {
    auto It = Acc.find(K);
    return It == Acc.end() ? NotApplicable : It->second;
  };
  std::vector<std::vector<double>> Seconds;
  std::vector<double> Wall1;
  for (const Pass &P : Passes) {
    addSeconds(Seconds, P);
    Wall1.push_back(P.Seconds);
  }
  // Every workload's accuracy figures go in its row; the result object
  // carries those of cache_reconfig and marker_pipeline, on every workload.
  JsonObject Extra;
  Extra.raw("setup_s", summary(Setup)).raw("pass_s", summary(Wall1));
  for (const auto &[K, V] : Acc)
    Extra.num(K, V);
  printRows(A, Spec, First, Seconds, {}, L, Extra);

  JsonObject M;
  M.raw("setup_s", metric(fastest(Setup), "s"))
      .raw("wall_s", metric(fastestPass(Seconds), "s"))
      .raw("peak_rss_mb", metric(peakRssMb(), "MB"))
      .raw("avg_cache_kb", metric(Accuracy("avg_cache_kb"), "KB"))
      .raw("miss_rate_pct", metric(Accuracy("miss_rate_pct"), "%"))
      .raw("cov_cpi_pct", metric(Accuracy("cov_cpi_pct"), "%"));
  printResult(L, M);
  return 0;
}

int runTraced(const Args &A, const WorkloadSpec &Spec) {
  // One traced set-up, for the set-up layers (lowering, profiling).
  Tracer SetupTrace;
  setActiveTracer(&SetupTrace);
  std::vector<Program> Ps = setup(Spec, A.Seed);
  setActiveTracer(nullptr);

  // Untraced and traced jobs=1 passes alternate; their difference is the
  // tracing overhead. The traced passes also switch the library's spmtrace
  // layer on, for its registry counters.
  static const char *const CounterNames[] = {
      "vm.instrs_retired",  "vm.mem_accesses",      "markers.fired",
      "intervals.cut",      "select.pass1_candidates",
      "select.markers_accepted", "simpoint.restarts"};
  Ledger L;
  std::vector<double> Plain, Traced;
  std::vector<std::vector<double>> Seconds, SecondsTraced, SecondsJ4;
  std::vector<ProgramOut> First;
  Values Layers, Counts;
  double Coverage = 0.0;
  Clock::time_point Start = Clock::now();
  do {
    Pass U = runPass(Spec, Ps, 1);
    L.add(Spec, U, "jobs=1");
    Plain.push_back(U.Seconds);
    addSeconds(Seconds, U);
    if (First.empty())
      First = U.Outs;

    Tracer T;
    traceReset();
    metrics().resetAll();
    spmTraceSetEnabled(true);
    setActiveTracer(&T);
    Pass Tr = runPass(Spec, Ps, 1);
    setActiveTracer(nullptr);
    spmTraceSetEnabled(false);
    L.add(Spec, Tr, "traced");
    Traced.push_back(Tr.Seconds);
    addSeconds(SecondsTraced, Tr);
    for (const auto &[K, V] : T.totals())
      Layers[K] += V;
    Coverage += ratio(T.topLevelSeconds(), Tr.Seconds);
    Counts.clear();
    for (const char *C : CounterNames)
      Counts[C] = static_cast<double>(metrics().counterValue(C));
    for (const ProgramOut &O : Tr.Outs)
      for (const auto &[K, V] : O.Counts)
        Counts[K] += V;
  } while (secondsSince(Start) + Plain.back() + Traced.back() <= A.Seconds);
  traceReset();
  double NTraced = static_cast<double>(Traced.size());
  for (auto &[K, V] : Layers)
    V /= NTraced;
  Coverage /= NTraced;

  Pass P4 = runPass(Spec, Ps, ParallelJobs);
  L.add(Spec, P4, "jobs=4");
  addSeconds(SecondsJ4, P4);

  Values Arms;
  for (const Program &P : Ps)
    Spec.Arms(P, Arms);

  // Spans (traced pass), arms and counts share one namespace: a layer
  // whose time hides inside another driver on one workload (the oracle
  // policy's clustering, say) is completed by an arm there.
  Values V = Layers;
  for (const auto &[K, X] : Arms)
    V[K] += X;
  for (const auto &[K, X] : Counts)
    V[K] += X;
  for (const auto &[K, X] : SetupTrace.totals())
    V["setup." + K] += X;
  auto G = [&](const std::string &K) {
    auto It = V.find(K);
    return It == V.end() ? 0.0 : It->second;
  };

  JsonObject Extra;
  Extra.raw("pass_s", summary(Plain))
      .raw("traced_pass_s", summary(Traced))
      .num("wall_s_j4", P4.Seconds);
  for (const auto &[K, X] : V)
    Extra.num(K, X);
  printRows(A, Spec, First, Seconds, SecondsJ4, L, Extra);

  JsonObject M;
  auto Add = [&](const char *Name, double X, const char *Unit) {
    M.raw(Name, metric(X, Unit));
  };
  Add("ir.lower_s", G("setup.ir.lower"), "s");
  Add("vm.instrs", G("vm.instrs_retired"), "count");
  Add("vm.null_s", G("vm.null"), "s");
  Add("vm.minstr_per_s", ratio(G("vm.instrs_retired"), G("vm.null")) / 1e6,
      "Minstr/s");
  Add("vm.legacy_null_s", G("vm.legacy_null"), "s");
  Add("callloop.profile_s",
      G("setup.callloop.profile") + G("callloop.profile"), "s");
  Add("callloop.tracker_self_s", G("callloop.tracker_self"), "s");
  Add("callloop.edges", G("callloop.edges"), "count");
  Add("callloop.profile_io_s", G("callloop.profile_io"), "s");
  Add("markers.select_s", G("markers.select"), "s");
  Add("markers.candidates", G("select.pass1_candidates"), "count");
  Add("markers.selected", G("select.markers_accepted"), "count");
  Add("markers.accept_ratio",
      ratio(G("select.markers_accepted"), G("select.pass1_candidates")),
      "ratio");
  Add("markers.runtime_self_s", G("markers.runtime_self"), "s");
  Add("markers.fired", G("markers.fired"), "count");
  Add("markers.marker_intervals_s", G("markers.marker_intervals"), "s");
  Add("trace.fixed_intervals_s", G("trace.fixed_intervals"), "s");
  Add("trace.intervals_self_s", G("trace.intervals_self"), "s");
  Add("trace.intervals", G("intervals.cut"), "count");
  Add("uarch.perf_self_s", G("uarch.perf_self"), "s");
  Add("uarch.probe_s", G("uarch.probe"), "s");
  Add("uarch.mem_accesses", G("vm.mem_accesses"), "count");
  Add("phase.classify_s", G("phase.classify"), "s");
  Add("simpoint.project_s", G("simpoint.project"), "s");
  Add("simpoint.cluster_s", G("simpoint.run") - G("simpoint.project"), "s");
  Add("simpoint.points", G("simpoint.points"), "count");
  Add("simpoint.k_tried", G("simpoint.restarts"), "count");
  Add("simpoint.k_chosen", G("simpoint.k_chosen"), "count");
  Add("adaptcache.marker_policy_s", G("adaptcache.marker_policy"), "s");
  Add("adaptcache.oracle_policy_s", G("adaptcache.oracle_policy"), "s");
  Add("adaptcache.reuse_policy_s", G("adaptcache.reuse_policy"), "s");
  Add("adaptcache.engine_self_s", G("adaptcache.engine_self"), "s");
  Add("adaptcache.intervals", G("adaptcache.intervals"), "count");
  Add("adaptcache.explorations", G("adaptcache.explorations"), "count");
  Add("adaptcache.explore_ratio",
      ratio(G("adaptcache.explorations"), G("adaptcache.intervals")), "ratio");
  Add("reuse.profile_s", G("reuse.profile"), "s");
  Add("reuse.markers", G("reuse.markers"), "count");
  Add("parallel.speedup", ratio(fastestPass(Seconds), P4.Seconds), "x");
  Add("bench.span_coverage", Coverage, "ratio");
  Add("bench.trace_overhead_pct",
      (ratio(fastestPass(SecondsTraced), fastestPass(Seconds)) - 1.0) * 100.0,
      "%");
  Add("bench.attribution_gap_pct",
      std::abs(ratio(G("arms.composed"), G("arms.driver")) - 1.0) * 100.0,
      "%");
  printResult(L, M);
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  Args A;
  if (!parseArgs(Argc, Argv, A)) {
    std::fprintf(stderr,
                 "usage: spm_perfbench --workload <name> [--seed N] "
                 "[--seconds S] [--trace 0|1]\n");
    return 2;
  }
  const WorkloadSpec *Spec = findSpec(A.Workload);
  if (!Spec) {
    std::fprintf(stderr, "spm_perfbench: unknown workload %s\n",
                 A.Workload.c_str());
    return 2;
  }
  try {
    return A.Trace ? runTraced(A, *Spec) : runEndToEnd(A, *Spec);
  } catch (const std::exception &E) {
    std::fprintf(stderr, "spm_perfbench: %s\n", E.what());
    return 1;
  }
}
