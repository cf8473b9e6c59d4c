//===- tools/spm_tool.cpp - command-line driver ---------------------------==//
//
// The end-user workflow as a CLI, mirroring how the paper's tooling would
// ship: profile a program into a call-loop profile file, select markers
// from a stored profile (re-runnable with different knobs, no re-profiling),
// and report phase behavior of a run under a marker file.
//
//   spm_tool list
//   spm_tool profile <workload> [--input train|ref] [-o <file>]
//   spm_tool select  <profile-file> [--ilower N] [--limit N] [--procs-only]
//                    [-o <file>]
//   spm_tool report  <workload> <marker-file> [--input train|ref]
//   spm_tool bench   [<workload>...] [--jobs N] [--ilower N] [--limit N]
//   spm_tool dot     <workload> [--input train|ref]
//
// Files default to stdout; pass "-" to read a file argument from stdin.
// Every command accepts --jobs N (or the SPM_JOBS environment variable):
// independent profiling runs and workloads then fan out over N worker
// threads with byte-identical output to --jobs 1.
//
//===----------------------------------------------------------------------===//

#include "callloop/Profile.h"
#include "callloop/ProfileIO.h"
#include "cfg/Format.h"
#include "cfg/Import.h"
#include "ir/Lowering.h"
#include "markers/Pipeline.h"
#include "markers/Selector.h"
#include "markers/Serialize.h"
#include "phase/Metrics.h"
#include "phase/PhaseStats.h"
#include "support/ArgParse.h"
#include "support/AtomicFile.h"
#include "support/FailPoint.h"
#include "support/FlightRecorder.h"
#include "support/Metrics.h"
#include "support/Parallel.h"
#include "support/Table.h"
#include "support/Trace.h"
#include "workloads/Workloads.h"

#include <memory>

#include <algorithm>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <iterator>
#include <limits>
#include <sstream>
#include <string>

using namespace spm;

namespace {

int usage() {
  std::fprintf(
      stderr,
      "usage:\n"
      "  spm_tool list\n"
      "  spm_tool profile <workload> [--input train|ref] [-o <file>]\n"
      "  spm_tool select <profile-file> [--ilower N] [--limit N]\n"
      "                  [--procs-only] [-o <file>]\n"
      "  spm_tool report <workload> <marker-file> [--input train|ref]\n"
      "                  [--per-phase] [--per-phase-out <jsonl>]\n"
      "  spm_tool bench [<workload>...] [--jobs N] [--ilower N] [--limit N]\n"
      "  spm_tool bench --profile [<workload>...] [--reps N] [-o <json>]\n"
      "  spm_tool dot <workload> [--input train|ref]\n"
      "  spm_tool import <cfg-file> [--split-irreducible] [-o <file>]\n"
      "                  [--report [--param NAME=VALUE]... [--seed N]\n"
      "                  [--ilower N] [--limit N]]\n"
      "common: --jobs N parallelizes independent runs (0 = all cores;\n"
      "        SPM_JOBS is the environment fallback)\n"
      "        --trace-out FILE enables spmtrace and writes a Chrome\n"
      "        trace_event JSON timeline (chrome://tracing / Perfetto)\n"
      "        --metrics-out FILE enables spmtrace and writes the metrics\n"
      "        registry as JSONL ('-' = stderr as text)\n"
      "        --failpoints SPEC arms named fault-injection points, e.g.\n"
      "        tool.write=partial:3,cfg.import=throw (testing; see\n"
      "        docs/robustness.md)\n"
      "        report --per-phase prints the per-phase attribution table;\n"
      "        --per-phase-out FILE writes it as JSONL with a provenance\n"
      "        header line (docs/FORMATS.md)\n"
      "        when a command dies on an unhandled exception or injected\n"
      "        fault, a flight-recorder crash dump lands next to -o as\n"
      "        <out>.crash.json (docs/observability.md)\n"
      "bench --profile measures per-stage event throughput of the virtual\n"
      "run() path (legacy arm) vs runFast (engine arm); JSON lands in\n"
      "BENCH_engine.json unless -o overrides it\n");
  return 2;
}

bool readFile(const std::string &Path, std::string &Out) {
  if (Path == "-") {
    std::ostringstream SS;
    SS << std::cin.rdbuf();
    Out = SS.str();
    return true;
  }
  std::ifstream In(Path);
  if (!In)
    return false;
  std::ostringstream SS;
  SS << In.rdbuf();
  Out = SS.str();
  return true;
}

/// All file output lands atomically (support/AtomicFile.h): temp + fsync +
/// rename, so an interrupted or faulted run never leaves a torn artifact.
/// \p Seam names the fault-injection seam for this write class.
bool writeOutput(const std::string &Path, const std::string &Text,
                 const char *Seam = "tool.write") {
  if (Path.empty() || Path == "-") {
    std::fputs(Text.c_str(), stdout);
    return true;
  }
  std::string Err;
  if (!atomicWriteFile(Path, Text, &Err, Seam)) {
    std::fprintf(stderr, "%s\n", Err.c_str());
    return false;
  }
  return true;
}

/// Escapes a string for embedding in a JSON string literal. Error paths
/// splice exception text (arbitrary bytes) into report JSON; the report
/// must stay parseable whatever the message contains.
std::string jsonEscape(const std::string &S) {
  std::string Out;
  Out.reserve(S.size());
  for (char C : S) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\t':
      Out += "\\t";
      break;
    default:
      if (static_cast<unsigned char>(C) < 0x20) {
        char Buf[8];
        std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
        Out += Buf;
      } else {
        Out += C;
      }
    }
  }
  return Out;
}

struct CommonArgs;
std::string provenanceJson(const std::string &Cmd, const CommonArgs &A);

bool knownWorkload(const std::string &Name) {
  for (const std::string &N : WorkloadRegistry::allNames())
    if (N == Name)
      return true;
  return false;
}

struct CommonArgs {
  bool UseRef = true;
  std::string OutPath;
  std::vector<std::string> Positional;
  SelectorConfig Config;
  bool Profile = false;
  int Reps = 3;
  std::string TraceOut;
  std::string MetricsOut;
  std::string Failpoints;
  std::vector<std::pair<std::string, int64_t>> Params;
  uint64_t Seed = 1;
  bool SplitIrreducible = false;
  bool Report = false;
  bool PerPhase = false;
  std::string PerPhaseOut;
  bool Bad = false;
};

/// Matches `--flag VALUE` and `--flag=VALUE`; on a match \p Value is set
/// and true returned. \p I advances past a detached value.
bool valueOpt(const std::string &Arg, const char *Flag, int &I, int Argc,
              char **Argv, std::string &Value) {
  std::string F(Flag);
  if (Arg == F && I + 1 < Argc) {
    Value = Argv[++I];
    return true;
  }
  if (Arg.size() > F.size() + 1 && Arg.compare(0, F.size(), F) == 0 &&
      Arg[F.size()] == '=') {
    Value = Arg.substr(F.size() + 1);
    return true;
  }
  return false;
}

CommonArgs parseArgs(int Argc, char **Argv, int Start) {
  CommonArgs A;
  A.Config.ILower = 10000;
  std::string V;
  uint64_t N = 0;
  for (int I = Start; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (Arg == "--input" && I + 1 < Argc) {
      std::string In = Argv[++I];
      if (In != "train" && In != "ref") {
        std::fprintf(stderr, "arg[--input]: expected train|ref, got '%s'\n",
                     In.c_str());
        A.Bad = true;
      }
      A.UseRef = In == "ref";
    } else if (Arg == "-o" && I + 1 < Argc) {
      A.OutPath = Argv[++I];
    } else if (Arg == "--ilower" && I + 1 < Argc) {
      A.Bad |= !parseCount("--ilower", Argv[++I], A.Config.ILower);
    } else if (Arg == "--limit" && I + 1 < Argc) {
      A.Config.Limit = true;
      A.Bad |= !parseCount("--limit", Argv[++I], A.Config.MaxLimit);
    } else if (Arg == "--procs-only") {
      A.Config.ProceduresOnly = true;
    } else if (Arg == "--profile") {
      A.Profile = true;
    } else if (Arg == "--reps" && I + 1 < Argc) {
      if (parseCount("--reps", Argv[++I], N, INT_MAX))
        A.Reps = static_cast<int>(N);
      else
        A.Bad = true;
    } else if (valueOpt(Arg, "--trace-out", I, Argc, Argv, V)) {
      A.TraceOut = V;
    } else if (valueOpt(Arg, "--metrics-out", I, Argc, Argv, V)) {
      A.MetricsOut = V;
    } else if (valueOpt(Arg, "--failpoints", I, Argc, Argv, V)) {
      A.Failpoints = V;
    } else if (valueOpt(Arg, "--param", I, Argc, Argv, V)) {
      size_t Eq = V.find('=');
      if (Eq == std::string::npos || Eq == 0) {
        std::fprintf(stderr, "--param needs NAME=VALUE, got %s\n",
                     V.c_str());
        A.Bad = true;
      } else {
        A.Params.emplace_back(
            V.substr(0, Eq),
            static_cast<int64_t>(
                std::strtoll(V.c_str() + Eq + 1, nullptr, 10)));
      }
    } else if (valueOpt(Arg, "--seed", I, Argc, Argv, V)) {
      A.Bad |= !parseCount("--seed", V, A.Seed);
    } else if (Arg == "--split-irreducible") {
      A.SplitIrreducible = true;
    } else if (Arg == "--report") {
      A.Report = true;
    } else if (Arg == "--per-phase") {
      A.PerPhase = true;
    } else if (valueOpt(Arg, "--per-phase-out", I, Argc, Argv, V)) {
      A.PerPhaseOut = V;
    } else if (Arg == "--jobs" && I + 1 < Argc) {
      if (parseCount("--jobs", Argv[++I], N, INT_MAX))
        setParallelJobs(static_cast<int>(N));
      else
        A.Bad = true;
    } else if (!Arg.empty() && Arg[0] == '-' && Arg != "-") {
      std::fprintf(stderr, "unknown option %s\n", Arg.c_str());
      A.Bad = true;
    } else {
      A.Positional.push_back(Arg);
    }
  }
  return A;
}

/// The run-provenance header stamped on every export (trace timeline,
/// metrics JSONL, per-phase JSONL, crash dump): enough configuration to
/// re-run the command and to tell artifacts from differently-configured
/// runs apart. One JSON object, no trailing newline.
std::string provenanceJson(const std::string &Cmd, const CommonArgs &A) {
  std::string Out = "{\"format_version\": 2";
  Out += ", \"tool\": \"spm_tool\"";
  Out += ", \"command\": \"" + jsonEscape(Cmd) + "\"";
  Out += ", \"seed\": " + std::to_string(A.Seed);
  Out += ", \"jobs\": " + std::to_string(parallelJobs());
  Out += ", \"input\": \"" + std::string(A.UseRef ? "ref" : "train") + "\"";
  Out += std::string(", \"trace_compiled_in\": ") +
         (traceCompiledIn() ? "true" : "false");
  Out += std::string(", \"trace_enabled\": ") +
         (spmTraceEnabled() ? "true" : "false");
  // Failpoints are always compiled in; the key stays so every header
  // keeps its shape (docs/FORMATS.md).
  Out += ", \"failpoints_compiled_in\": true";
  Out += ", \"failpoints\": \"" + jsonEscape(A.Failpoints) + "\"";
  Out += "}";
  return Out;
}

int cmdList() {
  for (const std::string &N : WorkloadRegistry::allNames()) {
    Workload W = WorkloadRegistry::create(N);
    std::printf("%-12s (ref: %s)\n", N.c_str(), W.RefLabel.c_str());
  }
  return 0;
}

int cmdProfile(const CommonArgs &A) {
  if (A.Positional.empty() || !knownWorkload(A.Positional[0])) {
    std::fprintf(stderr, "profile: unknown workload\n");
    return 1;
  }
  Workload W = WorkloadRegistry::create(A.Positional[0]);
  auto Bin = lower(*W.Program, LoweringOptions::O2());
  LoopIndex Loops = LoopIndex::build(*Bin);
  auto G = buildCallLoopGraph(*Bin, Loops, A.UseRef ? W.Ref : W.Train);
  if (!writeOutput(A.OutPath, serializeProfile(*G, *Bin, Loops))) {
    std::fprintf(stderr, "profile: cannot write %s\n", A.OutPath.c_str());
    return 1;
  }
  return 0;
}

int cmdSelect(const CommonArgs &A) {
  if (A.Positional.empty()) {
    std::fprintf(stderr, "select: missing profile file\n");
    return 1;
  }
  std::string Text;
  if (!readFile(A.Positional[0], Text)) {
    std::fprintf(stderr, "select: cannot read %s\n",
                 A.Positional[0].c_str());
    return 1;
  }
  std::string Err;
  auto Profile = parseProfile(Text, &Err);
  if (!Profile) {
    std::fprintf(stderr, "select: %s\n", Err.c_str());
    return 1;
  }
  SelectionResult Sel = selectMarkers(*Profile->Graph, A.Config);
  std::fprintf(stderr,
               "selected %zu markers from %zu candidates "
               "(avg CoV %.2f%% +/- %.2f%%)\n",
               Sel.Markers.size(), Sel.NumCandidates,
               Sel.AvgCandidateCov * 100.0, Sel.StddevCandidateCov * 100.0);
  std::string Out = serializeMarkers(
      toPortable(Sel.Markers, *Profile->Graph, Profile->FuncNames));
  if (!writeOutput(A.OutPath, Out)) {
    std::fprintf(stderr, "select: cannot write %s\n", A.OutPath.c_str());
    return 1;
  }
  return 0;
}

int cmdReport(const CommonArgs &A) {
  if (A.Positional.size() < 2 || !knownWorkload(A.Positional[0])) {
    std::fprintf(stderr, "report: need <workload> <marker-file>\n");
    return 1;
  }
  std::string Text;
  if (!readFile(A.Positional[1], Text)) {
    std::fprintf(stderr, "report: cannot read %s\n",
                 A.Positional[1].c_str());
    return 1;
  }
  std::string Err;
  auto Portable = parseMarkers(Text, &Err);
  if (!Portable) {
    std::fprintf(stderr, "report: %s\n", Err.c_str());
    return 1;
  }

  Workload W = WorkloadRegistry::create(A.Positional[0]);
  auto Bin = lower(*W.Program, LoweringOptions::O2());
  LoopIndex Loops = LoopIndex::build(*Bin);
  auto G = std::make_unique<CallLoopGraph>(*Bin, Loops);
  MarkerSet M = fromPortable(*Portable, *G, *Bin, Loops);
  if (M.size() != Portable->size())
    std::fprintf(stderr,
                 "report: %zu of %zu markers did not anchor in this "
                 "binary\n",
                 Portable->size() - M.size(), Portable->size());

  MarkerRun Run = runMarkerIntervals(*Bin, Loops, *G, M,
                                     A.UseRef ? W.Ref : W.Train,
                                     /*CollectBbv=*/false);
  ClassificationSummary S = summarizeClassification(
      Run.Intervals, phasesFromRecords(Run.Intervals), cpiMetric);
  double Whole = wholeProgramCov(Run.Intervals, cpiMetric);

  Table T;
  T.row().cell("metric").cell("value");
  T.row().cell("instructions").cell(Run.Run.TotalInstrs);
  T.row().cell("intervals").cell(static_cast<uint64_t>(S.NumIntervals));
  T.row().cell("phases").cell(static_cast<uint64_t>(S.NumPhases));
  T.row().cell("avg interval").cell(S.AvgIntervalLen, 0);
  T.row().cell("per-phase CoV CPI").percentCell(S.OverallCov);
  T.row().cell("whole-run CoV CPI").percentCell(Whole);
  std::printf("%s", T.str().c_str());

  if (A.PerPhase || !A.PerPhaseOut.empty()) {
    PhaseStats PS = PhaseStats::fromIntervals(Run.Intervals);
    if (A.PerPhase)
      std::printf("\n%s", PS.toText().c_str());
    if (!A.PerPhaseOut.empty()) {
      std::string Jsonl = "{\"name\": \"spm.provenance\", \"type\": "
                          "\"meta\", \"provenance\": " +
                          provenanceJson("report", A) + "}\n" + PS.toJsonl();
      if (!writeOutput(A.PerPhaseOut, Jsonl)) {
        std::fprintf(stderr, "report: cannot write %s\n",
                     A.PerPhaseOut.c_str());
        return 1;
      }
      std::fprintf(stderr, "wrote %s\n", A.PerPhaseOut.c_str());
    }
  }
  return 0;
}

/// `spm_tool bench`: the full profile -> select -> evaluate pipeline on
/// several workloads at once. Workloads (and within each workload the
/// train/ref profiling runs) are independent, so they spread across the
/// --jobs worker pool; the table is printed in argument order and is
/// byte-identical at every job count.
int cmdBenchProfile(const CommonArgs &A);

int cmdBench(const CommonArgs &A) {
  if (A.Profile)
    return cmdBenchProfile(A);
  std::vector<std::string> Names =
      A.Positional.empty() ? WorkloadRegistry::allNames() : A.Positional;
  for (const std::string &N : Names)
    if (!knownWorkload(N)) {
      std::fprintf(stderr, "bench: unknown workload %s\n", N.c_str());
      return 1;
    }

  struct BenchRow {
    std::string Name;
    uint64_t Instrs = 0;
    size_t Markers = 0, Intervals = 0, Phases = 0;
    double Cov = 0.0, Whole = 0.0;
  };
  std::vector<BenchRow> Rows = parallelMap(Names.size(), [&](size_t I) {
    BenchRow Row;
    Workload W = WorkloadRegistry::create(Names[I]);
    auto Bin = lower(*W.Program, LoweringOptions::O2());
    LoopIndex Loops = LoopIndex::build(*Bin);
    auto Graphs = buildCallLoopGraphs(*Bin, Loops, {&W.Train, &W.Ref});
    SelectionResult Sel = selectMarkers(*Graphs[0], A.Config);
    MarkerRun Run = runMarkerIntervals(*Bin, Loops, *Graphs[0], Sel.Markers,
                                       W.Ref, /*CollectBbv=*/false);
    ClassificationSummary S = summarizeClassification(
        Run.Intervals, phasesFromRecords(Run.Intervals), cpiMetric);
    Row.Name = W.displayName();
    Row.Instrs = Run.Run.TotalInstrs;
    Row.Markers = Sel.Markers.size();
    Row.Intervals = S.NumIntervals;
    Row.Phases = S.NumPhases;
    Row.Cov = S.OverallCov;
    Row.Whole = wholeProgramCov(Run.Intervals, cpiMetric);
    return Row;
  });

  Table T;
  T.row()
      .cell("workload")
      .cell("ref instrs")
      .cell("mkrs")
      .cell("intervals")
      .cell("phases")
      .cell("CoV CPI")
      .cell("whole-run");
  for (const BenchRow &Row : Rows)
    T.row()
        .cell(Row.Name)
        .cell(Row.Instrs)
        .cell(static_cast<uint64_t>(Row.Markers))
        .cell(static_cast<uint64_t>(Row.Intervals))
        .cell(static_cast<uint64_t>(Row.Phases))
        .percentCell(Row.Cov)
        .percentCell(Row.Whole);
  std::printf("%s", T.str().c_str());
  return 0;
}

/// Sink with no handlers: the devirtualized engine at its emptiest —
/// measures raw interpreter cost.
struct NullSink {};

/// Counts every event in the stream (the events/sec denominator).
struct EventCounter : ExecutionObserver {
  uint64_t Events = 0;
  void onBlock(const LoweredBlock &) override { ++Events; }
  void onMemAccess(uint64_t, bool) override { ++Events; }
  void onBranch(uint64_t, uint64_t, bool, bool, bool) override { ++Events; }
  void onCall(uint64_t, uint32_t) override { ++Events; }
  void onReturn(uint32_t) override { ++Events; }
};

/// `spm_tool bench --profile`: per-stage event throughput of the virtual
/// run() path (legacy arm) vs the devirtualized runFast engine, on identical
/// streams. Times are best-of---reps, summed over workloads; events/sec
/// divides the total event count (blocks + memory accesses + branches +
/// calls + returns) by stage time. JSON goes to BENCH_engine.json (or -o).
int cmdBenchProfile(const CommonArgs &A) {
  std::vector<std::string> Names =
      A.Positional.empty() ? WorkloadRegistry::allNames() : A.Positional;
  for (const std::string &N : Names)
    if (!knownWorkload(N)) {
      std::fprintf(stderr, "bench: unknown workload %s\n", N.c_str());
      return 1;
    }

  constexpr uint64_t Cap = 8ull * 1000 * 1000; // Instructions per timed run.
  const int Reps = A.Reps > 0 ? A.Reps : 3;
  constexpr int NumStages = 5;
  const char *StageNames[NumStages] = {"interp", "interp+tracker",
                                       "tracker+markers+intervals", "bbv",
                                       "cache"};
  uint64_t TotalEvents = 0;

  // Every rep of a stage runs under an RAII ScopedMetricTimer booking into
  // the registry histogram "bench.<workload>.<stage>.<arm>_s". Recording
  // happens in the timer's destructor, so a rep that throws is still
  // counted exactly once (no double-count on unwind) and the table/JSON
  // below — which read only the registry — stay valid for partial runs.
  auto stageHist = [](const std::string &Wl, const char *Stage,
                      const char *Arm) {
    return "bench." + Wl + "." + Stage + "." + Arm + "_s";
  };
  auto timeReps = [&](const std::string &Hist, auto &&Fn) {
    for (int R = 0; R < Reps; ++R) {
      ScopedMetricTimer T(Hist.c_str());
      Fn();
    }
  };
  // Best-of-reps seconds for one workload/stage/arm, straight from the
  // registry; NaN when that cell never ran.
  auto bestOf = [&](const std::string &Wl, const char *Stage,
                    const char *Arm) {
    RunningStat S = metrics().histogram(stageHist(Wl, Stage, Arm)).snapshot();
    return S.count() > 0 ? S.min()
                         : std::numeric_limits<double>::quiet_NaN();
  };
  // Sum of per-workload bests across all workloads that ran the cell.
  auto stageSeconds = [&](const char *Stage, const char *Arm) {
    double Sum = 0.0;
    bool Any = false;
    for (const std::string &Wl : Names) {
      double B = bestOf(Wl, Stage, Arm);
      if (B == B) {
        Sum += B;
        Any = true;
      }
    }
    return Any ? Sum : std::numeric_limits<double>::quiet_NaN();
  };

  std::string StageError;
  for (const std::string &Name : Names) {
    try {
      Workload W = WorkloadRegistry::create(Name);
      auto Bin = lower(*W.Program, LoweringOptions::O2());
      LoopIndex Loops = LoopIndex::build(*Bin);
      const WorkloadInput &In = A.UseRef ? W.Ref : W.Train;

      // Count the stream once (doubles as warm-up).
      EventCounter EC;
      {
        Interpreter I(*Bin, In);
        I.run(EC, Cap);
      }
      TotalEvents += EC.Events;

      // Markers for the full-pipeline stage.
      auto G = buildCallLoopGraph(*Bin, Loops, In, Cap);
      SelectionResult Sel = selectMarkers(*G, A.Config);

      timeReps(stageHist(Name, "interp", "legacy"), [&] {
        ExecutionObserver Nop;
        Interpreter I(*Bin, In);
        I.run(Nop, Cap);
      });
      timeReps(stageHist(Name, "interp", "engine"), [&] {
        NullSink S;
        Interpreter I(*Bin, In);
        I.runFast(S, Cap);
      });

      timeReps(stageHist(Name, "interp+tracker", "legacy"), [&] {
        CallLoopGraph PG(*Bin, Loops);
        CallLoopTracker T(*Bin, Loops, PG);
        GraphProfiler P(PG);
        T.addListener(&P);
        ObserverMux Mux;
        Mux.add(&T);
        Interpreter I(*Bin, In);
        I.run(Mux, Cap);
      });
      timeReps(stageHist(Name, "interp+tracker", "engine"), [&] {
        CallLoopGraph PG(*Bin, Loops);
        CallLoopTracker T(*Bin, Loops, PG);
        T.setProfileTarget(&PG);
        Interpreter I(*Bin, In);
        I.runFast(T, Cap);
      });

      timeReps(stageHist(Name, "tracker+markers+intervals", "legacy"), [&] {
        PerfModel Perf;
        IntervalBuilder Ivb =
            IntervalBuilder::markerDriven(&Perf, /*CollectBbv=*/false);
        CallLoopTracker T(*Bin, Loops, *G);
        MarkerRuntime RT(Sel.Markers, *G);
        T.addListener(&RT);
        RT.setCallback([&](int32_t Idx) { Ivb.requestCut(Idx); });
        ObserverMux Mux;
        Mux.add(&T);
        Mux.add(&Ivb);
        Mux.add(&Perf);
        Interpreter I(*Bin, In);
        I.run(Mux, Cap);
      });
      timeReps(stageHist(Name, "tracker+markers+intervals", "engine"), [&] {
        PerfModel Perf;
        IntervalBuilder Ivb =
            IntervalBuilder::markerDriven(&Perf, /*CollectBbv=*/false);
        CallLoopTracker T(*Bin, Loops, *G);
        MarkerRuntime RT(Sel.Markers, *G);
        T.addListener(&RT);
        RT.setCallback([&](int32_t Idx) { Ivb.requestCut(Idx); });
        StaticMux<CallLoopTracker, IntervalBuilder, PerfModel> Mux(T, Ivb,
                                                                   Perf);
        Interpreter I(*Bin, In);
        I.runFast(Mux, Cap);
      });

      timeReps(stageHist(Name, "bbv", "legacy"), [&] {
        PerfModel Perf;
        IntervalBuilder Ivb =
            IntervalBuilder::fixedLength(100000, &Perf, /*CollectBbv=*/true);
        ObserverMux Mux;
        Mux.add(&Ivb);
        Mux.add(&Perf);
        Interpreter I(*Bin, In);
        I.run(Mux, Cap);
      });
      timeReps(stageHist(Name, "bbv", "engine"), [&] {
        PerfModel Perf;
        IntervalBuilder Ivb =
            IntervalBuilder::fixedLength(100000, &Perf, /*CollectBbv=*/true);
        StaticMux<IntervalBuilder, PerfModel> Mux(Ivb, Perf);
        Interpreter I(*Bin, In);
        I.runFast(Mux, Cap);
      });

      timeReps(stageHist(Name, "cache", "legacy"), [&] {
        PerfModel Perf;
        Interpreter I(*Bin, In);
        I.run(Perf, Cap);
      });
      timeReps(stageHist(Name, "cache", "engine"), [&] {
        PerfModel Perf;
        Interpreter I(*Bin, In);
        I.runFast(Perf, Cap);
      });

    } catch (const std::exception &E) {
      // Partial data for this workload is already in the registry; finish
      // the report with what exists instead of dying with nothing.
      StageError = Name + ": " + E.what();
      std::fprintf(stderr, "bench: stage failed on %s: %s\n", Name.c_str(),
                   E.what());
      break;
    }
  }

  Table T;
  T.row()
      .cell("stage")
      .cell("legacy Mev/s")
      .cell("engine Mev/s")
      .cell("eng/leg");
  char Buf[384];
  std::string Json = "{\n  \"bench\": \"engine-profile\",\n";
  std::snprintf(Buf, sizeof(Buf),
                "  \"cap_instrs\": %llu,\n  \"reps\": %d,\n"
                "  \"trace_compiled_in\": %s,\n  \"trace_enabled\": %s,\n",
                static_cast<unsigned long long>(Cap), Reps,
                traceCompiledIn() ? "true" : "false",
                spmTraceEnabled() ? "true" : "false");
  Json += Buf;
  if (!StageError.empty())
    Json += "  \"aborted_at\": \"" + jsonEscape(StageError) + "\",\n";
  Json += "  \"workloads\": [";
  for (size_t I = 0; I < Names.size(); ++I)
    Json += (I ? ", \"" : "\"") + Names[I] + "\"";
  std::snprintf(Buf, sizeof(Buf), "],\n  \"events\": %llu,\n  \"stages\": [\n",
                static_cast<unsigned long long>(TotalEvents));
  Json += Buf;
  bool FirstStage = true;
  for (int S = 0; S < NumStages; ++S) {
    double LegacySec = stageSeconds(StageNames[S], "legacy");
    double EngineSec = stageSeconds(StageNames[S], "engine");
    // A stage the run never reached (exception upstream) has no registry
    // samples — leave it out rather than emit NaNs.
    if (!(LegacySec > 0.0) || !(EngineSec > 0.0))
      continue;
    double LegacyEps = TotalEvents / LegacySec;
    double EngineEps = TotalEvents / EngineSec;
    double Speedup = LegacySec / EngineSec;
    std::snprintf(Buf, sizeof(Buf), "%.2fx", Speedup);
    T.row()
        .cell(StageNames[S])
        .cell(LegacyEps / 1e6, 1)
        .cell(EngineEps / 1e6, 1)
        .cell(std::string(Buf));
    std::snprintf(Buf, sizeof(Buf),
                  "%s    {\"stage\": \"%s\", \"legacy_s\": %.6f, "
                  "\"engine_s\": %.6f, \"legacy_eps\": %.0f, "
                  "\"engine_eps\": %.0f, \"speedup\": %.3f}",
                  FirstStage ? "" : ",\n", StageNames[S], LegacySec,
                  EngineSec, LegacyEps, EngineEps, Speedup);
    Json += Buf;
    FirstStage = false;
  }
  Json += "\n  ]\n}\n";

  std::printf("%s", T.str().c_str());
  std::string OutPath =
      A.OutPath.empty() ? std::string("BENCH_engine.json") : A.OutPath;
  if (!writeOutput(OutPath, Json, "bench.write")) {
    std::fprintf(stderr, "bench: cannot write %s\n", OutPath.c_str());
    return 1;
  }
  std::fprintf(stderr, "wrote %s\n", OutPath.c_str());
  return StageError.empty() ? 0 : 1;
}

int cmdDot(const CommonArgs &A) {
  if (A.Positional.empty() || !knownWorkload(A.Positional[0])) {
    std::fprintf(stderr, "dot: unknown workload\n");
    return 1;
  }
  Workload W = WorkloadRegistry::create(A.Positional[0]);
  auto Bin = lower(*W.Program, LoweringOptions::O2());
  LoopIndex Loops = LoopIndex::build(*Bin);
  auto G = buildCallLoopGraph(*Bin, Loops, A.UseRef ? W.Ref : W.Train);
  return writeOutput(A.OutPath, printGraphDot(*G)) ? 0 : 1;
}

/// `spm_tool import`: load a raw edge-list CFG (spm-cfg v1), recover its
/// structure (dominators, natural loops, reducibility), and print the loop
/// forest. With --report the recovered program additionally runs through the
/// whole marker pipeline — profile, select, intervals — proving the import is
/// executable, not just parseable. Trip counts may reference input parameters;
/// --param supplies them and missing ones are reported up front by name.
int cmdImport(const CommonArgs &A) {
  if (A.Positional.empty()) {
    std::fprintf(stderr, "import: missing CFG file\n");
    return 1;
  }
  std::string Text;
  if (!readFile(A.Positional[0], Text)) {
    std::fprintf(stderr, "import: cannot read %s\n",
                 A.Positional[0].c_str());
    return 1;
  }
  std::string Err;
  auto P = cfg::parseCfg(Text, &Err);
  if (!P) {
    std::fprintf(stderr, "import: %s\n", Err.c_str());
    return 1;
  }
  cfg::ImportOptions Opts;
  Opts.SplitIrreducible = A.SplitIrreducible;
  auto IP = cfg::importCfg(*P, Opts, &Err);
  if (!IP) {
    std::fprintf(stderr, "import: %s\n", Err.c_str());
    return 1;
  }

  size_t NumBlocks = 0;
  for (const cfg::CfgFunctionDef &F : P->Funcs)
    NumBlocks += F.Blocks.size();
  std::string Out;
  char Buf[256];
  std::snprintf(Buf, sizeof(Buf),
                "program %s: %zu function(s), %zu block(s), %zu loop(s)\n",
                P->Name.c_str(), P->Funcs.size(), NumBlocks,
                IP->Loops.size());
  Out += Buf;
  if (IP->SplitBlocks > 0) {
    std::snprintf(Buf, sizeof(Buf),
                  "irreducible region legalized: %u block clone(s)\n",
                  IP->SplitBlocks);
    Out += Buf;
  }
  Out += cfg::printLoopForest(*IP);

  if (A.Report) {
    WorkloadInput In(P->Name, A.Seed);
    for (const auto &KV : A.Params)
      In.set(KV.first, KV.second);
    std::string Missing;
    for (const std::string &Need : cfg::referencedParams(*IP->Program))
      if (!In.has(Need))
        Missing += (Missing.empty() ? "" : ", ") + Need;
    if (!Missing.empty()) {
      std::fprintf(stderr,
                   "import: program reads parameter(s) %s; pass "
                   "--param NAME=VALUE for each\n",
                   Missing.c_str());
      return 1;
    }
    auto Bin = lower(*IP->Program, LoweringOptions::O2());
    LoopIndex Loops = LoopIndex::build(*Bin);
    auto G = buildCallLoopGraph(*Bin, Loops, In);
    SelectionResult Sel = selectMarkers(*G, A.Config);
    MarkerRun Run = runMarkerIntervals(*Bin, Loops, *G, Sel.Markers, In,
                                       /*CollectBbv=*/false);
    ClassificationSummary S = summarizeClassification(
        Run.Intervals, phasesFromRecords(Run.Intervals), cpiMetric);
    Table T;
    T.row().cell("metric").cell("value");
    T.row().cell("markers").cell(static_cast<uint64_t>(Sel.Markers.size()));
    T.row().cell("instructions").cell(Run.Run.TotalInstrs);
    T.row().cell("intervals").cell(static_cast<uint64_t>(S.NumIntervals));
    T.row().cell("phases").cell(static_cast<uint64_t>(S.NumPhases));
    T.row().cell("avg interval").cell(S.AvgIntervalLen, 0);
    T.row().cell("per-phase CoV CPI").percentCell(S.OverallCov);
    Out += T.str();
  }

  if (!writeOutput(A.OutPath, Out)) {
    std::fprintf(stderr, "import: cannot write %s\n", A.OutPath.c_str());
    return 1;
  }
  return 0;
}

/// Writes the spmtrace artifacts requested by --trace-out/--metrics-out.
/// Runs after the command finishes (success or failure) so a failing run
/// still leaves its partial timeline and counters behind. Both exports
/// carry the run-provenance header \p Prov.
int dumpObservability(const CommonArgs &A, const std::string &Prov) {
  traceSyncDropMetrics();
  int Rc = 0;
  if (!A.TraceOut.empty()) {
    if (writeOutput(A.TraceOut, traceToChromeJson(Prov), "trace.write")) {
      std::fprintf(stderr,
                   "wrote %s (%zu span events, %zu phase events, "
                   "%llu dropped)\n",
                   A.TraceOut.c_str(), traceEventCount(),
                   tracePhaseEventCount(),
                   static_cast<unsigned long long>(traceDroppedCount() +
                                                   tracePhaseDroppedCount()));
    } else {
      std::fprintf(stderr, "cannot write %s\n", A.TraceOut.c_str());
      Rc = 1;
    }
  }
  if (!A.MetricsOut.empty()) {
    if (A.MetricsOut == "-") {
      std::fputs(metrics().toText().c_str(), stderr);
    } else if (writeOutput(A.MetricsOut,
                           "{\"name\": \"spm.provenance\", \"type\": "
                           "\"meta\", \"provenance\": " +
                               Prov + "}\n" + metrics().toJsonl(),
                           "metrics.write")) {
      std::fprintf(stderr, "wrote %s\n", A.MetricsOut.c_str());
    } else {
      std::fprintf(stderr, "cannot write %s\n", A.MetricsOut.c_str());
      Rc = 1;
    }
  }
  return Rc;
}

/// Writes the crash-time flight-recorder dump after an exception unwound
/// out of a command: <out>.crash.json next to -o (or ./spm_tool.crash.json
/// when output went to stdout). Reuses the `tool.write` seam; failures are
/// reported but never escalate — the dump must not mask the original
/// failure's exit path.
void writeCrashDump(const CommonArgs &A, const std::string &ErrorText,
                    const std::string &Prov) {
  std::string Base = (A.OutPath.empty() || A.OutPath == "-")
                         ? std::string("spm_tool")
                         : A.OutPath;
  std::string Path = Base + ".crash.json";
  std::string Err;
  if (atomicWriteFile(Path, buildCrashDumpJson("spm_tool", ErrorText, Prov),
                      &Err, "tool.write"))
    std::fprintf(stderr, "wrote crash dump %s\n", Path.c_str());
  else
    std::fprintf(stderr, "cannot write crash dump %s: %s\n", Path.c_str(),
                 Err.c_str());
}

int dispatch(const std::string &Cmd, const CommonArgs &A) {
  if (Cmd == "list")
    return cmdList();
  if (Cmd == "profile")
    return cmdProfile(A);
  if (Cmd == "select")
    return cmdSelect(A);
  if (Cmd == "report")
    return cmdReport(A);
  if (Cmd == "bench")
    return cmdBench(A);
  if (Cmd == "dot")
    return cmdDot(A);
  if (Cmd == "import")
    return cmdImport(A);
  std::fprintf(stderr, "unknown command %s\n", Cmd.c_str());
  return usage();
}

} // namespace

int main(int Argc, char **Argv) {
  if (Argc < 2)
    return usage();
  std::string Cmd = Argv[1];
  CommonArgs A = parseArgs(Argc, Argv, 2);
  if (A.Bad)
    return usage();
  if (!A.TraceOut.empty() || !A.MetricsOut.empty())
    spmTraceSetEnabled(true);
  if (!A.Failpoints.empty()) {
    // An unknown seam or a malformed mode fails here rather than running
    // fault-free under a test that expects faults.
    std::string Err;
    if (!failpointsConfigure(A.Failpoints, &Err)) {
      std::fprintf(stderr, "--failpoints: %s\n", Err.c_str());
      return 2;
    }
  }
  std::string Prov = provenanceJson(Cmd, A);
  flightRecord("tool.cmd", Cmd);
  int Rc;
  std::string CrashErr;
  {
    // Force-recorded so a metrics dump is never empty, even in builds
    // with SPM_TRACE compiled out.
    ScopedMetricTimer T("pipeline.cmd_wall_s");
    try {
      Rc = dispatch(Cmd, A);
    } catch (const FailPointInjected &E) {
      // An injected fault that no recovery path absorbed kills the command
      // like the crash it simulates — but cleanly enough that the
      // observability dump below still runs.
      std::fprintf(stderr, "%s\n", E.what());
      Rc = 1;
      CrashErr = E.what();
    } catch (const std::exception &E) {
      std::fprintf(stderr, "spm_tool: unhandled exception: %s\n", E.what());
      Rc = 1;
      CrashErr = E.what();
    }
  }
  if (!CrashErr.empty())
    writeCrashDump(A, CrashErr, Prov);
  int ObsRc = dumpObservability(A, Prov);
  return Rc ? Rc : ObsRc;
}
