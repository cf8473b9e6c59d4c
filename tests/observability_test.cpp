//===- tests/observability_test.cpp - spmtrace layer tests ----------------==//
//
// Proves the observability layer's three contracts (docs/observability.md):
//
//   1. Instrumentation never changes behavior: pipeline outputs (intervals,
//      firing traces, run totals) are byte-identical with tracing disabled,
//      enabled, or compiled out entirely.
//   2. The Chrome trace export is well-formed JSON whose begin/end events
//      balance per thread, including spans recorded on pool workers.
//   3. Metric counters are exact, not sampled: instructions retired,
//      markers fired, and intervals cut match the pipeline's own results
//      to the unit.
//
// Every test runs in both build configurations; compiled-out builds
// (-DSPM_TRACE=OFF) additionally assert that enabling the runtime switch
// records nothing at all.
//
//===----------------------------------------------------------------------==//

#include "callloop/Profile.h"
#include "ir/Lowering.h"
#include "markers/Checkpoint.h"
#include "markers/Pipeline.h"
#include "markers/Selector.h"
#include "support/FailPoint.h"
#include "support/Metrics.h"
#include "support/Parallel.h"
#include "support/ThreadPool.h"
#include "support/Trace.h"
#include "workloads/Workloads.h"

#include "CkptTestUtil.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <latch>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

using namespace spm;

namespace {

/// Mid-run cap, same spirit as the engine/segment tests: spans and counters
/// must be exact even when the run stops inside live loop nests.
constexpr uint64_t Cap = 1'000'000;

/// Sets the ambient job count for one scope (same helper as parallel_test):
/// the pooled tests need real pool workers even on a 1-CPU host, so the
/// per-thread span buffers and B/E balance get exercised across threads.
class ScopedJobs {
public:
  explicit ScopedJobs(int Jobs) : Saved(parallelJobs()) {
    setParallelJobs(Jobs);
  }
  ~ScopedJobs() { setParallelJobs(static_cast<int>(Saved)); }

private:
  unsigned Saved;
};

/// Every test body runs between a clean slate and a restore-to-disabled, so
/// the suite's tests compose in any order and leave nothing behind.
struct ObsGuard {
  ObsGuard() {
    spmTraceSetEnabled(false);
    traceReset();
    metrics().resetAll();
  }
  ~ObsGuard() {
    spmTraceSetEnabled(false);
    traceReset();
    metrics().resetAll();
  }
};

/// One lowered workload with selected markers — the full pipeline input.
struct PipelineCase {
  Workload W;
  std::unique_ptr<Binary> B;
  LoopIndex Loops;
  std::unique_ptr<CallLoopGraph> G;
  MarkerSet Markers;
};

PipelineCase makeCase() {
  PipelineCase C{WorkloadRegistry::create("gzip"), nullptr, {}, nullptr, {}};
  C.B = lower(*C.W.Program, LoweringOptions::O2());
  C.Loops = LoopIndex::build(*C.B);
  C.G = buildCallLoopGraph(*C.B, C.Loops, C.W.Ref, Cap);
  SelectorConfig SC;
  C.Markers = selectMarkers(*C.G, SC).Markers;
  return C;
}

/// Serializes a marker run to a canonical string so differential tests can
/// compare whole runs byte for byte.
std::string dumpRun(const MarkerRun &R) {
  std::string Out;
  char Buf[256];
  std::snprintf(Buf, sizeof(Buf), "run %llu %llu %llu %d\n",
                (unsigned long long)R.Run.TotalInstrs,
                (unsigned long long)R.Run.TotalBlocks,
                (unsigned long long)R.Run.TotalMemAccesses,
                R.Run.HitInstrLimit ? 1 : 0);
  Out += Buf;
  for (int32_t F : R.Firings)
    Out += "f " + std::to_string(F) + "\n";
  for (const IntervalRecord &Iv : R.Intervals) {
    std::snprintf(Buf, sizeof(Buf), "iv %llu %llu %d %llu %llu %llu %llu\n",
                  (unsigned long long)Iv.StartInstr,
                  (unsigned long long)Iv.NumInstrs, Iv.PhaseId,
                  (unsigned long long)Iv.Perf.BaseCycles,
                  (unsigned long long)Iv.Perf.L1Misses,
                  (unsigned long long)Iv.Perf.Branches,
                  (unsigned long long)Iv.Perf.Mispredicts);
    Out += Buf;
    for (const auto &[Id, Wt] : Iv.Vector) {
      std::snprintf(Buf, sizeof(Buf), "b %u %.17g\n", Id, Wt);
      Out += Buf;
    }
  }
  return Out;
}

//===----------------------------------------------------------------------===//
// Minimal JSON well-formedness checker
//===----------------------------------------------------------------------===//
//
// Recursive-descent over the JSON grammar — enough to prove the exporter
// emits parseable documents without pulling in a JSON dependency.

struct JsonParser {
  const char *P, *End;
  bool Ok = true;

  explicit JsonParser(const std::string &S)
      : P(S.data()), End(S.data() + S.size()) {}

  void ws() {
    while (P < End && (*P == ' ' || *P == '\t' || *P == '\n' || *P == '\r'))
      ++P;
  }
  bool eat(char C) {
    ws();
    if (P < End && *P == C) {
      ++P;
      return true;
    }
    return Ok = false;
  }
  bool peek(char C) {
    ws();
    return P < End && *P == C;
  }

  void string() {
    if (!eat('"'))
      return;
    while (P < End && *P != '"') {
      if (*P == '\\') {
        ++P;
        if (P >= End) {
          Ok = false;
          return;
        }
      }
      ++P;
    }
    if (!eat('"'))
      return;
  }

  void number() {
    ws();
    if (P < End && (*P == '-' || *P == '+'))
      ++P;
    bool Any = false;
    while (P < End && ((*P >= '0' && *P <= '9') || *P == '.' || *P == 'e' ||
                       *P == 'E' || *P == '-' || *P == '+')) {
      ++P;
      Any = true;
    }
    if (!Any)
      Ok = false;
  }

  void value() {
    ws();
    if (!Ok || P >= End) {
      Ok = false;
      return;
    }
    if (*P == '{') {
      object();
    } else if (*P == '[') {
      array();
    } else if (*P == '"') {
      string();
    } else if (std::string_view(P, End - P).substr(0, 4) == "true") {
      P += 4;
    } else if (std::string_view(P, End - P).substr(0, 5) == "false") {
      P += 5;
    } else if (std::string_view(P, End - P).substr(0, 4) == "null") {
      P += 4;
    } else {
      number();
    }
  }

  void object() {
    if (!eat('{'))
      return;
    if (peek('}')) {
      eat('}');
      return;
    }
    do {
      string();
      if (!eat(':'))
        return;
      value();
      if (!Ok)
        return;
    } while (peek(',') && eat(','));
    eat('}');
  }

  void array() {
    if (!eat('['))
      return;
    if (peek(']')) {
      eat(']');
      return;
    }
    do {
      value();
      if (!Ok)
        return;
    } while (peek(',') && eat(','));
    eat(']');
  }

  bool parse() {
    value();
    ws();
    return Ok && P == End;
  }
};

/// Profiles gzip's train and ref inputs concurrently on two pool workers,
/// the multi-input fan-out of `spm_tool bench`.
std::vector<std::unique_ptr<CallLoopGraph>>
profileOnPool(const PipelineCase &C) {
  ScopedJobs Jobs(2);
  return buildCallLoopGraphs(*C.B, C.Loops, {&C.W.Train, &C.W.Ref});
}

size_t countSubstr(const std::string &Hay, const std::string &Needle) {
  size_t N = 0;
  for (size_t Pos = Hay.find(Needle); Pos != std::string::npos;
       Pos = Hay.find(Needle, Pos + Needle.size()))
    ++N;
  return N;
}

} // namespace

//===----------------------------------------------------------------------===//
// Contract 1: instrumentation never changes behavior
//===----------------------------------------------------------------------===//

// The full marker pipeline must produce byte-identical output with tracing
// disabled and enabled. In SPM_TRACE=OFF builds "enabled" is a no-op, so
// the same test also proves compiled-out equivalence.
TEST(ObsDifferential, PipelineOutputsByteIdentical) {
  ObsGuard Guard;
  PipelineCase C = makeCase();
  ASSERT_FALSE(C.Markers.empty());

  MarkerRun Off = runMarkerIntervals(*C.B, C.Loops, *C.G, C.Markers, C.W.Ref,
                                     /*CollectBbv=*/true,
                                     /*RecordFirings=*/true, Cap);
  std::string OffDump = dumpRun(Off);

  spmTraceSetEnabled(true);
  MarkerRun On = runMarkerIntervals(*C.B, C.Loops, *C.G, C.Markers, C.W.Ref,
                                    /*CollectBbv=*/true,
                                    /*RecordFirings=*/true, Cap);
  spmTraceSetEnabled(false);

  EXPECT_EQ(OffDump, dumpRun(On));
}

// Same equivalence through runs on pool workers, whose instrumentation
// lands in per-thread rings: the fan-out must not interact with the trace
// switch.
TEST(ObsDifferential, PooledOutputsByteIdentical) {
  ObsGuard Guard;
  PipelineCase C = makeCase();

  auto Off = profileOnPool(C);
  spmTraceSetEnabled(true);
  auto On = profileOnPool(C);
  spmTraceSetEnabled(false);

  ASSERT_EQ(Off.size(), 2u);
  ASSERT_EQ(On.size(), 2u);
  for (size_t I = 0; I < Off.size(); ++I)
    EXPECT_EQ(printGraph(*Off[I]), printGraph(*On[I])) << "input " << I;
}

// Disabled tracing must record nothing: no span events, no metric values.
// Compiled-out builds must record nothing even when "enabled".
TEST(ObsDifferential, DisabledRecordsNothing) {
  ObsGuard Guard;
  PipelineCase C = makeCase();

  runMarkerIntervals(*C.B, C.Loops, *C.G, C.Markers, C.W.Ref, false, false,
                     Cap);
  EXPECT_EQ(traceEventCount(), 0u);
  EXPECT_EQ(metrics().counterValue("vm.instrs_retired"), 0u);
  EXPECT_EQ(metrics().counterValue("markers.fired"), 0u);

  if (!traceCompiledIn()) {
    spmTraceSetEnabled(true);
    runMarkerIntervals(*C.B, C.Loops, *C.G, C.Markers, C.W.Ref, false, false,
                       Cap);
    EXPECT_EQ(traceEventCount(), 0u);
    EXPECT_EQ(metrics().counterValue("vm.instrs_retired"), 0u);
    EXPECT_EQ(traceToChromeJson().find("\"traceEvents\": ["), 1u);
  }
}

//===----------------------------------------------------------------------===//
// Contract 2: Chrome trace export is valid and balanced
//===----------------------------------------------------------------------===//

TEST(ChromeTrace, ValidJsonWithBalancedSpans) {
  ObsGuard Guard;
  PipelineCase C = makeCase();

  spmTraceSetEnabled(true);
  profileOnPool(C);
  spmTraceSetEnabled(false);

  std::string Json = traceToChromeJson();
  EXPECT_TRUE(JsonParser(Json).parse()) << Json.substr(0, 400);
  EXPECT_NE(Json.find("\"displayTimeUnit\": \"ms\""), std::string::npos);
  EXPECT_NE(Json.find("\"dropped_spans\": 0"), std::string::npos);

  size_t Begins = countSubstr(Json, "\"ph\": \"B\"");
  size_t Ends = countSubstr(Json, "\"ph\": \"E\"");
  EXPECT_EQ(Begins, Ends);

  if (traceCompiledIn()) {
    // The pooled profiling opens spans on the main thread (parallel.for)
    // and on pool workers (pipeline.build_graph inside pool.task); each
    // thread's stream must balance independently.
    EXPECT_GT(traceEventCount(), 0u);
    EXPECT_NE(Json.find("parallel.for"), std::string::npos);
    EXPECT_NE(Json.find("pool.task"), std::string::npos);
    EXPECT_EQ(countSubstr(Json, "\"name\": \"pipeline.build_graph\""), 4u)
        << "one begin and one end per profiled input";
    std::vector<TraceThreadStats> Stats = traceThreadStats();
    ASSERT_GT(Stats.size(), 1u);
    for (const TraceThreadStats &S : Stats) {
      EXPECT_EQ(S.Begins, S.Ends) << "tid " << S.Tid;
      EXPECT_EQ(S.Dropped, 0u) << "tid " << S.Tid;
    }
  } else {
    EXPECT_EQ(Begins, 0u);
    EXPECT_EQ(traceEventCount(), 0u);
  }
}

// A span that recorded its begin while enabled must record its end even if
// the switch flips off mid-scope — balance survives runtime toggling.
TEST(ChromeTrace, BalanceSurvivesMidSpanDisable) {
  ObsGuard Guard;
  spmTraceSetEnabled(true);
  {
    SPM_TRACE_SPAN("obs.toggle");
    spmTraceSetEnabled(false);
  }
  if (traceCompiledIn()) {
    EXPECT_EQ(traceEventCount(), 2u);
    std::vector<TraceThreadStats> Stats = traceThreadStats();
    uint64_t Begins = 0, Ends = 0;
    for (const TraceThreadStats &S : Stats) {
      Begins += S.Begins;
      Ends += S.Ends;
    }
    EXPECT_EQ(Begins, 1u);
    EXPECT_EQ(Ends, 1u);
  } else {
    EXPECT_EQ(traceEventCount(), 0u);
  }
}

// Regression: spans nest, so the ring must reserve one end slot for every
// open span, not just the newest one. Overfilling the buffer with a deep
// nest used to write ends past Events[Capacity-1]; now the surplus begins
// drop whole spans and every recorded stream still balances. (Run under
// ASan, this is also an out-of-bounds write check.)
TEST(ChromeTrace, NestedSpansFillBufferWithoutOverflow) {
  ObsGuard Guard;
  if (!traceCompiledIn())
    GTEST_SKIP() << "ring buffer compiled out";
  // Pure nesting accepts the begin at depth I (Size == OpenEnds == I)
  // while 2*I + 2 <= Capacity — the first Capacity/2 levels exactly, which
  // on unwind fill the ring to the last slot; everything deeper must drop.
  constexpr size_t Capacity = size_t(1) << 16;
  constexpr size_t Depth = Capacity; // well past the acceptance bound
  constexpr size_t Accepted = Capacity / 2;

  spmTraceSetEnabled(true);
  {
    // LIFO vector of heap spans = a Depth-deep nest without Depth stack
    // frames; pop_back unwinds innermost-first like real scopes do.
    std::vector<std::unique_ptr<TraceSpan>> Nest;
    Nest.reserve(Depth);
    for (size_t I = 0; I < Depth; ++I)
      Nest.push_back(std::make_unique<TraceSpan>("obs.nest"));
    while (!Nest.empty())
      Nest.pop_back();
  }
  spmTraceSetEnabled(false);

  EXPECT_EQ(traceDroppedCount(), Depth - Accepted);
  EXPECT_EQ(traceEventCount(), 2 * Accepted);
  for (const TraceThreadStats &S : traceThreadStats())
    EXPECT_EQ(S.Begins, S.Ends) << "tid " << S.Tid;
  std::string Json = traceToChromeJson();
  EXPECT_TRUE(JsonParser(Json).parse()) << Json.substr(0, 400);
  EXPECT_EQ(countSubstr(Json, "\"ph\": \"B\""), Accepted);
  EXPECT_EQ(countSubstr(Json, "\"ph\": \"E\""), Accepted);
}

// Regression: pools are per-parallelFor, so every traced parallel region
// used to register brand-new ~1.5 MB rings for its workers and keep them
// forever. Exited workers now return their ring to a free-list and later
// workers reuse it, so repeated regions run in a bounded buffer set.
TEST(ChromeTrace, ExitedWorkerBuffersAreRecycled) {
  ObsGuard Guard;
  if (!traceCompiledIn())
    GTEST_SKIP() << "ring buffer compiled out";
  ScopedJobs Jobs(3);
  spmTraceSetEnabled(true);
  // Every region holds each task until all three have started, so every
  // region runs on exactly three workers. Without the latch a fast worker
  // can drain a region alone, and whether the first region registers as
  // many rings as a later one would depend on scheduling.
  auto Region = [] {
    std::latch AllStarted(3);
    parallelFor(3, [&](size_t) {
      SPM_TRACE_SPAN("obs.recycle");
      AllStarted.arrive_and_wait();
    });
  };
  Region();
  // parallelFor joins its pool before returning, and a joined worker's
  // thread_local teardown has already freed its ring — so the next region
  // finds every worker ring on the free-list.
  size_t RingsAfterFirst = traceThreadStats().size();
  for (int R = 0; R < 8; ++R)
    Region();
  size_t RingsAfterNinth = traceThreadStats().size();
  spmTraceSetEnabled(false);

  EXPECT_EQ(RingsAfterNinth, RingsAfterFirst);
  // Reuse must not cost correctness: streams stay balanced per ring even
  // when several successive workers shared one.
  for (const TraceThreadStats &S : traceThreadStats())
    EXPECT_EQ(S.Begins, S.Ends) << "tid " << S.Tid;
  EXPECT_TRUE(JsonParser(traceToChromeJson()).parse());
}

TEST(ChromeTrace, ResetClearsEverything) {
  ObsGuard Guard;
  spmTraceSetEnabled(true);
  {
    SPM_TRACE_SPAN("obs.reset");
  }
  spmTraceSetEnabled(false);
  traceReset();
  EXPECT_EQ(traceEventCount(), 0u);
  EXPECT_EQ(traceDroppedCount(), 0u);
  EXPECT_TRUE(JsonParser(traceToChromeJson()).parse());
}

//===----------------------------------------------------------------------===//
// Contract 3: exact metric values
//===----------------------------------------------------------------------===//

// Counters must equal the pipeline's own results to the unit: instructions
// retired, markers fired, and intervals cut are exact, not sampled.
TEST(Metrics, ExactPipelineCounters) {
  ObsGuard Guard;
  PipelineCase C = makeCase();
  ASSERT_FALSE(C.Markers.empty());

  spmTraceSetEnabled(true);
  MarkerRun R = runMarkerIntervals(*C.B, C.Loops, *C.G, C.Markers, C.W.Ref,
                                   /*CollectBbv=*/false,
                                   /*RecordFirings=*/true, Cap);
  spmTraceSetEnabled(false);

  if (!traceCompiledIn()) {
    EXPECT_EQ(metrics().counterValue("vm.instrs_retired"), 0u);
    return;
  }
  EXPECT_EQ(metrics().counterValue("vm.runs_fast"), 1u);
  EXPECT_EQ(metrics().counterValue("vm.instrs_retired"), R.Run.TotalInstrs);
  EXPECT_EQ(metrics().counterValue("vm.blocks_retired"), R.Run.TotalBlocks);
  EXPECT_EQ(metrics().counterValue("vm.mem_accesses"),
            R.Run.TotalMemAccesses);
  EXPECT_EQ(metrics().counterValue("markers.fired"), R.Firings.size());
  EXPECT_EQ(metrics().counterValue("intervals.cut"), R.Intervals.size());
}

// Fault injection is counted exactly: one triggered failpoint means exactly
// one fault.injected, and hits that do not trigger add nothing.
TEST(Metrics, ExactFaultCounter) {
  ObsGuard Guard;
  if (!failpointsCompiledIn()) {
    // Compiled-out builds must refuse to arm rather than silently no-op.
    std::string Err;
    EXPECT_FALSE(failpointsConfigure("ckpt.serialize=throw:once", &Err));
    EXPECT_NE(Err.find("compiled out"), std::string::npos) << Err;
    GTEST_SKIP() << "failpoints compiled out";
  }
  PipelineCheckpoint C;
  C.Seed = 9;
  C.Interp.TotalInstrs = 5;
  std::string Base = serializeCheckpoint(C);

  std::string Err;
  ASSERT_TRUE(failpointsConfigure("ckpt.serialize=throw:once", &Err)) << Err;
  spmTraceSetEnabled(true);
  EXPECT_THROW(serializeCheckpoint(C), FailPointInjected);
  // `once` has fired: the second hit passes and writes the same bytes.
  EXPECT_EQ(serializeCheckpoint(C), Base);
  spmTraceSetEnabled(false);
  EXPECT_EQ(failpointHits("ckpt.serialize"), 2u);
  failpointsClear();

  EXPECT_EQ(metrics().counterValue("fault.injected"),
            traceCompiledIn() ? 1u : 0u);
}

// Every CRC rejection during checkpoint parsing is counted exactly once.
TEST(Metrics, ExactCrcFailureCounter) {
  ObsGuard Guard;
  PipelineCheckpoint C;
  C.Seed = 9;
  C.Interp.TotalInstrs = 5;
  std::string Bytes = serializeCheckpoint(C);
  std::string Bad = Bytes;
  Bad[Bad.size() - ckptutil::TrailerSize - 1] ^= 0x01;

  spmTraceSetEnabled(true);
  std::string Err;
  EXPECT_FALSE(parseCheckpoint(Bad, &Err).has_value());
  spmTraceSetEnabled(false);
  EXPECT_NE(Err.find("ckpt[crc:"), std::string::npos) << Err;

  if (!traceCompiledIn()) {
    EXPECT_EQ(metrics().counterValue("ckpt.crc_failures"), 0u);
    return;
  }
  EXPECT_EQ(metrics().counterValue("ckpt.crc_failures"), 1u);

  // A clean parse adds nothing.
  spmTraceSetEnabled(true);
  EXPECT_TRUE(parseCheckpoint(Bytes).has_value());
  spmTraceSetEnabled(false);
  EXPECT_EQ(metrics().counterValue("ckpt.crc_failures"), 1u);
}

// Gated mutators are inert while disabled; force* mutators always record.
TEST(Metrics, GatingSemantics) {
  ObsGuard Guard;
  MetricCounter &Ctr = metrics().counter("obs.test_counter");
  MetricGauge &G = metrics().gauge("obs.test_gauge");
  MetricHistogram &H = metrics().histogram("obs.test_hist");

  Ctr.add(5);
  G.set(1.5);
  G.setMax(2.5);
  H.record(3.0);
  EXPECT_EQ(Ctr.value(), 0u);
  EXPECT_FALSE(G.seen());
  EXPECT_EQ(H.snapshot().count(), 0u);

  Ctr.forceAdd(2);
  G.forceSet(4.0);
  H.forceRecord(7.0);
  EXPECT_EQ(Ctr.value(), 2u);
  EXPECT_DOUBLE_EQ(G.value(), 4.0);
  EXPECT_EQ(H.snapshot().count(), 1u);

  spmTraceSetEnabled(true);
  Ctr.add(3);
  G.setMax(9.0);
  H.record(1.0);
  spmTraceSetEnabled(false);
  if (traceCompiledIn()) {
    EXPECT_EQ(Ctr.value(), 5u);
    EXPECT_DOUBLE_EQ(G.max(), 9.0);
    EXPECT_EQ(H.snapshot().count(), 2u);
  } else {
    EXPECT_EQ(Ctr.value(), 2u);
    EXPECT_DOUBLE_EQ(G.max(), 4.0);
    EXPECT_EQ(H.snapshot().count(), 1u);
  }
}

// The JSONL export is one valid JSON object per line, sorted by name, and
// skips zero counters / unset gauges / empty histograms.
TEST(Metrics, JsonlExportShape) {
  ObsGuard Guard;
  metrics().counter("obs.z_zero"); // Zero: must not appear.
  metrics().gauge("obs.z_unset");
  metrics().histogram("obs.z_empty");
  metrics().counter("obs.b_counter").forceAdd(42);
  metrics().gauge("obs.c_gauge").forceSet(2.5);
  metrics().histogram("obs.a_hist").forceRecord(1.0);
  metrics().histogram("obs.a_hist").forceRecord(3.0);

  std::string Jsonl = metrics().toJsonl();
  EXPECT_EQ(Jsonl.find("obs.z_"), std::string::npos);

  std::vector<std::string> Lines;
  size_t Start = 0;
  for (size_t Nl = Jsonl.find('\n'); Nl != std::string::npos;
       Nl = Jsonl.find('\n', Start)) {
    Lines.push_back(Jsonl.substr(Start, Nl - Start));
    Start = Nl + 1;
  }
  ASSERT_GE(Lines.size(), 3u);
  std::vector<std::string> ObsLines;
  for (const std::string &L : Lines) {
    EXPECT_TRUE(JsonParser(L).parse()) << L;
    if (L.find("\"obs.") != std::string::npos)
      ObsLines.push_back(L);
  }
  ASSERT_EQ(ObsLines.size(), 3u);
  EXPECT_NE(ObsLines[0].find("obs.a_hist"), std::string::npos);
  EXPECT_NE(ObsLines[0].find("\"count\": 2"), std::string::npos);
  EXPECT_NE(ObsLines[1].find("obs.b_counter"), std::string::npos);
  EXPECT_NE(ObsLines[1].find("\"value\": 42"), std::string::npos);
  EXPECT_NE(ObsLines[2].find("obs.c_gauge"), std::string::npos);

  std::string Text = metrics().toText();
  EXPECT_NE(Text.find("obs.b_counter"), std::string::npos);
  EXPECT_EQ(Text.find("obs.z_zero"), std::string::npos);
}

// The RAII stage timer records even when its scope unwinds through an
// exception — this is what keeps bench --profile's JSON valid when a stage
// throws partway (the fixed double-count bug).
TEST(Metrics, ScopedTimerRecordsDuringUnwind) {
  ObsGuard Guard;
  bool Caught = false;
  try {
    ScopedMetricTimer T("obs.throw_s");
    throw std::runtime_error("stage failed");
  } catch (const std::runtime_error &) {
    Caught = true;
  }
  EXPECT_TRUE(Caught);
  RunningStat S = metrics().histogram("obs.throw_s").snapshot();
  ASSERT_EQ(S.count(), 1u);
  EXPECT_GE(S.min(), 0.0);
}

// Interned references stay stable and resetAll zeroes values without
// invalidating them — the function-local-static caching pattern used at
// the marker-firing hot site depends on this.
TEST(Metrics, ResetPreservesInternedReferences) {
  ObsGuard Guard;
  MetricCounter &A = metrics().counter("obs.interned");
  A.forceAdd(7);
  metrics().resetAll();
  EXPECT_EQ(A.value(), 0u);
  EXPECT_EQ(&A, &metrics().counter("obs.interned"));
  A.forceAdd(1);
  EXPECT_EQ(metrics().counterValue("obs.interned"), 1u);
  EXPECT_EQ(metrics().counterValue("obs.never_created"), 0u);
}

//===----------------------------------------------------------------------===//
// Phase timeline track, provenance header, and drop accounting (spmtrace v2)
//===----------------------------------------------------------------------===//

// Each cut interval lands on the phase timeline track exactly once, and the
// Chrome export renders it as an "X" complete event (with per-interval
// instr/mem attribution in args) plus a "C" rate counter, all on the
// metadata-named "phases" thread at tid 0.
TEST(PhaseTrack, OneTimelineEventPerInterval) {
  ObsGuard Guard;
  PipelineCase C = makeCase();
  spmTraceSetEnabled(true);
  MarkerRun Run = runMarkerIntervals(*C.B, C.Loops, *C.G, C.Markers,
                                     C.W.Ref, false, false, Cap);
  spmTraceSetEnabled(false);
  ASSERT_FALSE(Run.Intervals.empty());
  if (!traceCompiledIn()) {
    EXPECT_EQ(tracePhaseEventCount(), 0u);
    return;
  }
  EXPECT_EQ(tracePhaseEventCount(), Run.Intervals.size());
  std::string Json = traceToChromeJson();
  EXPECT_TRUE(JsonParser(Json).parse());
  EXPECT_NE(Json.find("\"args\": {\"name\": \"phases\"}"), std::string::npos);
  EXPECT_NE(Json.find("\"name\": \"phase "), std::string::npos);
  EXPECT_NE(Json.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(Json.find("\"name\": \"phase.rate\", \"ph\": \"C\""),
            std::string::npos);
  EXPECT_NE(Json.find("\"instrs_per_us\""), std::string::npos);
}

// The phase track obeys the runtime switch like every span site: a run with
// tracing disabled records no timeline events at all.
TEST(PhaseTrack, DisabledRecordsNothing) {
  ObsGuard Guard;
  PipelineCase C = makeCase();
  MarkerRun Run = runMarkerIntervals(*C.B, C.Loops, *C.G, C.Markers,
                                     C.W.Ref, false, false, Cap);
  ASSERT_FALSE(Run.Intervals.empty());
  EXPECT_EQ(tracePhaseEventCount(), 0u);
}

// otherData.provenance embeds the caller's JSON verbatim in every build
// configuration — exported traces stay self-describing even with the span
// machinery compiled out — and is omitted entirely when not supplied.
TEST(PhaseTrack, ProvenanceEmbeddedInExport) {
  ObsGuard Guard;
  std::string Json = traceToChromeJson("{\"seed\": 42, \"tool\": \"t\"}");
  EXPECT_TRUE(JsonParser(Json).parse());
  EXPECT_NE(Json.find("\"provenance\": {\"seed\": 42, \"tool\": \"t\"}"),
            std::string::npos);
  EXPECT_EQ(traceToChromeJson().find("provenance"), std::string::npos);
}

// Overflowing the bounded phase ring drops whole intervals and counts every
// one; traceSyncDropMetrics republishes the total into the registry as a
// raise-to-total (idempotent), and the export's otherData reports it.
TEST(PhaseTrack, RingOverflowIsCountedAndSynced) {
  ObsGuard Guard;
  if (!traceCompiledIn())
    GTEST_SKIP() << "trace compiled out";
  // Fill to capacity, then five more: exactly five drops.
  while (tracePhaseDroppedCount() == 0)
    tracePhaseInterval(1, 10, 100, 7);
  for (int I = 0; I < 4; ++I)
    tracePhaseInterval(1, 10, 100, 7);
  EXPECT_EQ(tracePhaseDroppedCount(), 5u);
  traceSyncDropMetrics();
  EXPECT_EQ(metrics().counterValue("trace.dropped_spans"), 5u);
  traceSyncDropMetrics(); // Raise-to-total: a second sync adds nothing.
  EXPECT_EQ(metrics().counterValue("trace.dropped_spans"), 5u);
  std::string Json = traceToChromeJson();
  EXPECT_NE(Json.find("\"dropped_phase_events\": 5"), std::string::npos);
  traceReset();
  EXPECT_EQ(tracePhaseEventCount(), 0u);
  EXPECT_EQ(tracePhaseDroppedCount(), 0u);
}
