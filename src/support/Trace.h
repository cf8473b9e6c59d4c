//===- support/Trace.h - Zero-overhead scoped tracing ----------*- C++ -*-===//
//
// Part of the SPM project: reproduction of "Selecting Software Phase Markers
// with Code Structure Analysis" (CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The tracing half of the spmtrace observability layer (the metrics half is
/// Metrics.h): RAII spans recording begin/end timestamps into per-thread
/// ring buffers, exported as Chrome `trace_event` JSON that loads directly
/// in chrome://tracing or https://ui.perfetto.dev. See docs/observability.md.
///
/// Cost model, in order of cheapness:
///
///   - Compiled out (`-DSPM_TRACE=OFF`, i.e. SPM_TRACE_ENABLED == 0):
///     every span and counter call collapses to nothing under
///     `if constexpr`; the emitted code is as if the call sites did not
///     exist. Behavior is byte-identical either way — instrumentation never
///     touches the event stream or any RNG (enforced by
///     tests/observability_test).
///   - Compiled in, runtime-disabled (the default at startup): one relaxed
///     atomic load and a predictable branch per span site. Spans sit at
///     run/stage/segment/flush granularity — never per interpreter event —
///     so this configuration stays within 1% of the compiled-out build on the
///     hot stages (BENCH_trace.json records the measurement).
///   - Enabled (`spmTraceSetEnabled(true)`, or spm_tool's --trace-out):
///     two steady_clock reads and two lock-free ring-buffer pushes per
///     span. Threads register their buffer once under a mutex; the hot
///     path after that is a plain thread_local pointer.
///
/// Span events record strictly chronologically per thread, so the exported
/// begin/end pairs balance by construction: a Span that recorded its "B"
/// always records its "E" (even across a runtime disable), and one that
/// started disabled records neither. When a ring fills, whole spans are
/// dropped (every begin push reserves an end slot for each still-open span,
/// since spans nest) and counted in the exporter's metadata rather than
/// silently truncated.
///
//===----------------------------------------------------------------------===//

#ifndef SPM_SUPPORT_TRACE_H
#define SPM_SUPPORT_TRACE_H

// The CMake option SPM_TRACE defines this for every target; standalone
// inclusion (e.g. tooling) defaults to compiled-in.
#ifndef SPM_TRACE_ENABLED
#define SPM_TRACE_ENABLED 1
#endif

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace spm {

/// True when the layer is compiled in (SPM_TRACE=ON builds).
constexpr bool traceCompiledIn() { return SPM_TRACE_ENABLED != 0; }

#if SPM_TRACE_ENABLED

namespace trace_detail {

/// Process-wide runtime switch. Relaxed loads only: a span observing a
/// stale value for a few events is harmless (it still balances), and the
/// switch flips outside any measured region.
extern std::atomic<bool> Enabled;

/// One begin or end record. Name points at a string literal (span sites
/// pass `const char *` literals, never computed strings), so records are
/// POD and the buffer never allocates per event.
struct SpanEvent {
  const char *Name; ///< Literal span name; null marks an unused slot.
  uint64_t Ns;      ///< steady_clock nanoseconds since process trace epoch.
  bool IsEnd;       ///< False = "B" record, true = "E" record.
};

/// Fixed-capacity per-thread event buffer. Only its owning thread writes;
/// the exporter reads after quiescence (all pool workers joined — pools are
/// per-parallelFor; the registry keeps buffers of exited threads alive for
/// export and recycles them to later threads, so buffer memory is bounded
/// by peak thread concurrency, not total thread count).
struct ThreadBuf {
  static constexpr size_t Capacity = 1u << 16; ///< 64K events / thread.
  uint32_t Tid = 0;
  uint64_t Dropped = 0;
  uint32_t Size = 0;
  uint32_t OpenEnds = 0; ///< Accepted begins whose end is still owed.
  SpanEvent Events[Capacity];

  /// Pushes a begin record; returns false (and counts a drop) unless this
  /// record, its own end, and the owed end of every already-open span all
  /// fit. Spans nest (pool.task -> pipeline.build_graph -> vm.runFast ->
  /// ...), so one reserved end slot per outstanding begin — a full buffer drops whole
  /// spans, never half of one, and never overruns the ring. Invariant:
  /// Size + OpenEnds <= Capacity.
  bool pushBegin(const char *Name, uint64_t Ns) {
    if (Size + 2 + OpenEnds > Capacity) {
      ++Dropped;
      return false;
    }
    ++OpenEnds;
    Events[Size++] = {Name, Ns, false};
    return true;
  }
  void pushEnd(const char *Name, uint64_t Ns) {
    // In bounds by the invariant above: OpenEnds >= 1 here, so Size is at
    // most Capacity - 1.
    --OpenEnds;
    Events[Size++] = {Name, Ns, true};
  }
};

/// Returns the calling thread's buffer, registering it on first use.
ThreadBuf &threadBuf();

/// Nanoseconds since the process trace epoch (first use of the clock).
uint64_t nowNs();

} // namespace trace_detail

/// Runtime switch for the whole spmtrace layer (spans *and* the implicit
/// pipeline metrics; see Metrics.h). Off at startup.
inline void spmTraceSetEnabled(bool On) {
  trace_detail::Enabled.store(On, std::memory_order_relaxed);
}

/// Current runtime state. This is the hot-path guard: one relaxed load.
inline bool spmTraceEnabled() {
  return trace_detail::Enabled.load(std::memory_order_relaxed);
}

/// RAII scoped span. \p Name must be a string literal (or otherwise outlive
/// the process's last trace export).
class TraceSpan {
public:
  explicit TraceSpan(const char *Name) {
    if (!spmTraceEnabled())
      return;
    trace_detail::ThreadBuf &B = trace_detail::threadBuf();
    if (B.pushBegin(Name, trace_detail::nowNs())) {
      Buf = &B;
      this->Name = Name;
    }
  }
  ~TraceSpan() {
    // A span that recorded its begin always records its end, even if the
    // runtime switch flipped mid-scope — per-thread balance is structural.
    if (Buf)
      Buf->pushEnd(Name, trace_detail::nowNs());
  }
  TraceSpan(const TraceSpan &) = delete;
  TraceSpan &operator=(const TraceSpan &) = delete;

private:
  trace_detail::ThreadBuf *Buf = nullptr;
  const char *Name = nullptr;
};

/// Records one completed interval on the dedicated "phases" timeline track
/// (tid 0 in the Chrome export): the interval's phase id, its wall duration,
/// and its instruction/memory-access attribution. The end timestamp is
/// sampled here, so call at the cut boundary. Gated like every span site —
/// callers guard on spmTraceEnabled(). Bounded process-wide ring; overflow
/// drops whole intervals and counts them (tracePhaseDroppedCount,
/// otherData.dropped_phase_events).
void tracePhaseInterval(int32_t PhaseId, uint64_t WallNs, uint64_t Instrs,
                        uint64_t MemAccesses);

#else // !SPM_TRACE_ENABLED

inline void spmTraceSetEnabled(bool) {}
constexpr bool spmTraceEnabled() { return false; }

inline void tracePhaseInterval(int32_t, uint64_t, uint64_t, uint64_t) {}

/// Compiled-out span: an empty object the optimizer deletes entirely.
class TraceSpan {
public:
  explicit TraceSpan(const char *) {}
  TraceSpan(const TraceSpan &) = delete;
  TraceSpan &operator=(const TraceSpan &) = delete;
};

#endif // SPM_TRACE_ENABLED

/// Number of span events currently buffered across all threads (0 when
/// compiled out). Exporter/test helper, not a hot-path call.
size_t traceEventCount();

/// Total spans dropped to full ring buffers since the last reset.
uint64_t traceDroppedCount();

/// Phase intervals currently buffered on the phase track (0 when compiled
/// out), and intervals dropped to the full phase ring since the last reset.
size_t tracePhaseEventCount();
uint64_t tracePhaseDroppedCount();

/// Publishes the trace layer's own health counters into the metrics
/// registry: `trace.dropped_spans` (spans + phase intervals lost to full
/// rings) and `trace.rings_recycled` (per-thread buffers handed from exited
/// threads to new ones). Drops happen on the lock-free hot path where the
/// registry mutex is off-limits, so exporters call this once before reading
/// the registry. Idempotent; a no-op when compiled out.
void traceSyncDropMetrics();

/// Renders every buffered span as Chrome trace_event JSON:
/// `{"traceEvents": [{"name","ph":"B"/"E","ts","pid","tid"}...],
///   "otherData": {...}}`. Timestamps are microseconds (fractional) since
/// the trace epoch. Phase intervals recorded via tracePhaseInterval appear
/// as "X" complete events on tid 0 (thread-named "phases") plus one
/// "ph":"C" counter event per interval carrying instr/mem rates. Returns
/// `{"traceEvents": []...}` when compiled out. \p ProvenanceJson, when
/// non-empty, must be a complete JSON object; it is embedded verbatim as
/// otherData.provenance in every build configuration, so exported traces
/// stay self-describing even with the span machinery compiled out.
std::string traceToChromeJson(const std::string &ProvenanceJson = "");

/// Discards all buffered span events and drop counts (buffers of exited
/// threads included). Tests and long-lived drivers use this between
/// measured regions; spans currently open keep their reserved end slots,
/// so reset only between fully unwound scopes.
void traceReset();

/// Per-thread (tid, begin-event count, end-event count, dropped) rows for
/// tests asserting balance without a JSON round trip.
struct TraceThreadStats {
  uint32_t Tid = 0;
  uint64_t Begins = 0;
  uint64_t Ends = 0;
  uint64_t Dropped = 0;
};
std::vector<TraceThreadStats> traceThreadStats();

} // namespace spm

// Span convenience macros: SPM_TRACE_SPAN("name") drops a scoped span in
// the current block. The var name folds in the line number so two spans can
// share a scope.
#define SPM_TRACE_CONCAT_IMPL(A, B) A##B
#define SPM_TRACE_CONCAT(A, B) SPM_TRACE_CONCAT_IMPL(A, B)
#define SPM_TRACE_SPAN(NameLiteral)                                          \
  ::spm::TraceSpan SPM_TRACE_CONCAT(SpmTraceSpan_, __LINE__)(NameLiteral)

#endif // SPM_SUPPORT_TRACE_H
