//===- support/Metrics.h - Process-wide metrics registry --------*- C++ -*-===//
//
// Part of the SPM project: reproduction of "Selecting Software Phase Markers
// with Code Structure Analysis" (CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The metrics half of the spmtrace observability layer (the span half is
/// Trace.h): named monotonic counters, gauges, and histograms (Welford, via
/// Stats.h RunningStat) in one process-wide registry, exported as JSONL or
/// an aligned text table. See docs/observability.md.
///
/// Two kinds of call sites, with different gating:
///
///   - Implicit pipeline instrumentation (interpreter totals, segment counts,
///     marker firings, k-means restarts, ...) uses the gated mutators
///     add()/set()/record(): no-ops unless the spmtrace runtime switch is
///     on (Trace.h spmTraceSetEnabled). In SPM_TRACE=OFF builds
///     spmTraceEnabled() is constexpr-false, so these mutators compile to
///     nothing — same zero-overhead story as TraceSpan.
///   - Explicit harness recording (bench --profile stage timers, CLI
///     summaries) uses the force* mutators, which record in every build
///     configuration — a handful of calls per process, never on a hot
///     path — so the stage table and its JSON exist even with the layer
///     compiled out or switched off.
///
/// Counters are std::atomic and exact across threads: sites increment at
/// run/flush/segment granularity (never per interpreter event), so the exact
/// totals asserted in tests/observability_test cost nothing measurable.
///
//===----------------------------------------------------------------------===//

#ifndef SPM_SUPPORT_METRICS_H
#define SPM_SUPPORT_METRICS_H

#include "support/Stats.h"
#include "support/Trace.h"

#include <atomic>
#include <cmath>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace spm {

/// Monotonic event counter.
class MetricCounter {
public:
  /// Gated add: counts only while the spmtrace runtime switch is on.
  void add(uint64_t N) {
    if (spmTraceEnabled())
      V.fetch_add(N, std::memory_order_relaxed);
  }
  /// Ungated add for explicit harness accounting.
  void forceAdd(uint64_t N) { V.fetch_add(N, std::memory_order_relaxed); }

  uint64_t value() const { return V.load(std::memory_order_relaxed); }
  void reset() { V.store(0, std::memory_order_relaxed); }

private:
  std::atomic<uint64_t> V{0};
};

/// Last-value-wins gauge (also tracks the maximum ever set, for
/// high-watermark readings like queue depth).
class MetricGauge {
public:
  void set(double X) {
    if (spmTraceEnabled())
      forceSet(X);
  }
  void forceSet(double X) {
    std::lock_guard<std::mutex> Lock(Mu);
    Val = X;
    if (!Seen || X > MaxVal)
      MaxVal = X;
    Seen = true;
  }
  /// Raises the high watermark to \p X if larger (gated).
  void setMax(double X) {
    if (!spmTraceEnabled())
      return;
    std::lock_guard<std::mutex> Lock(Mu);
    if (!Seen || X > MaxVal)
      MaxVal = X;
    if (!Seen)
      Val = X;
    Seen = true;
  }

  double value() const {
    std::lock_guard<std::mutex> Lock(Mu);
    return Val;
  }
  double max() const {
    std::lock_guard<std::mutex> Lock(Mu);
    return MaxVal;
  }
  bool seen() const {
    std::lock_guard<std::mutex> Lock(Mu);
    return Seen;
  }
  void reset() {
    std::lock_guard<std::mutex> Lock(Mu);
    Val = MaxVal = 0.0;
    Seen = false;
  }

private:
  mutable std::mutex Mu;
  double Val = 0.0;
  double MaxVal = 0.0;
  bool Seen = false;
};

/// Streaming histogram: count/mean/stddev/min/max via RunningStat, plus
/// fixed log-spaced buckets for percentile estimates. Mutex-guarded —
/// record sites run at restart/segment/checkpoint granularity.
///
/// The buckets are 8-per-decade over [1e-9, 1e9) with an underflow bucket
/// for non-positive values and an overflow bucket above; a percentile
/// estimate is the geometric midpoint of the bucket holding the requested
/// rank, so it is within one bucket ratio (10^(1/8) ~ 1.33x) of the true
/// order statistic. Exact moments stay with the Welford accumulator; the
/// buckets only answer rank queries.
class MetricHistogram {
public:
  static constexpr int BucketsPerDecade = 8;
  static constexpr int MinDecade = -9;
  static constexpr int MaxDecade = 9;
  /// Underflow + log buckets + overflow.
  static constexpr int NumBuckets =
      (MaxDecade - MinDecade) * BucketsPerDecade + 2;

  void record(double X) {
    if (spmTraceEnabled())
      forceRecord(X);
  }
  void forceRecord(double X) {
    std::lock_guard<std::mutex> Lock(Mu);
    S.add(X);
    ++Buckets[bucketOf(X)];
  }

  RunningStat snapshot() const {
    std::lock_guard<std::mutex> Lock(Mu);
    return S;
  }

  /// Estimated value at quantile \p Q in [0, 1] (0 on an empty histogram):
  /// the geometric midpoint of the bucket containing the ceil(Q*N)-th
  /// observation. The underflow bucket reports 0, the overflow bucket the
  /// upper range bound.
  double percentile(double Q) const {
    std::lock_guard<std::mutex> Lock(Mu);
    uint64_t N = S.count();
    if (N == 0)
      return 0.0;
    if (Q < 0.0)
      Q = 0.0;
    if (Q > 1.0)
      Q = 1.0;
    uint64_t Rank = static_cast<uint64_t>(Q * static_cast<double>(N));
    if (Rank < 1)
      Rank = 1;
    uint64_t Seen = 0;
    for (int B = 0; B < NumBuckets; ++B) {
      Seen += Buckets[B];
      if (Seen >= Rank)
        return bucketMid(B);
    }
    return bucketMid(NumBuckets - 1);
  }

  void reset() {
    std::lock_guard<std::mutex> Lock(Mu);
    S = RunningStat();
    for (uint64_t &B : Buckets)
      B = 0;
  }

private:
  static int bucketOf(double X) {
    if (!(X > 0.0))
      return 0; // Non-positive (and NaN) observations underflow.
    double L = (std::log10(X) - MinDecade) * BucketsPerDecade;
    if (L < 0.0)
      return 0;
    int Idx = static_cast<int>(L);
    if (Idx >= NumBuckets - 2)
      return NumBuckets - 1;
    return Idx + 1;
  }
  static double bucketMid(int B) {
    if (B == 0)
      return 0.0;
    if (B == NumBuckets - 1)
      return std::pow(10.0, MaxDecade);
    double LowExp = MinDecade + static_cast<double>(B - 1) / BucketsPerDecade;
    return std::pow(10.0, LowExp + 0.5 / BucketsPerDecade);
  }

  mutable std::mutex Mu;
  RunningStat S;
  uint64_t Buckets[NumBuckets] = {};
};

/// The process-wide registry. Lookup interns the name under a mutex and
/// returns a reference stable for the process lifetime — hot sites look up
/// once (function-local static reference) and then touch only the entry.
/// Exists in every build configuration; only the gated mutators above
/// compile out.
class MetricsRegistry {
public:
  static MetricsRegistry &instance();

  MetricCounter &counter(const std::string &Name);
  MetricGauge &gauge(const std::string &Name);
  MetricHistogram &histogram(const std::string &Name);

  /// One JSON object per line, sorted by name:
  ///   {"name":"vm.instrs_retired","type":"counter","value":123}
  ///   {"name":"pool.task_s","type":"histogram","count":8,"mean":...,
  ///    "stddev":...,"min":...,"max":...,"sum":...}
  /// Zero counters, unset gauges, and empty histograms are skipped, so the
  /// dump reflects what actually ran.
  std::string toJsonl() const;

  /// Aligned human-readable table of the same content.
  std::string toText() const;

  /// Zeros every registered metric (names stay interned). Test isolation
  /// and multi-phase drivers.
  void resetAll();

  /// Reads a counter by name without creating it (0 when absent).
  uint64_t counterValue(const std::string &Name) const;

private:
  MetricsRegistry() = default;

  mutable std::mutex Mu;
  std::vector<std::pair<std::string, std::unique_ptr<MetricCounter>>>
      Counters;
  std::vector<std::pair<std::string, std::unique_ptr<MetricGauge>>> Gauges;
  std::vector<std::pair<std::string, std::unique_ptr<MetricHistogram>>>
      Histograms;
};

/// Shorthand for MetricsRegistry::instance().
inline MetricsRegistry &metrics() { return MetricsRegistry::instance(); }

/// RAII wall-clock timer recording seconds into histogram \p Name at scope
/// exit (force-recorded: works in every configuration, including during
/// stack unwinding — this is what keeps bench --profile's JSON valid when
/// a stage throws). Harness/stage instrumentation only; pairs with a
/// TraceSpan for the timeline view.
class ScopedMetricTimer {
public:
  explicit ScopedMetricTimer(const char *Name);
  ~ScopedMetricTimer();
  ScopedMetricTimer(const ScopedMetricTimer &) = delete;
  ScopedMetricTimer &operator=(const ScopedMetricTimer &) = delete;

private:
  const char *Name;
  uint64_t StartNs;
};

} // namespace spm

#endif // SPM_SUPPORT_METRICS_H
