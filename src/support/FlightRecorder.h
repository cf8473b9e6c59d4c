//===- support/FlightRecorder.h - Crash-time recent-events ring -*- C++ -*-===//
//
// Part of the SPM project: reproduction of "Selecting Software Phase Markers
// with Code Structure Analysis" (CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A bounded, always-on ring of the most recent noteworthy events (command
/// dispatch, file writes, injected faults),
/// kept so that when an exception unwinds out of spm_tool
/// the crash dump can say what the process was doing just before it died —
/// the forensic counterpart to the spmtrace spans, which only exist when
/// tracing is enabled. See docs/observability.md ("Flight recorder").
///
/// Unlike the trace rings this ring is not compile-time gated: sites sit at
/// seam granularity (the same coarse seams the failpoints mark — file
/// writes, CFG import — never per interpreter event),
/// so the cost is one mutex acquisition per durability operation. When the
/// ring is full the oldest entry is overwritten: a flight recorder keeps
/// the *last* N events, where the trace rings keep the first.
///
//===----------------------------------------------------------------------===//

#ifndef SPM_SUPPORT_FLIGHTRECORDER_H
#define SPM_SUPPORT_FLIGHTRECORDER_H

#include <cstdint>
#include <string>
#include <vector>

namespace spm {

/// One recorded event. Kind is a stable literal ("file.write",
/// "fault.injected", ...); Detail is free-form context (a path, a seam
/// name, an error message).
struct FlightEvent {
  uint64_t Ns = 0; ///< steady_clock nanoseconds since process start.
  const char *Kind = "";
  std::string Detail;
};

/// Appends one event, overwriting the oldest when the ring is full.
/// \p Kind must be a string literal (stored by pointer, like span names).
void flightRecord(const char *Kind, std::string Detail);

/// The buffered events, oldest first, plus how many older events the ring
/// has already overwritten.
std::vector<FlightEvent> flightRecorderEvents();
uint64_t flightRecorderOverwritten();

/// Clears the ring (tests and long-lived drivers).
void flightRecorderReset();

/// Renders the ring as a JSON array: `[{"ns":..,"kind":"..","detail":".."},
/// ...]`, oldest first. Always valid JSON, whatever the details contain.
std::string flightRecorderToJson();

/// Composes the `<out>.crash.json` payload (docs/FORMATS.md): the failing
/// command and exception text, the run provenance (a complete JSON object,
/// may be empty), the flight-recorder ring, and every live metric from the
/// registry — everything a postmortem needs in one self-describing
/// artifact. Trace drop counters are synced into the registry first.
std::string buildCrashDumpJson(const std::string &Command,
                               const std::string &ErrorText,
                               const std::string &ProvenanceJson);

} // namespace spm

#endif // SPM_SUPPORT_FLIGHTRECORDER_H
