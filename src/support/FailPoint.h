//===- support/FailPoint.h - Compile-time-gated fault injection -*- C++ -*-===//
//
// Part of the SPM project: reproduction of "Selecting Software Phase Markers
// with Code Structure Analysis" (CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Named failpoints for deterministic fault injection at the durability
/// seams (checkpoint serialize/write/read, CFG import, and every spm_tool
/// file writer). The fault fuzz suite
/// (tests/faultfuzz_test.cpp, ctest label "fault") arms them to prove
/// crash-then-resume reproduces uninterrupted runs byte-for-byte;
/// docs/robustness.md is the contract.
///
/// Gating follows the SPM_TRACE model (Trace.h), in order of cheapness:
///
///   - Compiled out (`-DSPM_FAILPOINTS=OFF`, SPM_FAILPOINTS_ENABLED == 0):
///     every SPM_FAILPOINT site collapses to nothing; configuring a
///     non-empty spec fails loudly instead of silently not injecting.
///   - Compiled in, nothing armed (the default): one relaxed atomic load
///     and a predictable branch per site. Sites sit at file/section/leg
///     granularity — never per interpreter event — so the hot stages are
///     unaffected (see docs/robustness.md for the measurement).
///   - Armed: a mutex-guarded table lookup per site. Fault injection is a
///     test-only mode; nothing here is on a measured path once armed.
///
/// Activation is a deterministic spec string, e.g.
///
///     ckpt.write=partial:3,ckpt.read=throw:every:2
///
///     spec  := point ( "," point )*
///     point := name "=" mode
///     mode  := "throw"                 fault every hit
///            | "throw:once"            fault the first hit only
///            | "throw:nth:" N          fault the Nth hit only (1-based)
///            | "throw:every:" N        fault hits N, 2N, 3N, ...
///            | "partial:" N            first hit only: write N bytes, then
///                                      fail (writer seams; elsewhere the
///                                      site faults like throw:once)
///
/// Names must come from failpointSeamNames() — a typo in a spec is an
/// error, not a silently-disarmed failpoint. Hit counting is per-name and
/// process-wide, so a given spec replays identically on identical work.
///
//===----------------------------------------------------------------------===//

#ifndef SPM_SUPPORT_FAILPOINT_H
#define SPM_SUPPORT_FAILPOINT_H

// The CMake option SPM_FAILPOINTS defines this for every target; standalone
// inclusion defaults to compiled-in.
#ifndef SPM_FAILPOINTS_ENABLED
#define SPM_FAILPOINTS_ENABLED 1
#endif

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace spm {

/// True when the framework is compiled in (SPM_FAILPOINTS=ON builds).
constexpr bool failpointsCompiledIn() { return SPM_FAILPOINTS_ENABLED != 0; }

/// The exception an armed `throw` failpoint raises. Carries the failpoint
/// name so recovery code (fuzz harnesses, the crash dump) can assert which
/// seam faulted.
class FailPointInjected : public std::runtime_error {
public:
  explicit FailPointInjected(std::string PointName)
      : std::runtime_error("injected fault at failpoint '" + PointName + "'"),
        Point(std::move(PointName)) {}
  const std::string &name() const { return Point; }

private:
  std::string Point;
};

/// What an armed failpoint asks its site to do right now.
struct FailAction {
  enum class Kind : uint8_t {
    None,    ///< Not armed / not this hit: proceed normally.
    Throw,   ///< Fault the operation (sites throw FailPointInjected).
    Partial, ///< Writer seams: write only `Arg` bytes, then fail.
  };
  Kind K = Kind::None;
  uint64_t Arg = 0; ///< Partial: byte count to write before failing.
};

/// Every failpoint name compiled into the tree, one per durability seam.
/// The kill-at-every-seam fuzz iterates this list, so adding a SPM_FAILPOINT
/// site means adding its name here (configure rejects unknown names).
const std::vector<std::string> &failpointSeamNames();

#if SPM_FAILPOINTS_ENABLED

/// Parses and arms \p Spec (grammar in the file comment), replacing any
/// previous configuration and resetting all hit counts. Empty spec ==
/// failpointsClear(). Returns false and fills \p Err (if non-null) on an
/// unknown name or malformed mode, leaving nothing armed.
bool failpointsConfigure(const std::string &Spec, std::string *Err = nullptr);

/// Disarms every failpoint and resets hit counts.
void failpointsClear();

/// Hits recorded at \p Name since it was last armed (0 if never armed).
uint64_t failpointHits(const std::string &Name);

/// Core site check: counts a hit and returns the action for it. The
/// disarmed fast path is one relaxed atomic load. Triggered actions bump
/// the `fault.injected` metrics counter.
FailAction failpointEval(const char *Name);

/// Throw-style site: raises FailPointInjected when armed for this hit
/// (a `partial` mode at a non-writer seam also faults here, as its
/// documentation promises).
inline void failpointCheck(const char *Name) {
  if (failpointEval(Name).K != FailAction::Kind::None)
    throw FailPointInjected(Name);
}

#else // !SPM_FAILPOINTS_ENABLED

/// Compiled out: arming any non-empty spec is an error — a test run that
/// believes it is injecting faults must not silently pass without them.
bool failpointsConfigure(const std::string &Spec, std::string *Err = nullptr);
inline void failpointsClear() {}
inline uint64_t failpointHits(const std::string &) { return 0; }
inline FailAction failpointEval(const char *) { return FailAction{}; }
inline void failpointCheck(const char *) {}

#endif // SPM_FAILPOINTS_ENABLED

} // namespace spm

/// Drops a throw-style failpoint in the current block. Compiled-out builds
/// emit nothing (the name string is not even referenced).
#if SPM_FAILPOINTS_ENABLED
#define SPM_FAILPOINT(NameLiteral) ::spm::failpointCheck(NameLiteral)
#else
#define SPM_FAILPOINT(NameLiteral) ((void)0)
#endif

#endif // SPM_SUPPORT_FAILPOINT_H
