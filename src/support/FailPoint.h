//===- support/FailPoint.h - Deterministic fault injection ------*- C++ -*-===//
//
// Part of the SPM project: reproduction of "Selecting Software Phase Markers
// with Code Structure Analysis" (CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Named failpoints for deterministic fault injection at the durability
/// seams (CFG import and every spm_tool file writer). The fault fuzz suite
/// (tests/faultfuzz_test.cpp, ctest label "fault") arms each one, proves it
/// faults its operation, and proves the re-run heals byte for byte;
/// docs/robustness.md is the contract.
///
/// Failpoints are always compiled in and cost, in order of cheapness:
///
///   - Nothing armed (the default): one relaxed atomic load and a
///     predictable branch per site. Sites sit at file/section granularity —
///     never per interpreter event — so the hot stages are unaffected.
///   - Armed: a mutex-guarded table lookup per site. Fault injection is a
///     test-only mode; nothing here is on a measured path once armed.
///
/// Activation is a deterministic spec string, e.g.
///
///     tool.write=partial:3,cfg.import=throw:every:2
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

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace spm {

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
/// The kill-at-every-seam fuzz iterates this list, so adding a failpoint
/// site means adding its name here (configure rejects unknown names).
const std::vector<std::string> &failpointSeamNames();

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

} // namespace spm

#endif // SPM_SUPPORT_FAILPOINT_H
