//===- support/AtomicFile.h - Crash-safe atomic file writes ----*- C++ -*-===//
//
// Part of the SPM project: reproduction of "Selecting Software Phase Markers
// with Code Structure Analysis" (CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The write half of the crash-consistency contract (docs/robustness.md):
/// a destination file either keeps its old contents or holds the complete
/// new contents — never a torn prefix. Every spm_tool output (profiles,
/// bench JSON, traces, metrics) goes through here.
///
/// Discipline: write to a unique temp file beside the destination
/// (`<path>.tmp.<pid>.<seq>`), fsync it, rename() over the destination
/// (atomic on POSIX), then best-effort fsync the directory so the rename
/// itself is durable. On any failure — including an injected one — the temp
/// file is unlinked and the destination is untouched, so a crashed or
/// faulted writer leaves no corrupt artifact and no stray temp behind
/// (regression-tested in faultfuzz_test and spm_tool_smoke).
///
/// Each call checks the failpoint named by \p FailSeam (FailPoint.h):
/// `throw` modes fail the write before the temp file is created; `partial:N`
/// writes exactly N bytes of the payload into the temp file first — a torn
/// write mid-payload — and then fails through the same cleanup path.
///
//===----------------------------------------------------------------------===//

#ifndef SPM_SUPPORT_ATOMICFILE_H
#define SPM_SUPPORT_ATOMICFILE_H

#include <string>

namespace spm {

/// Atomically replaces \p Path with \p Data. Returns true on success; on
/// failure returns false, fills \p Err (if non-null), leaves \p Path
/// untouched, and removes any temp file it created. \p FailSeam names the
/// fault-injection seam this write answers to (see failpointSeamNames()).
bool atomicWriteFile(const std::string &Path, const std::string &Data,
                     std::string *Err = nullptr,
                     const char *FailSeam = "tool.write");

} // namespace spm

#endif // SPM_SUPPORT_ATOMICFILE_H
