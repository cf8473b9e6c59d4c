//===- ir/Verify.h - Structural validity checks -----------------*- C++ -*-===//
//
// Part of the SPM project: reproduction of "Selecting Software Phase Markers
// with Code Structure Analysis" (CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Structural verifiers for source programs and lowered binaries. Workload
/// generators and the lowering pass are checked against these invariants in
/// tests and (cheaply) at load time in the harnesses.
///
//===----------------------------------------------------------------------===//

#ifndef SPM_IR_VERIFY_H
#define SPM_IR_VERIFY_H

#include <string>

namespace spm {

class SourceProgram;
class Binary;

/// Checks \p P for structural validity: at least one function, call targets
/// in range, memory region references in range, unique statement ids, and a
/// call graph in which every cycle is guarded (so execution terminates): some
/// call on it has probability below 1, or sits in an if-arm or a loop body
/// that can be skipped. Returns an empty string on success, else a diagnostic.
std::string verify(const SourceProgram &P);

/// Checks \p B: strictly increasing block addresses, consistent instruction
/// mixes, well-formed terminators (backward branches target block starts at
/// lower addresses within the same function), exec-tree block references in
/// range, and dense site-id spaces. Returns an empty string on success.
std::string verify(const Binary &B);

} // namespace spm

#endif // SPM_IR_VERIFY_H
