//===- cfg/Import.h - Structural recovery into the mini-IR ------*- C++ -*-===//
//
// Part of the SPM project: reproduction of "Selecting Software Phase Markers
// with Code Structure Analysis" (CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Turns a parsed edge-list CFG (cfg/Format.h) back into a structured
/// ir::SourceProgram: validates graph shape, recovers dominators / natural
/// loops / nesting (cfg/Structure.h), rejects or node-splits irreducible
/// regions, and rebuilds the statement tree the Builder would have
/// produced — so imported programs lower through ir/Lowering.h and run
/// unchanged through the interpreter and the whole marker pipeline.
///
/// The structurer accepts exactly the shapes structured lowering emits:
/// while-loops (header with one in-loop and one exit successor, single
/// latch branching only back to the header) and two-way forward branches
/// joining at the cond block's immediate postdominator. Anything else —
/// bottom-exit loops, multi-latch loops, branches into the middle of a
/// sibling region — fails with a named diagnostic rather than silently
/// approximating.
///
//===----------------------------------------------------------------------===//

#ifndef SPM_CFG_IMPORT_H
#define SPM_CFG_IMPORT_H

#include "cfg/Format.h"
#include "ir/SourceProgram.h"

#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace spm {
namespace cfg {

struct ImportOptions {
  /// When set, irreducible regions are legalized by node splitting
  /// (cloning the highest-numbered multi-predecessor block of the stuck
  /// region per predecessor) instead of rejected with cfg[irreducible].
  bool SplitIrreducible = false;
  /// Safety valve for pathological splitting cascades: per-function block
  /// budget after cloning; exceeding it fails with cfg[split-limit].
  uint32_t MaxBlocksAfterSplit = 4096;
};

/// One recovered natural loop, in structure order (outer loops before the
/// loops they contain).
struct CfgLoopInfo {
  uint32_t FuncId = 0;
  std::string FuncName;
  uint32_t HeaderId = 0; ///< Block id from the input file.
  uint32_t LatchId = 0;
  uint32_t Depth = 1; ///< 1 = outermost.
  std::string TripText; ///< The header's trip= annotation, canonical text.
};

/// A structured program recovered from a CFG, plus the loop forest that
/// recovery found (the `spm_tool import` report surface).
struct ImportedProgram {
  std::unique_ptr<SourceProgram> Program;
  std::vector<CfgLoopInfo> Loops;
  uint32_t SplitBlocks = 0; ///< Clones created by irreducible splitting.
};

/// Recovers structure from \p P. Returns std::nullopt with a named
/// diagnostic in \p Err on any malformed or unstructurable graph, and with
/// cfg[verify] when the recovered program fails verify(const SourceProgram
/// &), e.g. an unguarded call-graph cycle that could never terminate.
std::optional<ImportedProgram> importCfg(const CfgProgram &P,
                                         const ImportOptions &Opts,
                                         std::string *Err);

/// Renders the recovered loop forest, one `loop header H latch L trip T`
/// line per loop indented by nesting depth under a per-function heading.
std::string printLoopForest(const ImportedProgram &IP);

/// All input-parameter names the program's specs reference (trip specs and
/// region sizes), sorted and deduplicated — lets `spm_tool import` check
/// `--param` coverage up front instead of tripping the WorkloadInput
/// assert mid-run.
std::vector<std::string> referencedParams(const SourceProgram &P);

} // namespace cfg
} // namespace spm

#endif // SPM_CFG_IMPORT_H
