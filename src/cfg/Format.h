//===- cfg/Format.h - spm-cfg edge-list text format -------------*- C++ -*-===//
//
// Part of the SPM project: reproduction of "Selecting Software Phase Markers
// with Code Structure Analysis" (CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The `spm-cfg v1` text format: programs as raw basic-block control-flow
/// graphs (functions, blocks with instruction/memory annotations, ordered
/// edges, call-site annotations, entry blocks) with NO structural
/// information — loops and branches exist only as edges, exactly what a
/// binary-level profiler recovers from a real executable. cfg/Import.h
/// rebuilds the structure (dominators, natural loops, reducibility) and
/// lowers the result into the mini-IR, so imported CFGs flow unchanged
/// through the interpreter and the marker pipeline.
///
/// The format is strict: every malformed line or inconsistent graph fails
/// the whole load with a named diagnostic of the form `cfg[<name>]: ...`,
/// mirroring the marker/profile formats in docs/FORMATS.md. The grammar is
/// specified in docs/cfg.md.
///
/// dumpCfg() is the inverse direction: any lowered Binary prints as a
/// canonical spm-cfg document whose re-import and re-lowering (at the same
/// optimization level) reproduces the binary byte-identically — block
/// addresses, mixes, site numbering, statement ids, the lot. The
/// round-trip property suite (ctest label "cfg") holds this for every
/// curated workload and for generated programs.
///
//===----------------------------------------------------------------------===//

#ifndef SPM_CFG_FORMAT_H
#define SPM_CFG_FORMAT_H

#include "ir/Binary.h"
#include "ir/SourceProgram.h"

#include <optional>
#include <string>
#include <vector>

namespace spm {
namespace cfg {

/// One parsed `block` line plus the ordered successor list collected from
/// `edge` lines. Which annotations are legal depends on the structural
/// role the block turns out to have (recovered, never declared): only
/// branch blocks (two successors) may carry `cond=`, only back-edge
/// targets may carry `trip=`, and so on — cfg/Import.h enforces this with
/// named diagnostics.
struct CfgBlockDef {
  uint32_t Id = 0;
  uint32_t Line = 0; ///< 1-based source line, for diagnostics.

  bool HasInt = false;
  uint32_t IntOps = 0;
  bool HasFp = false;
  uint32_t FpOps = 0;
  bool HasStmt = false;
  uint32_t StmtId = 0;

  bool HasTrip = false;
  TripCountSpec Trip;
  bool HasCond = false;
  CondSpec Cond;
  bool HasCall = false;
  std::vector<CallStmt::Candidate> Candidates;
  double CallProb = 1.0;
  bool RoundRobin = false;

  std::vector<MemAccessSpec> MemOps; ///< In annotation order (site order).

  std::vector<uint32_t> Succs; ///< Block ids, in edge-line order.

  /// True when the block carries any code/spec annotation at all.
  bool annotated() const {
    return HasInt || HasFp || HasStmt || HasTrip || HasCond || HasCall ||
           !MemOps.empty();
  }
};

/// One `func` section: blocks, edges (already folded into the blocks'
/// successor lists), and the entry block id.
struct CfgFunctionDef {
  std::string Name;
  uint32_t Id = 0;
  int64_t Entry = -1; ///< Block id from the `entry` line; -1 = missing.
  std::vector<CfgBlockDef> Blocks;

  /// Index into Blocks of the block with id \p BlockId, or -1.
  int32_t indexOf(uint32_t BlockId) const {
    for (size_t I = 0; I < Blocks.size(); ++I)
      if (Blocks[I].Id == BlockId)
        return static_cast<int32_t>(I);
    return -1;
  }
};

/// A whole parsed spm-cfg document.
struct CfgProgram {
  std::string Name;
  std::vector<MemRegionSpec> Regions;
  std::vector<CfgFunctionDef> Funcs;
};

/// Parses an `spm-cfg v1` document. Returns std::nullopt on any error and
/// stores a named diagnostic (`cfg[<name>]: detail (line N)`) in \p Err.
/// Parsing validates lexical and referential integrity (duplicate block
/// ids, dangling edge endpoints, entry lines, call-candidate function
/// ids); structural validity is checked by cfg/Import.h.
std::optional<CfgProgram> parseCfg(const std::string &Text,
                                   std::string *Err);

/// Prints \p B as a canonical spm-cfg document: blocks in address order
/// with annotations derived from their role, edges derived from the
/// executable tree (loop headers emit the body edge before the exit edge;
/// branch blocks emit the then edge before the else edge — edge order on
/// two-successor branch blocks is semantically significant). Re-importing
/// the dump and lowering at the binary's optimization level reproduces
/// the binary byte-for-byte.
std::string dumpCfg(const Binary &B);

// Spec <-> annotation-text helpers, shared by the dumper, the parser, and
// the loop-forest printer (all three must agree exactly or round trips
// drift).
std::string tripSpecText(const TripCountSpec &T);
std::string condSpecText(const CondSpec &C);
std::string callSpecText(const std::vector<CallStmt::Candidate> &Cands,
                         double Prob, bool RoundRobin);
std::string memSpecText(const MemAccessSpec &M);

} // namespace cfg
} // namespace spm

#endif // SPM_CFG_FORMAT_H
