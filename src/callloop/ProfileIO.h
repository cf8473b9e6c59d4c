//===- callloop/ProfileIO.h - Call-loop profile files -----------*- C++ -*-===//
//
// Part of the SPM project: reproduction of "Selecting Software Phase Markers
// with Code Structure Analysis" (CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Text serialization of annotated call-loop graphs, so a profile taken in
/// one session (the paper's "matter of minutes" ATOM run) can be stored
/// and re-analyzed with different selector knobs later without re-running
/// the program. The format also carries the function names and loop source
/// statements needed to lower selected markers into portable form.
///
///   spm-profile v1
///   funcs <N>
///   func <id> <name>
///   loops <N>
///   loop <id> <funcId> <srcStmt>
///   edges <N>
///   edge <from> <to> <count> <mean> <m2> <sum> <max> <min>
///
/// Node ids in edge lines use the graph's dense numbering, which is fully
/// determined by the funcs/loops tables above.
///
//===----------------------------------------------------------------------===//

#ifndef SPM_CALLLOOP_PROFILEIO_H
#define SPM_CALLLOOP_PROFILEIO_H

#include "callloop/Graph.h"

#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace spm {

/// A deserialized profile: the graph plus the naming tables that anchor it
/// to source constructs.
struct CallLoopProfileFile {
  std::unique_ptr<CallLoopGraph> Graph;
  std::vector<std::string> FuncNames;
  /// Per loop: owning function id and source statement id.
  std::vector<std::pair<uint32_t, uint32_t>> LoopInfo;
};

/// Serializes \p G (profiled against \p B / \p Loops) to the v1 format.
std::string serializeProfile(const CallLoopGraph &G, const Binary &B,
                             const LoopIndex &Loops);

/// Parses a v1 profile. Returns std::nullopt and fills \p Error on any
/// malformed input, as `profile[<slug>]: <detail> (line N)`. Beyond the
/// syntax, every edge's moments must be ones a RunningStat can hold:
/// finite, M2 >= 0, min <= mean <= max, and sum equal to count * mean up to
/// rounding. The returned graph is finalized and ready for selectMarkers().
std::optional<CallLoopProfileFile>
parseProfile(const std::string &Text, std::string *Error = nullptr);

} // namespace spm

#endif // SPM_CALLLOOP_PROFILEIO_H
