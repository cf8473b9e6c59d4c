//===- tests/CfgGen.h - seeded procedural CFG text generator --------------===//
//
// Part of the SPM project: reproduction of "Selecting Software Phase Markers
// with Code Structure Analysis" (CGO 2006).
//
// Generates random-but-deterministic spm-cfg v1 text for the CFG import
// fuzz suite. The graphs are grown structurally (nested while-loops with
// every trip-count kind, if-diamonds with possibly empty arms, call sites
// with gated recursion, straight-line code with all four memory patterns)
// so the importer must accept them, but the *presentation* is hostile on
// purpose: block ids are non-dense, block lines and edge groups are
// shuffled (only within-group edge order — the then/else and in-loop/exit
// ordering — is preserved, because that order is semantic), and blocks may
// be entirely bare. Degenerate shapes appear too: empty function bodies,
// empty loop bodies (header branching straight to its latch), if-arms that
// both collapse onto the join (parallel edges), and zero-trip loops.
//
// With Options::InjectIrreducible, function 0 additionally gets a second
// entry into its first loop body — the canonical irreducible region. The
// importer must reject it with cfg[irreducible], or legalize it by node
// cloning when splitting is enabled; the forced shape (plain code blocks
// only inside the loop) is one the highest-id-first victim rule provably
// converges on.
//
// Everything is a pure function of the seed, so a failing graph is
// reproducible from the test log alone. Workload parameters reference the
// same names as irgen ("n", "m", "bytes"); irgen::makeInput satisfies
// every generated program.
//
//===----------------------------------------------------------------------===//

#ifndef SPM_TESTS_CFGGEN_H
#define SPM_TESTS_CFGGEN_H

#include "cfg/Format.h"
#include "support/Random.h"

#include <string>
#include <utility>
#include <vector>

namespace spm {
namespace cfggen {

struct Options {
  /// Adds a second entry edge into the first loop body of function 0,
  /// making that function irreducible.
  bool InjectIrreducible = false;
};

namespace detail {

class Generator {
public:
  Generator(uint64_t Seed, const Options &O)
      : R(splitMix64(Seed ^ 0x8f2cab95cf01ull)), O(O) {}

  std::string gen() {
    NumRegions = 1 + static_cast<uint32_t>(R.nextBelow(3));
    NumFuncs = 1 + static_cast<uint32_t>(R.nextBelow(4));
    std::string Out = "spm-cfg v1\nprogram cfgfuzz\n";
    for (uint32_t I = 0; I < NumRegions; ++I) {
      Out += "region r" + std::to_string(I);
      if (R.nextBool(0.25))
        Out += " param bytes " + std::to_string(1 + R.nextBelow(4)) + "\n";
      else
        Out += " fixed " +
               std::to_string(uint64_t(1) << (10 + R.nextBelow(9))) + "\n";
    }
    for (uint32_t F = 0; F < NumFuncs; ++F)
      genFunc(Out, F);
    return Out;
  }

private:
  /// Structured skeleton node; blocks and edges are rendered from this
  /// tree exactly the way the canonical dumper renders lowered programs.
  struct Node {
    enum class K { Code, Loop, If, Call };
    K Kind = K::Code;
    uint32_t Block = 0;
    uint32_t Latch = 0;     ///< Loops only; allocated after the body, so
                            ///< the latch id is the highest in its loop.
    std::string Annot;      ///< Leading-space-prefixed annotation text.
    std::vector<Node> Body; ///< Loop body / then-arm.
    std::vector<Node> Else; ///< Else-arm.
  };

  /// Non-dense but unique block ids: each allocation picks one of three
  /// consecutive ids and skips the rest.
  uint32_t newId() {
    uint32_t Id = NextRaw * 3 + static_cast<uint32_t>(R.nextBelow(3));
    ++NextRaw;
    return Id;
  }

  template <typename T> void shuffle(std::vector<T> &V) {
    for (size_t I = V.size(); I > 1; --I)
      std::swap(V[I - 1], V[R.nextBelow(I)]);
  }

  uint32_t bodyCount(uint32_t Depth) {
    return static_cast<uint32_t>(R.nextBelow(Depth >= 2 ? 3 : 4));
  }

  Node codeNode() {
    Node N;
    N.Kind = Node::K::Code;
    N.Block = newId();
    if (R.nextBool(0.12))
      return N; // Bare block: imports as empty code, lowers to the forced 1.
    N.Annot = " int=" + std::to_string(R.nextBelow(13));
    if (R.nextBool(0.35))
      N.Annot += " fp=" + std::to_string(1 + R.nextBelow(6));
    uint64_t NumMem = R.nextBelow(3);
    for (uint64_t I = 0; I < NumMem; ++I)
      N.Annot += " mem=" + cfg::memSpecText(memSpec());
    return N;
  }

  Node callNode(uint32_t FuncId) {
    Node N;
    N.Kind = Node::K::Call;
    N.Block = newId();
    N.Annot = " call=" + callText(FuncId);
    return N;
  }

  Node loopNode(uint32_t FuncId, uint32_t Depth) {
    Node N;
    N.Kind = Node::K::Loop;
    N.Block = newId();
    if (R.nextBool(0.5))
      N.Annot = " int=" + std::to_string(1 + R.nextBelow(3));
    N.Annot += " trip=" + cfg::tripSpecText(tripSpec());
    uint32_t Cnt = bodyCount(Depth);
    for (uint32_t I = 0; I < Cnt; ++I)
      N.Body.push_back(genNode(FuncId, Depth + 1));
    N.Latch = newId();
    return N;
  }

  Node ifNode(uint32_t FuncId, uint32_t Depth) {
    Node N;
    N.Kind = Node::K::If;
    N.Block = newId();
    N.Annot = " cond=" + cfg::condSpecText(condSpec());
    uint32_t NThen = bodyCount(Depth);
    for (uint32_t I = 0; I < NThen; ++I)
      N.Body.push_back(genNode(FuncId, Depth + 1));
    if (R.nextBool(0.5)) {
      uint32_t NElse = bodyCount(Depth);
      for (uint32_t I = 0; I < NElse; ++I)
        N.Else.push_back(genNode(FuncId, Depth + 1));
    }
    return N;
  }

  Node genNode(uint32_t FuncId, uint32_t Depth) {
    // Past the nesting budget only leaves remain.
    uint64_t Pick = R.nextBelow(Depth >= 3 ? 55 : 100);
    if (Pick < 40)
      return codeNode();
    if (Pick < 55)
      return callNode(FuncId);
    if (Pick < 80)
      return loopNode(FuncId, Depth);
    return ifNode(FuncId, Depth);
  }

  /// Forced function-0 shape for irreducible injection: a bare block X, a
  /// constant-trip loop whose body is plain code only, then maybe a tail.
  /// X gets a cond= and a second edge into the loop body, giving the loop
  /// two entries (header and body-first). With code-only body blocks the
  /// highest-id-first splitting rule duplicates the body chain and latch,
  /// leaving the original header as the unique loop header.
  std::vector<Node> irrSeq(uint32_t &Src, uint32_t &Tgt) {
    Node X;
    X.Kind = Node::K::Code;
    X.Block = newId();
    X.Annot = " cond=bernoulli:0.5";
    Node L;
    L.Kind = Node::K::Loop;
    L.Block = newId();
    L.Annot = " trip=const:" + std::to_string(2 + R.nextBelow(3));
    uint32_t Cnt = 1 + static_cast<uint32_t>(R.nextBelow(3));
    for (uint32_t I = 0; I < Cnt; ++I) {
      Node C;
      C.Kind = Node::K::Code;
      C.Block = newId();
      C.Annot = " int=" + std::to_string(1 + R.nextBelow(6));
      L.Body.push_back(std::move(C));
    }
    L.Latch = newId();
    Src = X.Block;
    Tgt = L.Body[0].Block;
    std::vector<Node> Seq;
    Seq.push_back(std::move(X));
    Seq.push_back(std::move(L));
    if (R.nextBool(0.5))
      Seq.push_back(codeNode());
    return Seq;
  }

  void collectBlocks(const std::vector<Node> &Ns,
                     std::vector<std::string> &Lines) {
    for (const Node &N : Ns) {
      Lines.push_back("block " + std::to_string(N.Block) + N.Annot);
      if (N.Kind == Node::K::Loop)
        Lines.push_back("block " + std::to_string(N.Latch));
      collectBlocks(N.Body, Lines);
      collectBlocks(N.Else, Lines);
    }
  }

  using EdgeList = std::vector<std::pair<uint32_t, uint32_t>>;

  /// Mirrors the canonical dumper's edge walk: in-loop before exit on
  /// headers, then before else on branches, body edges before the back
  /// edge.
  void nodeEdges(const Node &N, uint32_t Cont, EdgeList &E) {
    switch (N.Kind) {
    case Node::K::Code:
    case Node::K::Call:
      E.push_back({N.Block, Cont});
      break;
    case Node::K::Loop: {
      uint32_t BodyFirst = N.Body.empty() ? N.Latch : N.Body[0].Block;
      E.push_back({N.Block, BodyFirst});
      E.push_back({N.Block, Cont});
      seqEdges(N.Body, N.Latch, E);
      E.push_back({N.Latch, N.Block});
      break;
    }
    case Node::K::If: {
      uint32_t ThenFirst = N.Body.empty() ? Cont : N.Body[0].Block;
      uint32_t ElseFirst = N.Else.empty() ? Cont : N.Else[0].Block;
      E.push_back({N.Block, ThenFirst});
      E.push_back({N.Block, ElseFirst});
      seqEdges(N.Body, Cont, E);
      seqEdges(N.Else, Cont, E);
      break;
    }
    }
  }

  void seqEdges(const std::vector<Node> &Ns, uint32_t Cont, EdgeList &E) {
    for (size_t I = 0; I < Ns.size(); ++I)
      nodeEdges(Ns[I], I + 1 < Ns.size() ? Ns[I + 1].Block : Cont, E);
  }

  void genFunc(std::string &Out, uint32_t FuncId) {
    uint32_t EntryId = newId();
    std::string EntryAnnot;
    if (R.nextBool(0.5))
      EntryAnnot = " int=" + std::to_string(1 + R.nextBelow(4));

    bool Irr = O.InjectIrreducible && FuncId == 0;
    uint32_t Src = 0, Tgt = 0;
    std::vector<Node> Seq;
    if (Irr) {
      Seq = irrSeq(Src, Tgt);
    } else if (FuncId == 0 || !R.nextBool(0.08)) {
      // ~1 in 12 non-entry functions has an entirely empty body.
      uint32_t N = 1 + static_cast<uint32_t>(R.nextBelow(4));
      for (uint32_t I = 0; I < N; ++I)
        Seq.push_back(genNode(FuncId, 0));
    }
    uint32_t ExitId = newId();

    std::vector<std::string> BlockLines;
    BlockLines.push_back("block " + std::to_string(EntryId) + EntryAnnot);
    BlockLines.push_back("block " + std::to_string(ExitId));
    collectBlocks(Seq, BlockLines);

    EdgeList Edges;
    Edges.push_back({EntryId, Seq.empty() ? ExitId : Seq[0].Block});
    seqEdges(Seq, ExitId, Edges);
    if (Irr) {
      // The second edge out of X must land in X's edge group, right after
      // the structural one (then = loop header, else = body entry).
      for (size_t I = 0; I < Edges.size(); ++I)
        if (Edges[I].first == Src) {
          Edges.insert(Edges.begin() + static_cast<ptrdiff_t>(I) + 1,
                       {Src, Tgt});
          break;
        }
    }

    shuffle(BlockLines);
    // Group consecutive edges sharing a source (every source appears in
    // exactly one run of the walk), shuffle the groups, keep in-group
    // order: successor order on two-successor blocks is semantic.
    std::vector<EdgeList> Groups;
    for (const auto &E : Edges) {
      if (Groups.empty() || Groups.back().back().first != E.first)
        Groups.emplace_back();
      Groups.back().push_back(E);
    }
    shuffle(Groups);

    Out += "func " + std::to_string(FuncId) + " f" + std::to_string(FuncId) +
           "\n";
    Out += "entry " + std::to_string(EntryId) + "\n";
    for (const std::string &L : BlockLines)
      Out += L + "\n";
    for (const EdgeList &G : Groups)
      for (const auto &E : G)
        Out += "edge " + std::to_string(E.first) + " " +
               std::to_string(E.second) + "\n";
  }

  MemAccessSpec memSpec() {
    MemAccessSpec M;
    M.RegionIdx = static_cast<uint32_t>(R.nextBelow(NumRegions));
    M.Pat = static_cast<MemAccessSpec::Pattern>(R.nextBelow(4));
    M.IsStore = R.nextBool(0.4);
    M.Count = 1 + static_cast<uint32_t>(R.nextBelow(8));
    M.Stride = 8ull << R.nextBelow(4);
    M.Offset = R.nextBelow(4096);
    static constexpr uint32_t Fracs[] = {32, 64, 128, 256};
    M.WorkingSetFrac256 = Fracs[R.nextBelow(4)];
    return M;
  }

  TripCountSpec tripSpec() {
    switch (R.nextBelow(5)) {
    case 0:
      return TripCountSpec::constant(R.nextBelow(6)); // Includes zero-trip.
    case 1: {
      uint64_t Lo = R.nextBelow(2);
      return TripCountSpec::uniform(Lo, Lo + R.nextBelow(6));
    }
    case 2:
      return TripCountSpec::param(R.nextBool(0.5) ? "n" : "m",
                                  1 + R.nextBelow(2), 1 + R.nextBelow(2));
    case 3:
      return TripCountSpec::paramUniform("n", 1, 2, 1 + R.nextBelow(2));
    default: {
      std::vector<uint64_t> Vals;
      uint64_t N = 1 + R.nextBelow(4);
      for (uint64_t I = 0; I < N; ++I)
        Vals.push_back(R.nextBelow(7)); // Schedules may contain zeros.
      return TripCountSpec::schedule(std::move(Vals));
    }
    }
  }

  CondSpec condSpec() {
    switch (R.nextBelow(5)) {
    case 0:
      return CondSpec::bernoulli(0.0); // Never-taken arm.
    case 1:
      return CondSpec::bernoulli(1.0); // Always-taken arm.
    case 2:
      return CondSpec::bernoulli(R.nextDouble());
    default: {
      uint64_t Period = 1 + R.nextBelow(6);
      return CondSpec::periodic(Period, R.nextBelow(Period + 1));
    }
    }
  }

  /// Call-site flavors mirror irgen: unconditional strictly-forward calls,
  /// gated calls anywhere (bounded recursion at prob <= 0.45), and 2-3
  /// candidate dispatch sites, gated unless every candidate is forward.
  std::string callText(uint32_t FuncId) {
    bool HasForward = FuncId + 1 < NumFuncs;
    auto forward = [&] {
      return FuncId + 1 +
             static_cast<uint32_t>(R.nextBelow(NumFuncs - FuncId - 1));
    };
    auto any = [&] { return static_cast<uint32_t>(R.nextBelow(NumFuncs)); };

    std::vector<CallStmt::Candidate> Cands;
    double Prob = 1.0;
    bool RoundRobin = false;
    uint64_t Pick = R.nextBelow(100);
    if (Pick < 40 && HasForward) {
      Cands.push_back({forward(), 1});
    } else if (Pick < 70) {
      Cands.push_back({any(), 1});
      Prob = 0.1 + 0.35 * R.nextDouble();
    } else {
      uint64_t N = 2 + R.nextBelow(2);
      bool AllForward = true;
      for (uint64_t I = 0; I < N; ++I) {
        uint32_t Callee = (HasForward && R.nextBool(0.7)) ? forward() : any();
        AllForward = AllForward && Callee > FuncId;
        Cands.push_back({Callee, static_cast<uint32_t>(R.nextBelow(4))});
      }
      if (R.nextBool(0.2))
        for (auto &C : Cands)
          C.Weight = 0; // Zero-weight candidates are never drawn...
      // ...but verify() rejects a site whose weights sum to zero, so the
      // first candidate keeps the draw defined.
      uint32_t Total = 0;
      for (const auto &C : Cands)
        Total += C.Weight;
      if (Total == 0)
        Cands[0].Weight = 1;
      RoundRobin = R.nextBool(0.3);
      Prob = AllForward ? 1.0 : 0.1 + 0.35 * R.nextDouble();
    }
    return cfg::callSpecText(Cands, Prob, RoundRobin);
  }

  Rng R;
  Options O;
  uint32_t NumRegions = 1;
  uint32_t NumFuncs = 1;
  uint32_t NextRaw = 0;
};

} // namespace detail

/// Generates one spm-cfg v1 text document, deterministic in \p Seed.
inline std::string generateCfgText(uint64_t Seed, const Options &O = {}) {
  return detail::Generator(Seed, O).gen();
}

} // namespace cfggen
} // namespace spm

#endif // SPM_TESTS_CFGGEN_H
