//===- vm/Fusion.cpp - Superop fusion over the bytecode tier --------------===//
//
// Part of the SPM project: reproduction of "Selecting Software Phase Markers
// with Code Structure Analysis" (CGO 2006).
//
//===----------------------------------------------------------------------===//

#include "vm/Fusion.h"

#include "support/Metrics.h"
#include "support/Trace.h"

#include <cassert>
#include <limits>

namespace spm {

namespace {

using u128 = unsigned __int128;

/// Declines to fuse any construct whose dynamic expansion exceeds this many
/// instructions, blocks, or memory accesses: tape totals must fit uint64
/// with headroom for the dispatch loop's budget-guard arithmetic.
constexpr u128 MaxTapeTotal = u128(1) << 62;

/// Per-site memory-access accumulator of a fragment: total dynamic accesses
/// (Rep multiplicities folded in) plus the spec fields the skip-table
/// emitter needs. One entry per site, first-touch order, so the emitted
/// skip table is deterministic.
struct SiteAcc {
  uint32_t Site = 0;
  MemAccessSpec::Pattern Pat = MemAccessSpec::Pattern::Sequential;
  uint64_t Stride = 0;
  u128 N = 0;
};

/// A parsed fragment of tape entries plus its dynamic totals. Back entries
/// index the fragment-local Branches table; splicing rebases them.
struct Frag {
  uint32_t End = 0; ///< One past the last op the fragment covers.
  std::vector<BcTapeEntryKind> K;
  std::vector<uint32_t> A, B;
  std::vector<BcTapeBranch> Branches;
  u128 Instrs = 0, Blocks = 0, Mem = 0;
  std::vector<SiteAcc> Sites;

  size_t entries() const { return K.size(); }
};

/// The N-th compositional power of the affine step S -> S * A + C (mod
/// 2^64): one Chase-pattern LCG advance. Used to bake "advance this chase
/// cursor N times" into a single multiply-add for the mem-skip path.
/// Square-and-multiply over affine composition; powers of one map commute,
/// so the usual LSB-first order is exact.
std::pair<uint64_t, uint64_t> affinePow(uint64_t A, uint64_t C, u128 N) {
  uint64_t RA = 1, RC = 0;
  uint64_t BA = A, BC = C;
  while (N) {
    if (N & 1) {
      RC = RC * BA + BC;
      RA = RA * BA;
    }
    BC = BC * BA + BC;
    BA = BA * BA;
    N >>= 1;
  }
  return {RA, RC};
}

class FusionBuilder {
public:
  FusionBuilder(const Binary &Bin, const BytecodeModule &M) : Bin(Bin), M(M) {}

  BcFusionOverlay build() {
    O.FusedOps = M.Ops;
    for (const BcFunc &Fn : M.Funcs)
      fuseRegion(Fn);
    return std::move(O);
  }

private:
  const Binary &Bin;
  const BytecodeModule &M;
  BcFusionOverlay O;

  void addSite(Frag &F, uint32_t Site, MemAccessSpec::Pattern Pat,
               uint64_t Stride, u128 N) {
    for (SiteAcc &S : F.Sites)
      if (S.Site == Site) {
        S.N += N;
        return;
      }
    F.Sites.push_back({Site, Pat, Stride, N});
  }

  void addBlock(Frag &F, uint32_t BlockId) {
    const LoweredBlock &Blk = Bin.Blocks[BlockId];
    F.K.push_back(BcTapeEntryKind::Block);
    F.A.push_back(BlockId);
    F.B.push_back(0);
    F.Instrs += Blk.NumInstrs;
    F.Blocks += 1;
    for (size_t I = 0; I < Blk.MemOps.size(); ++I) {
      const MemAccessSpec &Ms = Blk.MemOps[I];
      F.Mem += Ms.Count;
      // Point sites advance no cursor and need no skip entry.
      if (Ms.Pat != MemAccessSpec::Pattern::Point)
        addSite(F, Blk.FirstMemSite + static_cast<uint32_t>(I), Ms.Pat,
                Ms.Stride, Ms.Count);
    }
  }

  /// Appends \p Src's entries to \p Dst with branch indices rebased and the
  /// totals/site counts scaled by \p Mult (the dynamic multiplicity of the
  /// spliced body — 1 for straight-line splices, the trip count for a Rep
  /// body, whose entries are stored once but replayed Mult times).
  void splice(Frag &Dst, const Frag &Src, u128 Mult = 1) {
    const uint32_t BrBase = static_cast<uint32_t>(Dst.Branches.size());
    for (size_t I = 0; I < Src.K.size(); ++I) {
      Dst.K.push_back(Src.K[I]);
      Dst.A.push_back(Src.K[I] == BcTapeEntryKind::Back ? Src.A[I] + BrBase
                                                        : Src.A[I]);
      Dst.B.push_back(Src.B[I]);
    }
    Dst.Branches.insert(Dst.Branches.end(), Src.Branches.begin(),
                        Src.Branches.end());
    Dst.Instrs += Src.Instrs * Mult;
    Dst.Blocks += Src.Blocks * Mult;
    Dst.Mem += Src.Mem * Mult;
    for (const SiteAcc &S : Src.Sites)
      addSite(Dst, S.Site, S.Pat, S.Stride, S.N * Mult);
    Dst.End = Src.End;
  }

  /// Parses one fusable unit at \p Pc into \p F: a Block op, or a whole
  /// constant-trip loop whose body is itself entirely fusable (a zero-trip
  /// constant loop fuses away regardless of its body — it draws nothing and
  /// emits nothing). Returns false, leaving \p F unspecified, when the op
  /// at Pc must stay live. Every structural assumption about the loop
  /// layout is checked rather than trusted, so the builder stays total on
  /// any module that passes the base verifier — a shape it cannot parse is
  /// simply not fused.
  bool unit(uint32_t Pc, Frag &F) {
    const BcOp &Op = M.Ops[Pc];
    if (Op.Op == BcOpcode::Block) {
      addBlock(F, Op.A);
      F.End = Pc + 1;
      return true;
    }
    if (Op.Op != BcOpcode::LoopBegin)
      return false;
    const BcPayload &P = M.Payloads[Op.A];
    if (P.Trip.K != TripCountSpec::Kind::Constant)
      return false;
    const uint64_t Trip = P.Trip.Value;
    if (Trip == 0) {
      F.End = Op.B;
      return true;
    }
    if (Trip > std::numeric_limits<uint32_t>::max())
      return false; // Rep's trip operand is 32-bit; such loops stay live.

    // Expected layout (BcCompiler): LoopBegin / Block(header) / body... /
    // Block(latch) / LoopBack, with Op.B = LoopBack pc + 1.
    if (Op.B < Pc + 4)
      return false;
    const uint32_t BackPc = Op.B - 1;
    const uint32_t LatchPc = BackPc - 1;
    if (M.Ops[BackPc].Op != BcOpcode::LoopBack || M.Ops[BackPc].A != Op.A ||
        M.Ops[BackPc].B != Pc + 1)
      return false;
    if (M.Ops[Pc + 1].Op != BcOpcode::Block ||
        M.Ops[LatchPc].Op != BcOpcode::Block)
      return false;

    Frag Body;
    addBlock(Body, M.Ops[Pc + 1].A);
    Body.End = Pc + 2;
    while (Body.End < LatchPc) {
      Frag Sub;
      if (!unit(Body.End, Sub) || Sub.End > LatchPc)
        return false;
      splice(Body, Sub);
    }
    addBlock(Body, M.Ops[LatchPc].A);
    // The back-branch record mirrors the live LoopBack's emission: latch
    // terminator -> header address, both from the loop payload.
    Body.K.push_back(BcTapeEntryKind::Back);
    Body.A.push_back(static_cast<uint32_t>(Body.Branches.size()));
    Body.B.push_back(0);
    Body.Branches.push_back({Bin.Blocks[P.LatchBlock].termAddr(),
                             Bin.Blocks[P.HeaderBlock].Addr});

    if (Body.Instrs * Trip > MaxTapeTotal ||
        Body.Blocks * Trip > MaxTapeTotal || Body.Mem * Trip > MaxTapeTotal)
      return false;

    F.K.push_back(BcTapeEntryKind::Rep);
    F.A.push_back(static_cast<uint32_t>(Trip));
    F.B.push_back(static_cast<uint32_t>(Body.entries()));
    splice(F, Body, Trip);
    F.End = Op.B;
    return true;
  }

  void fuseRegion(const BcFunc &Fn) {
    uint32_t Pc = Fn.EntryPc;
    while (Pc < Fn.EndPc) { // EndPc is the Ret op — never fusable.
      Frag Run;
      Run.End = Pc;
      for (;;) {
        if (Run.End >= Fn.EndPc)
          break;
        Frag F;
        if (!unit(Run.End, F))
          break;
        if (Run.Instrs + F.Instrs > MaxTapeTotal ||
            Run.Blocks + F.Blocks > MaxTapeTotal ||
            Run.Mem + F.Mem > MaxTapeTotal)
          break;
        splice(Run, F);
      }
      // A tape pays for itself once it covers two or more ops (a lone Block
      // op replays cheaper through its live op). Zero-entry runs (a fused
      // zero-trip loop) still cover >= 4 ops and collapse to a single jump.
      if (Run.End - Pc >= 2) {
        emitTape(Pc, Run);
        Pc = Run.End;
      } else {
        Pc = std::max(Run.End, Pc + 1);
      }
    }
  }

  void emitTape(uint32_t StartPc, Frag &Run) {
    BcTape T;
    T.StartPc = StartPc;
    T.EndPc = Run.End;
    T.First = static_cast<uint32_t>(O.TapeKinds.size());
    T.Count = static_cast<uint32_t>(Run.entries());
    const uint32_t BrBase = static_cast<uint32_t>(O.TapeBranches.size());
    for (size_t I = 0; I < Run.K.size(); ++I) {
      O.TapeKinds.push_back(Run.K[I]);
      O.TapeA.push_back(Run.K[I] == BcTapeEntryKind::Back ? Run.A[I] + BrBase
                                                          : Run.A[I]);
      O.TapeB.push_back(Run.B[I]);
      if (Run.K[I] == BcTapeEntryKind::Rep)
        ++T.NumReps;
    }
    O.TapeBranches.insert(O.TapeBranches.end(), Run.Branches.begin(),
                          Run.Branches.end());

    T.FirstSkip = static_cast<uint32_t>(O.TapeSkips.size());
    for (const SiteAcc &S : Run.Sites) {
      BcTapeSkip Sk;
      Sk.Site = S.Site;
      Sk.Pat = S.Pat;
      // All three cursor kinds advance in a ring mod 2^64, so folding the
      // access count mod 2^64 into one update is exact (Chase composes the
      // full 128-bit count through affinePow).
      const uint64_t N = static_cast<uint64_t>(S.N);
      switch (S.Pat) {
      case MemAccessSpec::Pattern::Sequential:
        Sk.A0 = S.Stride * N;
        break;
      case MemAccessSpec::Pattern::Random:
        Sk.A0 = 0x9e3779b97f4a7c15ULL * N; // emitMemRunsT's counter gamma.
        break;
      case MemAccessSpec::Pattern::Chase: {
        auto AP = affinePow(6364136223846793005ULL, 1442695040888963407ULL,
                            S.N); // emitMemRunsT's chase LCG.
        Sk.A0 = AP.first;
        Sk.A1 = AP.second;
        break;
      }
      case MemAccessSpec::Pattern::Point:
        continue; // Unreachable: Point sites are filtered at addSite.
      }
      O.TapeSkips.push_back(Sk);
    }
    T.NumSkips = static_cast<uint32_t>(O.TapeSkips.size()) - T.FirstSkip;

    T.TotalInstrs = static_cast<uint64_t>(Run.Instrs);
    T.TotalBlocks = static_cast<uint64_t>(Run.Blocks);
    T.TotalMem = static_cast<uint64_t>(Run.Mem);
    O.FusedOps[StartPc] = {BcOpcode::Tape,
                           static_cast<uint32_t>(O.Tapes.size()), Run.End};
    O.Tapes.push_back(T);
  }
};

} // namespace

BcFusionOverlay computeFusionOverlay(const Binary &B,
                                     const BytecodeModule &M) {
  return FusionBuilder(B, M).build();
}

BytecodeModule fuseBytecode(const Binary &B, BytecodeModule M) {
  SPM_TRACE_SPAN("vm.bc_fuse");
  BcFusionOverlay O = computeFusionOverlay(B, M);
  M.FusedOps = std::move(O.FusedOps);
  M.Tapes = std::move(O.Tapes);
  M.TapeKinds = std::move(O.TapeKinds);
  M.TapeA = std::move(O.TapeA);
  M.TapeB = std::move(O.TapeB);
  M.TapeBranches = std::move(O.TapeBranches);
  M.TapeSkips = std::move(O.TapeSkips);
  if (spmTraceEnabled()) {
    metrics().counter("vm.bc_fusions").forceAdd(1);
    metrics().counter("vm.bc_tapes").forceAdd(M.Tapes.size());
    metrics().counter("vm.bc_tape_entries").forceAdd(M.TapeKinds.size());
  }
  return M;
}

} // namespace spm
