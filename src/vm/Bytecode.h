//===- vm/Bytecode.h - Flat bytecode execution tier -------------*- C++ -*-===//
//
// Part of the SPM project: reproduction of "Selecting Software Phase Markers
// with Code Structure Analysis" (CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The bytecode execution tier: a Binary's recursive exec tree lowered to a
/// flat, cache-dense op array that the interpreter dispatches with a plain
/// PC loop instead of a tree walk. The event stream an observer sees is
/// byte-identical to run()/runFast() by construction — the bytecode encodes
/// the *same* visit order, RNG-draw order, and per-site cursor usage; only
/// the control-flow machinery (recursion, child vectors, per-node switch)
/// is replaced. Differential fuzz suites in tests/bytecodefuzz_test.cpp
/// hold the tiers to that contract on hundreds of generated programs.
///
/// Layout: functions are compiled in id order into one contiguous op array.
/// Each function is [entry Block] body ops... [exit Block] [Ret]; a Ret with
/// an empty call stack terminates the program (so function 0 needs no
/// special halt op and may even be called recursively). Constructs compile
/// to:
///
///   Code           Block(blk)
///   Loop           LoopBegin(p, end) / Block(header) / body... /
///                  Block(latch) / LoopBack(p, bodyTop)
///   If             Block(cond) / IfBegin(p, elsePc) / then... /
///                  [Jump(end)] / else...
///   Call           Block(site) / Call(p, capture)
///
/// Cold payloads (trip/cond specs, call candidate lists) live out-of-line in
/// a tagged payload table; the hot ops are 12 bytes each.
///
/// Safepoints: every Block op carries a capture descriptor that, combined
/// with the runtime call/loop stacks, maps the bytecode PC back to the
/// exact ResumeFrame stack the tree walk would have captured at the same
/// block boundary. Checkpoints are therefore interchangeable between tiers:
/// a segment suspended under the bytecode tier resumes under runFast (and
/// vice versa) and the concatenated event streams stay byte-identical.
/// See docs/bytecode.md for the full format and verifier invariants.
///
//===----------------------------------------------------------------------===//

#ifndef SPM_VM_BYTECODE_H
#define SPM_VM_BYTECODE_H

#include "ir/Binary.h"
#include "vm/Checkpoint.h"

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace spm {

/// Opcodes of the flat execution tier.
enum class BcOpcode : uint8_t {
  Block,     ///< A = global block id, B = capture descriptor index.
             ///  Emits the block event + its memory runs; the only op that
             ///  retires instructions, and therefore the only safepoint.
  LoopBegin, ///< A = payload (Loop), B = pc past the loop. Draws the trip
             ///  count; pushes a loop-stack entry or skips a zero-trip loop.
  LoopBack,  ///< A = payload (Loop), B = pc of the loop body top. Emits the
             ///  backward branch event; advances or closes the iteration.
  IfBegin,   ///< A = payload (If), B = pc of the else arm (== join pc when
             ///  the else arm is empty). Draws the outcome; emits the
             ///  forward branch event.
  Jump,      ///< B = target pc. Unconditional (end of a then arm).
  Call,      ///< A = payload (Call), B = capture descriptor index. Runs the
             ///  call tail: probability gate, depth cap, callee selection,
             ///  call event, frame push.
  Ret,       ///< Ends a function: emits the return event and pops, or — on
             ///  an empty call stack — terminates the program.
  Tape,      ///< A = tape index, B = pc past the fused region. Present only
             ///  in a fused module's FusedOps overlay (never in Ops): replays
             ///  the precompiled event tape when the remaining instruction
             ///  budget strictly exceeds the tape's total, else falls back to
             ///  the original op at this pc (see docs/bytecode.md).
};

/// One bytecode op. Kept to 12 bytes so hot loop bodies fit in a few cache
/// lines; anything bigger than two scalars goes through the payload table.
struct BcOp {
  BcOpcode Op = BcOpcode::Ret;
  uint32_t A = 0;
  uint32_t B = 0;
};

/// Out-of-line payload of a LoopBegin/LoopBack, IfBegin, or Call op. Tagged
/// with the exec-node kind it was compiled from so the verifier can reject
/// an op whose payload index points at the wrong kind.
struct BcPayload {
  ExecNode::Kind K = ExecNode::Kind::Code;

  // Loop (K == Loop).
  TripCountSpec Trip;
  uint32_t TripSite = 0;
  uint32_t HeaderBlock = 0;
  uint32_t LatchBlock = 0;
  /// Branch-event addresses cached at compile time so the hot LoopBack
  /// handler touches no LoweredBlock. verify() pins them to the Binary.
  uint64_t LatchTermAddr = 0; ///< == B.block(LatchBlock).termAddr()
  uint64_t HeaderAddr = 0;    ///< == B.block(HeaderBlock).Addr

  // If (K == If).
  CondSpec Cond;
  uint32_t CondSite = 0;
  uint32_t CondBlock = 0;
  uint64_t CondTermAddr = 0;   ///< == B.block(CondBlock).termAddr()
  uint64_t CondTargetAddr = 0; ///< == B.block(CondBlock).Term.TargetAddr

  // Call (K == Call).
  std::vector<CallStmt::Candidate> Candidates;
  double CallProb = 1.0;
  bool RoundRobin = false;
  uint32_t RRSite = 0;
  uint32_t SiteBlock = 0;
  uint64_t SiteTermAddr = 0; ///< == B.block(SiteBlock).termAddr()
};

/// One static frame of a capture descriptor: the part of a ResumeFrame that
/// is known at compile time. Loop trips/iterations come from the runtime
/// loop stack; a path-ending Call frame's callee comes from the call stack.
struct BcFrameTpl {
  ResumeFrame::Kind K = ResumeFrame::Kind::Seq;
  uint8_t Step = 0;
  uint32_t Id = 0;    ///< Seq: child index. Call/Func: see Step.
  bool Flag = false;  ///< If StepBody: which arm the block is in.
};

/// Capture descriptor: maps a PC back to the suspended-position frames the
/// tree walk would record at the same boundary. Block ops describe the path
/// from the current function's root to the block; Call ops describe the
/// path to the call site (ending in a Call frame whose callee is dynamic).
struct BcCapture {
  /// Step of the enclosing Func frame (StepEntry / StepBody / StepExit).
  uint8_t FuncStep = ResumeFrame::StepBody;
  /// Frames below the Func frame, outermost-first: alternating Seq (child
  /// index) and construct frames, ending at the block's own frame. Empty
  /// for function entry/exit blocks.
  std::vector<BcFrameTpl> Path;
  /// Number of Loop frames in Path — consumed in order from the runtime
  /// loop stack on capture.
  uint32_t NumLoops = 0;
};

/// Resume index for one compiled exec node: where its ops landed. Used only
/// by checkpoint resume (never by the dispatch loop) to translate a
/// ResumeFrame stack into a PC + runtime stacks.
struct BcNodeIndex {
  ExecNode::Kind K = ExecNode::Kind::Code;
  uint32_t BlockPc = 0; ///< Code: the block; Loop: header; If: cond;
                        ///  Call: site — always a Block op.
  uint32_t AuxPc = 0;   ///< Loop: LoopBack; If: IfBegin; Call: Call op.
  std::vector<uint32_t> Children;     ///< Node ordinals (loop body / then).
  std::vector<uint32_t> ElseChildren; ///< Node ordinals (else).
};

/// Per-function compiled region.
struct BcFunc {
  uint32_t EntryPc = 0; ///< The entry Block op (first op of the region).
  uint32_t ExitPc = 0;  ///< The exit Block op.
  uint32_t EndPc = 0;   ///< The Ret op (last op of the region).
  std::vector<uint32_t> Body; ///< Node ordinals of the function body.
};

//===----------------------------------------------------------------------===//
// Fusion overlay: superops + precompiled event tapes (see fuseBytecode).
//===----------------------------------------------------------------------===//

/// Kind of one precompiled tape entry. Entries live in the module's SoA
/// arrays (TapeKinds / TapeA / TapeB); a tape is a [First, First+Count)
/// slice of them.
enum class BcTapeEntryKind : uint8_t {
  Block, ///< A = global block id. Emits the block event and, when the
         ///  observer consumes memory events, the block's memory runs
         ///  (patched live from the per-site cursors; otherwise cursor
         ///  advances are applied in bulk from the tape's skip table).
  Back,  ///< A = index into TapeBranches. Emits the loop back-branch of the
         ///  innermost enclosing Rep: taken while iterations remain.
  Rep,   ///< A = constant trip count (>= 1), B = number of following
         ///  entries forming the body. Replays the body A times — a
         ///  constant-trip loop fused into a superop.
};

/// Precomputed operands of a Back entry's branch record: the latch block's
/// terminator address and the header block's address, both static in the
/// binary the module was compiled from.
struct BcTapeBranch {
  uint64_t Pc = 0;
  uint64_t Target = 0;
};

/// Aggregated per-site cursor advance for one full tape replay, used when
/// the observer provably ignores memory events: instead of walking every
/// block's memory ops per visit, the dispatch loop applies one precomputed
/// update per site touched by the tape (constant-loop multiplicities folded
/// in at fusion time). Point sites advance nothing and get no entry.
struct BcTapeSkip {
  uint32_t Site = 0;
  MemAccessSpec::Pattern Pat = MemAccessSpec::Pattern::Sequential;
  uint64_t A0 = 0; ///< Sequential: total SeqPos advance. Random: total
                   ///  counter delta. Chase: LCG multiplier of the composed
                   ///  affine step (state' = state * A0 + A1 mod 2^64).
  uint64_t A1 = 0; ///< Chase: addend of the composed affine step.
};

/// One precompiled event tape: the statically-determined event subsequence
/// of the op run [StartPc, EndPc), baked into tape entries at fusion time.
/// Totals are the full dynamic expansion (Rep multiplicities included) —
/// the dispatch loop replays a tape only when the remaining instruction
/// budget strictly exceeds TotalInstrs, so a suspension can never land
/// mid-tape and safepoint behaviour is bit-identical to the unfused tier.
struct BcTape {
  uint32_t StartPc = 0;   ///< First op covered (the Tape op's pc).
  uint32_t EndPc = 0;     ///< One past the last op covered.
  uint32_t First = 0;     ///< First entry in the tape-entry SoA arrays.
  uint32_t Count = 0;     ///< Number of entries.
  uint32_t FirstSkip = 0; ///< First entry in TapeSkips.
  uint32_t NumSkips = 0;
  uint32_t NumReps = 0;   ///< Rep entries in [First, First+Count). A tape
                          ///  with none is flat (Block entries only) and
                          ///  replays through the dispatch loop's inlined
                          ///  fast path instead of the rep-stack walker.
  uint64_t TotalInstrs = 0;
  uint64_t TotalBlocks = 0;
  uint64_t TotalMem = 0;
};

inline bool operator==(const BcOp &L, const BcOp &R) {
  return L.Op == R.Op && L.A == R.A && L.B == R.B;
}
inline bool operator==(const BcTapeBranch &L, const BcTapeBranch &R) {
  return L.Pc == R.Pc && L.Target == R.Target;
}
inline bool operator==(const BcTapeSkip &L, const BcTapeSkip &R) {
  return L.Site == R.Site && L.Pat == R.Pat && L.A0 == R.A0 && L.A1 == R.A1;
}
inline bool operator==(const BcTape &L, const BcTape &R) {
  return L.StartPc == R.StartPc && L.EndPc == R.EndPc && L.First == R.First &&
         L.Count == R.Count && L.FirstSkip == R.FirstSkip &&
         L.NumSkips == R.NumSkips && L.NumReps == R.NumReps &&
         L.TotalInstrs == R.TotalInstrs && L.TotalBlocks == R.TotalBlocks &&
         L.TotalMem == R.TotalMem;
}

/// Verification memo (see Interpreter::requireVerified): the Binary a
/// successful verify() ran against, so segment chains re-entering
/// runBytecodeSegment per segment pay the O(module) structural check once
/// per (module, binary) instead of once per segment. Copies and moves reset
/// the memo — a copied module has not been verified. The benign case of two
/// threads verifying the same (module, binary) concurrently stores the same
/// pointer twice; the atomic keeps that race clean under TSan.
struct BcVerifyToken {
  mutable std::atomic<const void *> V{nullptr};
  BcVerifyToken() = default;
  BcVerifyToken(const BcVerifyToken &) noexcept {}
  BcVerifyToken(BcVerifyToken &&) noexcept {}
  BcVerifyToken &operator=(const BcVerifyToken &) noexcept { return *this; }
  BcVerifyToken &operator=(BcVerifyToken &&) noexcept { return *this; }
};

/// A compiled module: everything the dispatch loop and the checkpoint
/// mapper need, self-contained (does not alias the Binary's exec tree, but
/// block/site ids still index into the Binary it was compiled from).
struct BytecodeModule {
  std::vector<BcOp> Ops;
  std::vector<BcPayload> Payloads;
  std::vector<BcCapture> Captures;
  std::vector<BcNodeIndex> Nodes;
  std::vector<BcFunc> Funcs;

  /// Fusion overlay (fuseBytecode; empty on an unfused module). FusedOps
  /// parallels Ops exactly: every pc that starts a precompiled tape holds a
  /// Tape op, every other pc is byte-identical to Ops. The dispatch loop
  /// reads FusedOps when present; Captures/Nodes/Funcs (and therefore the
  /// whole cross-tier checkpoint mapping) are untouched by fusion, and a
  /// checkpoint resume that lands mid-tape simply executes the remainder of
  /// that construct through the identical original ops.
  std::vector<BcOp> FusedOps;
  std::vector<BcTape> Tapes;
  std::vector<BcTapeEntryKind> TapeKinds;
  std::vector<uint32_t> TapeA;
  std::vector<uint32_t> TapeB;
  std::vector<BcTapeBranch> TapeBranches;
  std::vector<BcTapeSkip> TapeSkips;

  /// True when the fusion pass has installed an overlay.
  bool fused() const { return !FusedOps.empty(); }

  /// Verification memo; see BcVerifyToken.
  BcVerifyToken Verified;

  /// Structural counts of the source binary, recorded at compile time so
  /// verify() can cross-check the module against the binary it will run on.
  uint32_t NumBlocks = 0;
  uint32_t NumTripSites = 0;
  uint32_t NumCondSites = 0;
  uint32_t NumRRSites = 0;

  /// Structurally verifies the module against \p B: region layout (ops form
  /// a contiguous per-function partition with no trailing garbage), every
  /// jump target in range and inside its function, every block/site id
  /// within the binary's tables, every payload index in range and of the
  /// kind its op requires, and every capture/resume index well-formed.
  /// Returns false and fills \p Error (when non-null) with a diagnostic on
  /// the first violation. The interpreter refuses to execute a module that
  /// fails this check, so a malformed module is rejected, never executed.
  bool verify(const Binary &B, std::string *Error = nullptr) const;
};

/// Compiles \p B's exec tree into a bytecode module. The result passes
/// verify(B) by construction (asserted in debug builds by the callers that
/// care) and is immutable afterwards: one module may be shared by any
/// number of concurrently-running interpreters.
BytecodeModule compileBytecode(const Binary &B);

/// Runtime control state of the bytecode dispatch loop: the PC plus the
/// explicit loop and call stacks that replace the tree walk's recursion.
/// A suspended state always has Pc at a Block op (the only safepoint).
struct BcExecState {
  struct LoopEntry {
    uint64_t Trip = 0; ///< Drawn once at LoopBegin.
    uint64_t Iter = 0; ///< Current iteration, 0-based.
  };
  struct CallEntry {
    uint32_t ReturnPc = 0; ///< Op after the Call op.
    uint32_t Callee = 0;   ///< Selected callee function id.
    uint32_t Capture = 0;  ///< Capture descriptor of the Call op.
  };
  uint32_t Pc = 0;
  std::vector<LoopEntry> Loops; ///< Innermost last, across call levels.
  std::vector<CallEntry> Calls; ///< Size == dynamic call depth.
};

/// Maps a suspended dispatch state (PC at a Block op plus runtime stacks)
/// to the ResumeFrame stack the tree walk would capture at the same
/// boundary, appending outermost-first to \p Out. The module must have
/// passed verify() and \p St must be a state bcDispatchT suspended at.
void captureResumeFrames(const BytecodeModule &M, const BcExecState &St,
                         std::vector<ResumeFrame> &Out);

/// Inverse mapping: positions \p Out at the bytecode location addressed by
/// a ResumeFrame stack (as recorded by either tier) — PC of the next op to
/// dispatch plus rebuilt loop/call stacks. Returns false (with a diagnostic
/// in \p Error when non-null) when the frames do not address this module.
bool resolveResumePoint(const BytecodeModule &M,
                        const std::vector<ResumeFrame> &Frames,
                        BcExecState &Out, std::string *Error = nullptr);

} // namespace spm

#endif // SPM_VM_BYTECODE_H
