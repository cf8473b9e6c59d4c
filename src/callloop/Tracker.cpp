//===- callloop/Tracker.cpp -----------------------------------------------==//

#include "callloop/Tracker.h"

using namespace spm;

// Out-of-line virtual method anchor.
TrackerListener::~TrackerListener() = default;

void CallLoopTracker::onRunStart(const Binary &Bin, const WorkloadInput &In) {
  (void)In;
  assert(&Bin == &B && "tracker bound to a different binary");
  (void)Bin;
  Stack.clear();
  Stack.push_back(Frame()); // Root context.
  ActiveDepth.assign(B.Funcs.size(), 0);

  // The entry function is "called" by the runtime: establish its episode.
  ActiveDepth[0] = 1;
  pushFrame(NodeKind::ProcHead, G.procHead(0), RootNode, -1, 0);
  pushFrame(NodeKind::ProcBody, G.procBody(0), G.procHead(0), -1, 0);
}

void CallLoopTracker::popExitedLoops(const LoweredBlock &Blk) {
  while (Stack.back().K == NodeKind::LoopBody) {
    const StaticLoop &SL = Loops.loop(Stack.back().LoopId);
    // Callee code never reaches here with caller loop frames on top: calls
    // interpose procedure frames. Assert rather than test.
    assert(SL.FuncId == Blk.FuncId &&
           "loop frame exposed under foreign function code");
    if (SL.contains(Blk.Addr))
      break;
    popFrame(); // LoopBody.
    assert(Stack.back().K == NodeKind::LoopHead &&
           "loop body frame without its head");
    popFrame(); // LoopHead.
  }
}

void CallLoopTracker::enterLoop(int32_t L, uint32_t FuncId) {
  pushFrame(NodeKind::LoopHead, G.loopHead(L), currentCtx(), L, FuncId);
  pushFrame(NodeKind::LoopBody, G.loopBody(L), G.loopHead(L), L, FuncId);
}

void CallLoopTracker::onCall(uint64_t SiteAddr, uint32_t Callee) {
  (void)SiteAddr;
  assert(Callee < ActiveDepth.size() && "call to unknown function");
  if (ActiveDepth[Callee]++ == 0)
    pushFrame(NodeKind::ProcHead, G.procHead(Callee), currentCtx(), -1,
              Callee);
  pushFrame(NodeKind::ProcBody, G.procBody(Callee), G.procHead(Callee), -1,
            Callee);
}

void CallLoopTracker::onReturn(uint32_t Callee) {
  assert(Stack.back().K == NodeKind::ProcBody &&
         Stack.back().FuncId == Callee &&
         "return does not match the active procedure body");
  popFrame(); // ProcBody.
  assert(ActiveDepth[Callee] > 0 && "return from inactive function");
  if (--ActiveDepth[Callee] == 0) {
    assert(Stack.back().K == NodeKind::ProcHead &&
           Stack.back().FuncId == Callee &&
           "episode end does not match the active procedure head");
    popFrame(); // ProcHead.
  }
}

void CallLoopTracker::onRunEnd(uint64_t TotalInstrs) {
  (void)TotalInstrs;
  // Normal termination leaves main's body/head; a truncated run (instruction
  // budget) can leave arbitrarily many frames. End them all so every begun
  // traversal is recorded.
  while (Stack.size() > 1)
    popFrame();
  ActiveDepth.assign(ActiveDepth.size(), 0);
}
