//===- vm/Observer.h - Execution instrumentation interface ------*- C++ -*-===//
//
// Part of the SPM project: reproduction of "Selecting Software Phase Markers
// with Code Structure Analysis" (CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// ExecutionObserver is this project's ATOM: a binary-instrumentation event
/// stream. The paper's analyses consume exactly these events — basic block
/// executions with instruction counts, memory accesses, branches (with
/// direction), calls, and returns. Everything downstream (call-loop
/// profiling, BBV collection, cache simulation, marker firing) is an
/// observer; ObserverMux fans one execution out to many of them so a single
/// simulated run feeds every analysis at once.
///
/// The second half of the header is the static-dispatch layer the
/// interpreter's emitter is built on: ObserverTraits detects which handlers
/// a type provides itself, the dispatch* helpers call exactly those, and
/// StaticMux<Os...> is the compile-time sibling of ObserverMux.
///
//===----------------------------------------------------------------------===//

#ifndef SPM_VM_OBSERVER_H
#define SPM_VM_OBSERVER_H

#include "ir/Binary.h"
#include "ir/Input.h"

#include <cstdint>
#include <tuple>
#include <type_traits>
#include <vector>

namespace spm {

/// Receives instrumentation events from the interpreter. Handlers default
/// to no-ops so observers override only what they need.
class ExecutionObserver {
public:
  virtual ~ExecutionObserver();

  /// Execution is starting on \p B with input \p In.
  virtual void onRunStart(const Binary &B, const WorkloadInput &In) {
    (void)B;
    (void)In;
  }

  /// Block \p Blk is about to execute (all of its instructions retire, then
  /// its memory accesses and terminator events follow).
  virtual void onBlock(const LoweredBlock &Blk) { (void)Blk; }

  /// A data access to \p Addr (load when !IsStore).
  virtual void onMemAccess(uint64_t Addr, bool IsStore) {
    (void)Addr;
    (void)IsStore;
  }

  /// A branch at \p Pc targeting \p Target executed. \p Backward is true
  /// for non-interprocedural backward branches (the paper's loop signal).
  virtual void onBranch(uint64_t Pc, uint64_t Target, bool Taken,
                        bool Backward, bool Conditional) {
    (void)Pc;
    (void)Target;
    (void)Taken;
    (void)Backward;
    (void)Conditional;
  }

  /// Call from site \p SiteAddr to function \p Callee (entry block follows).
  virtual void onCall(uint64_t SiteAddr, uint32_t Callee) {
    (void)SiteAddr;
    (void)Callee;
  }

  /// Function \p Callee returned (its exit block was just executed).
  virtual void onReturn(uint32_t Callee) { (void)Callee; }

  /// Execution finished after \p TotalInstrs retired instructions.
  virtual void onRunEnd(uint64_t TotalInstrs) { (void)TotalInstrs; }
};

/// Broadcasts each event to a list of observers in registration order, so
/// each event reaches every observer before the next event is delivered.
/// Order matters: e.g. the call-loop tracker must see a block before the
/// interval builder accounts it, so marker-driven cuts land between them.
class ObserverMux : public ExecutionObserver {
public:
  ObserverMux() = default;
  explicit ObserverMux(std::vector<ExecutionObserver *> List)
      : Obs(std::move(List)) {}

  /// Appends \p O (not owned) to the broadcast list.
  void add(ExecutionObserver *O) { Obs.push_back(O); }

  void onRunStart(const Binary &B, const WorkloadInput &In) override {
    for (auto *O : Obs)
      O->onRunStart(B, In);
  }
  void onBlock(const LoweredBlock &Blk) override {
    for (auto *O : Obs)
      O->onBlock(Blk);
  }
  void onMemAccess(uint64_t Addr, bool IsStore) override {
    for (auto *O : Obs)
      O->onMemAccess(Addr, IsStore);
  }
  void onBranch(uint64_t Pc, uint64_t Target, bool Taken, bool Backward,
                bool Conditional) override {
    for (auto *O : Obs)
      O->onBranch(Pc, Target, Taken, Backward, Conditional);
  }
  void onCall(uint64_t SiteAddr, uint32_t Callee) override {
    for (auto *O : Obs)
      O->onCall(SiteAddr, Callee);
  }
  void onReturn(uint32_t Callee) override {
    for (auto *O : Obs)
      O->onReturn(Callee);
  }
  void onRunEnd(uint64_t TotalInstrs) override {
    for (auto *O : Obs)
      O->onRunEnd(TotalInstrs);
  }

private:
  std::vector<ExecutionObserver *> Obs;
};

//===----------------------------------------------------------------------===//
// Static-dispatch traits and helpers
//===----------------------------------------------------------------------===//

/// Compile-time facts about a concrete observer type: which handlers it
/// provides *itself* (as opposed to inheriting the ExecutionObserver
/// no-ops). A handler inherited from ExecutionObserver has pointer-to-member
/// type `void (ExecutionObserver::*)(...)`, an overridden or own handler has
/// the derived class in that position — which is what lets the emitter drop
/// whole event kinds an observer ignores. Types that do not derive from
/// ExecutionObserver (StaticMux, custom sinks) simply provide the handlers
/// they want; missing ones count as "not handled".
///
/// onMemRun(const uint64_t *Addrs, uint32_t Count, bool IsStore) is the
/// optional bulk form of onMemAccess: one call per lowered MemAccessSpec's
/// run of accesses. ExecutionObserver has no such handler, so any one found
/// is the type's own.
template <class Obs> struct ObserverTraits {
  template <class M, class Base>
  static constexpr bool ownImpl =
      !std::is_same_v<M, Base>; // Derived-typed pointer => own handler.

  static constexpr bool OwnRunStart = requires {
    requires ownImpl<decltype(&Obs::onRunStart),
                     void (ExecutionObserver::*)(const Binary &,
                                                 const WorkloadInput &)>;
  };
  static constexpr bool OwnBlock = requires {
    requires ownImpl<decltype(&Obs::onBlock),
                     void (ExecutionObserver::*)(const LoweredBlock &)>;
  };
  static constexpr bool OwnMemAccess = requires {
    requires ownImpl<decltype(&Obs::onMemAccess),
                     void (ExecutionObserver::*)(uint64_t, bool)>;
  };
  static constexpr bool OwnMemRun = requires { &Obs::onMemRun; };
  static constexpr bool OwnBranch = requires {
    requires ownImpl<decltype(&Obs::onBranch),
                     void (ExecutionObserver::*)(uint64_t, uint64_t, bool,
                                                 bool, bool)>;
  };
  static constexpr bool OwnCall = requires {
    requires ownImpl<decltype(&Obs::onCall),
                     void (ExecutionObserver::*)(uint64_t, uint32_t)>;
  };
  static constexpr bool OwnReturn = requires {
    requires ownImpl<decltype(&Obs::onReturn),
                     void (ExecutionObserver::*)(uint32_t)>;
  };
  static constexpr bool OwnRunEnd = requires {
    requires ownImpl<decltype(&Obs::onRunEnd),
                     void (ExecutionObserver::*)(uint64_t)>;
  };
};

/// The polymorphic base itself, which Interpreter::run() instantiates the
/// emitter on: the dynamic type may override any handler, so every one
/// counts as owned and is called virtually (see the dispatch helpers).
/// onMemRun is not part of the virtual interface, so memory accesses
/// arrive one onMemAccess call at a time.
template <> struct ObserverTraits<ExecutionObserver> {
  static constexpr bool OwnRunStart = true;
  static constexpr bool OwnBlock = true;
  static constexpr bool OwnMemAccess = true;
  static constexpr bool OwnMemRun = false;
  static constexpr bool OwnBranch = true;
  static constexpr bool OwnCall = true;
  static constexpr bool OwnReturn = true;
  static constexpr bool OwnRunEnd = true;
};

// Handler dispatch. A concrete observer's handler is called qualified
// (O.Obs::handler), which suppresses virtual dispatch, so \p Obs must be the
// most-derived type of the object — which it is for the concrete observers
// the fast paths name. ExecutionObserver itself is called virtually: a
// qualified call would bind to the base no-ops and drop every event.

template <class Obs>
inline constexpr bool IsObserverBase = std::is_same_v<Obs, ExecutionObserver>;

template <class Obs>
inline void dispatchRunStart(Obs &O, const Binary &B,
                             const WorkloadInput &In) {
  if constexpr (IsObserverBase<Obs>)
    O.onRunStart(B, In);
  else if constexpr (ObserverTraits<Obs>::OwnRunStart)
    O.Obs::onRunStart(B, In);
}

template <class Obs>
inline void dispatchBlock(Obs &O, const LoweredBlock &Blk) {
  if constexpr (IsObserverBase<Obs>)
    O.onBlock(Blk);
  else if constexpr (ObserverTraits<Obs>::OwnBlock)
    O.Obs::onBlock(Blk);
}

template <class Obs>
inline void dispatchMemAccess(Obs &O, uint64_t Addr, bool IsStore) {
  if constexpr (IsObserverBase<Obs>)
    O.onMemAccess(Addr, IsStore);
  else if constexpr (ObserverTraits<Obs>::OwnMemAccess)
    O.Obs::onMemAccess(Addr, IsStore);
}

/// Delivers a run of accesses in bulk when \p Obs has onMemRun, else one
/// access at a time.
template <class Obs>
inline void dispatchMemRun(Obs &O, const uint64_t *Addrs, uint32_t Count,
                           bool IsStore) {
  if constexpr (ObserverTraits<Obs>::OwnMemRun)
    O.Obs::onMemRun(Addrs, Count, IsStore);
  else if constexpr (ObserverTraits<Obs>::OwnMemAccess)
    for (uint32_t I = 0; I < Count; ++I)
      dispatchMemAccess(O, Addrs[I], IsStore);
}

template <class Obs>
inline void dispatchBranch(Obs &O, uint64_t Pc, uint64_t Target, bool Taken,
                           bool Backward, bool Conditional) {
  if constexpr (IsObserverBase<Obs>)
    O.onBranch(Pc, Target, Taken, Backward, Conditional);
  else if constexpr (ObserverTraits<Obs>::OwnBranch)
    O.Obs::onBranch(Pc, Target, Taken, Backward, Conditional);
}

template <class Obs>
inline void dispatchCall(Obs &O, uint64_t SiteAddr, uint32_t Callee) {
  if constexpr (IsObserverBase<Obs>)
    O.onCall(SiteAddr, Callee);
  else if constexpr (ObserverTraits<Obs>::OwnCall)
    O.Obs::onCall(SiteAddr, Callee);
}

template <class Obs> inline void dispatchReturn(Obs &O, uint32_t Callee) {
  if constexpr (IsObserverBase<Obs>)
    O.onReturn(Callee);
  else if constexpr (ObserverTraits<Obs>::OwnReturn)
    O.Obs::onReturn(Callee);
}

template <class Obs> inline void dispatchRunEnd(Obs &O, uint64_t Total) {
  if constexpr (IsObserverBase<Obs>)
    O.onRunEnd(Total);
  else if constexpr (ObserverTraits<Obs>::OwnRunEnd)
    O.Obs::onRunEnd(Total);
}

/// Whether \p Obs consumes memory-access events at all. StaticMux exposes
/// the aggregate over its members as AnyMem; plain observers are probed via
/// ObserverTraits. When false, the interpreter skips materializing
/// addresses altogether (see Interpreter::skipAccesses).
template <class Obs> constexpr bool wantsMemEvents() {
  if constexpr (requires { Obs::AnyMem; })
    return Obs::AnyMem;
  else
    return ObserverTraits<Obs>::OwnMemRun || ObserverTraits<Obs>::OwnMemAccess;
}

/// A compile-time observer pipeline: forwards every event to each observer
/// in declaration order with statically-bound calls. The drop-in
/// devirtualized replacement for an ObserverMux whose member set is known
/// at the call site. Usable directly as an Interpreter::runFast() sink.
template <class... Os> class StaticMux {
public:
  /// True when any member consumes memory accesses (see wantsMemEvents).
  static constexpr bool AnyMem =
      ((ObserverTraits<Os>::OwnMemRun || ObserverTraits<Os>::OwnMemAccess) ||
       ...);
  /// How many members consume memory accesses; decides whether mem runs
  /// can be fanned out run-at-a-time (<= 1) or must interleave per address
  /// to preserve the ObserverMux ordering contract (>= 2).
  static constexpr int NumMem =
      (int{ObserverTraits<Os>::OwnMemRun || ObserverTraits<Os>::OwnMemAccess} +
       ... + 0);

  explicit StaticMux(Os &...O) : Obs(O...) {}

  void onRunStart(const Binary &B, const WorkloadInput &In) {
    std::apply([&](Os &...O) { (dispatchRunStart(O, B, In), ...); }, Obs);
  }
  void onBlock(const LoweredBlock &Blk) {
    std::apply([&](Os &...O) { (dispatchBlock(O, Blk), ...); }, Obs);
  }
  void onMemRun(const uint64_t *Addrs, uint32_t Count, bool IsStore) {
    if constexpr (NumMem >= 2) {
      // Two or more members consume memory events: fan out address by
      // address so every member sees access N before any member sees
      // access N+1 — the exact ObserverMux interleave. With a single
      // consumer the orders are indistinguishable, so the bulk form below
      // keeps the run-level fast path.
      for (uint32_t I = 0; I < Count; ++I)
        std::apply(
            [&](Os &...O) { (dispatchMemRun(O, Addrs + I, 1, IsStore), ...); },
            Obs);
    } else {
      std::apply(
          [&](Os &...O) { (dispatchMemRun(O, Addrs, Count, IsStore), ...); },
          Obs);
    }
  }
  void onMemAccess(uint64_t Addr, bool IsStore) {
    dispatchMemRun(*this, &Addr, 1, IsStore);
  }
  void onBranch(uint64_t Pc, uint64_t Target, bool Taken, bool Backward,
                bool Conditional) {
    std::apply(
        [&](Os &...O) {
          (dispatchBranch(O, Pc, Target, Taken, Backward, Conditional), ...);
        },
        Obs);
  }
  void onCall(uint64_t SiteAddr, uint32_t Callee) {
    std::apply([&](Os &...O) { (dispatchCall(O, SiteAddr, Callee), ...); },
               Obs);
  }
  void onReturn(uint32_t Callee) {
    std::apply([&](Os &...O) { (dispatchReturn(O, Callee), ...); }, Obs);
  }
  void onRunEnd(uint64_t Total) {
    std::apply([&](Os &...O) { (dispatchRunEnd(O, Total), ...); }, Obs);
  }

private:
  std::tuple<Os &...> Obs;
};

} // namespace spm

#endif // SPM_VM_OBSERVER_H
