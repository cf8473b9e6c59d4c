//===- tests/IrGen.h - seeded procedural mini-IR program generator --------==//
//
// Part of the SPM project: reproduction of "Selecting Software Phase Markers
// with Code Structure Analysis" (CGO 2006).
//
// Generates random-but-deterministic source programs for the differential
// fuzz suites: nested loops with every trip-count kind (constant including
// zero-trip, uniform ranges starting at zero, parameter-driven, schedules
// containing zeros), two-way branches with both condition kinds (bernoulli
// at the 0.0/1.0 extremes, periodic) and possibly empty arms, straight-line
// code exercising all four memory patterns, and call sites in every flavor
// (direct, probability-gated — including bounded recursion and depth-cap
// saturation — weighted dispatch with the all-zero-weight fallback, and
// round-robin). Degenerate shapes appear on purpose: empty function bodies,
// empty loop/if bodies, and deep nesting chains.
//
// A slice of the statement mix is edge-adversarial: zero-trip constant
// loops wedged between straight-line runs, constant-trip nests saturating
// the resume-frame depth, ungated recursion immediately after a
// straight-line run, and single-code-block functions.
//
// Everything is a pure function of the seed, so a failing program is
// reproducible from the test log alone.
//
//===----------------------------------------------------------------------==//

#ifndef SPM_TESTS_IRGEN_H
#define SPM_TESTS_IRGEN_H

#include "ir/Builder.h"
#include "ir/Input.h"
#include "support/Random.h"

#include <memory>
#include <string>
#include <vector>

namespace spm {
namespace irgen {

/// Input that satisfies every parameter a generated program may read
/// ("n", "m", "bytes"). Values are themselves seed-derived so two inputs
/// with different seeds usually differ in parameters too, not just in the
/// random stream.
inline WorkloadInput makeInput(uint64_t Seed) {
  Rng R(splitMix64(Seed ^ 0x1399de1a5f1a90ull));
  WorkloadInput In("fuzz", Seed);
  In.set("n", 1 + static_cast<int64_t>(R.nextBelow(6)));
  In.set("m", 1 + static_cast<int64_t>(R.nextBelow(4)));
  In.set("bytes", 4096 * (1 + static_cast<int64_t>(R.nextBelow(64))));
  return In;
}

namespace detail {

class Generator {
public:
  explicit Generator(uint64_t Seed) : R(splitMix64(Seed)) {}

  std::unique_ptr<SourceProgram> gen() {
    ProgramBuilder PB("fuzz");
    NumRegions = 1 + static_cast<uint32_t>(R.nextBelow(3));
    for (uint32_t I = 0; I < NumRegions; ++I) {
      // Appended, not `"r" + std::to_string(I)`: GCC 12 at -O3 reports a
      // false -Wrestrict on that operator+ once inlined.
      std::string Name = "r";
      Name += std::to_string(I);
      if (R.nextBool(0.25))
        PB.region(MemRegionSpec::param(Name, "bytes",
                                       1 + R.nextBelow(4)));
      else
        PB.region(MemRegionSpec::fixed(
            Name, uint64_t(1) << (10 + R.nextBelow(9))));
    }

    NumFuncs = 1 + static_cast<uint32_t>(R.nextBelow(4));
    for (uint32_t F = 0; F < NumFuncs; ++F) {
      std::string Name = "f";
      Name += std::to_string(F);
      PB.declare(Name);
    }
    for (uint32_t F = 0; F < NumFuncs; ++F) {
      PB.define(F, [&](FunctionBuilder &FB) {
        // ~1 in 10 functions has an entirely empty body (entry/exit blocks
        // only); ~1 in 8 top-level lists opens with a deep nesting chain.
        if (R.nextBool(0.1) && F != 0)
          return;
        // ~1 in 12 bodies is a single code statement: lowers to the
        // smallest fusable function (entry run + exit anchor).
        if (R.nextBool(0.085)) {
          code(FB);
          return;
        }
        if (R.nextBool(0.125))
          deepChain(FB, 5 + static_cast<uint32_t>(R.nextBelow(5)));
        stmtList(FB, F, /*Depth=*/0,
                 1 + static_cast<uint32_t>(R.nextBelow(4)));
      });
    }
    return PB.take();
  }

private:
  Rng R;
  uint32_t NumRegions = 1;
  uint32_t NumFuncs = 1;

  /// A tight chain of nested loops (trip 1-2) with one code statement at
  /// the bottom: stresses frame-path depth in captures and resume.
  void deepChain(FunctionBuilder &FB, uint32_t Depth) {
    if (Depth == 0) {
      FB.code(1 + static_cast<uint32_t>(R.nextBelow(4)));
      return;
    }
    FB.loop(TripCountSpec::constant(1 + R.nextBelow(2)),
            [&] { deepChain(FB, Depth - 1); });
  }

  void stmtList(FunctionBuilder &FB, uint32_t FuncId, uint32_t Depth,
                uint32_t Count) {
    for (uint32_t I = 0; I < Count; ++I)
      stmt(FB, FuncId, Depth);
  }

  /// Body sizes shrink with depth; zero is allowed (empty loop/if bodies).
  uint32_t bodyCount(uint32_t Depth) {
    return static_cast<uint32_t>(R.nextBelow(Depth >= 2 ? 3 : 4));
  }

  void stmt(FunctionBuilder &FB, uint32_t FuncId, uint32_t Depth) {
    // Past the nesting budget only leaves remain.
    uint64_t Pick = R.nextBelow(Depth >= 3 ? 30 : 100);
    if (Pick < 38) {
      code(FB);
    } else if (Pick < 63) {
      uint32_t N = bodyCount(Depth);
      FB.loop(tripSpec(), [&] { stmtList(FB, FuncId, Depth + 1, N); },
              /*HeaderIntOps=*/1 + static_cast<uint32_t>(R.nextBelow(3)));
    } else if (Pick < 82) {
      uint32_t NThen = bodyCount(Depth);
      bool HasElse = R.nextBool(0.5);
      uint32_t NElse = HasElse ? bodyCount(Depth) : 0;
      auto Then = [&] { stmtList(FB, FuncId, Depth + 1, NThen); };
      if (HasElse)
        FB.branch(condSpec(), Then,
                  [&] { stmtList(FB, FuncId, Depth + 1, NElse); });
      else
        FB.branch(condSpec(), Then);
    } else if (Pick < 94) {
      callSite(FB, FuncId);
    } else {
      edgeShape(FB, FuncId);
    }
  }

  /// Edge-adversarial statements: degenerate constructs next to
  /// straight-line code, where checkpoint boundaries and resume walks meet
  /// their corner cases.
  void edgeShape(FunctionBuilder &FB, uint32_t FuncId) {
    switch (R.nextBelow(4)) {
    case 0:
      // Zero-trip constant loop wedged between two code runs: its
      // (never-run) body must emit nothing and draw nothing.
      code(FB);
      FB.loop(TripCountSpec::constant(0),
              [&] { stmtList(FB, FuncId, /*Depth=*/3, 2); });
      code(FB);
      break;
    case 1:
      // Constant-trip nest saturating the frame-path depth with code on
      // both sides: capture/resume paths of maximal depth.
      code(FB);
      deepChain(FB, 7 + static_cast<uint32_t>(R.nextBelow(3)));
      code(FB);
      break;
    case 2:
      // Ungated self-recursion immediately after a code run: MaxCallDepth
      // saturates right behind it.
      code(FB);
      FB.callIf(FuncId, 1.0);
      break;
    default:
      // Constant loop over a single code block, including the degenerate
      // trip-1 loop.
      FB.loop(TripCountSpec::constant(1 + R.nextBelow(3)),
              [&] { code(FB); });
      break;
    }
  }

  void code(FunctionBuilder &FB) {
    std::vector<MemAccessSpec> Mem;
    uint64_t NumMem = R.nextBelow(3);
    for (uint64_t I = 0; I < NumMem; ++I)
      Mem.push_back(memSpec());
    FB.code(1 + static_cast<uint32_t>(R.nextBelow(20)),
            static_cast<uint32_t>(R.nextBelow(8)), std::move(Mem));
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
      uint64_t Lo = R.nextBelow(2); // Ranges may start at zero.
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

  void callSite(FunctionBuilder &FB, uint32_t FuncId) {
    bool HasForward = FuncId + 1 < NumFuncs;
    auto forward = [&] {
      return FuncId + 1 +
             static_cast<uint32_t>(R.nextBelow(NumFuncs - FuncId - 1));
    };
    auto any = [&] { return static_cast<uint32_t>(R.nextBelow(NumFuncs)); };

    uint64_t Pick = R.nextBelow(100);
    if (Pick < 35 && HasForward) {
      FB.call(forward()); // Unconditional, strictly forward: no recursion.
    } else if (Pick < 55) {
      // Gated call to any function, including self/backward: bounded
      // recursion (expected chain length < 2 at prob <= 0.45).
      FB.callIf(any(), 0.1 + 0.35 * R.nextDouble());
    } else if (Pick < 60) {
      // Ungated self-recursion: terminates only via the MaxCallDepth cap,
      // deliberately saturating the deepest call paths.
      FB.callIf(FuncId, 1.0);
    } else {
      // Dispatch site with 2-3 candidates. Weights may all be zero (the
      // uniform-fallback path). Gate unless every candidate is strictly
      // forward.
      uint64_t N = 2 + R.nextBelow(2);
      bool AllForward = true;
      std::vector<CallStmt::Candidate> Cands;
      for (uint64_t I = 0; I < N; ++I) {
        uint32_t Callee =
            (HasForward && R.nextBool(0.7)) ? forward() : any();
        AllForward = AllForward && Callee > FuncId;
        Cands.push_back({Callee, static_cast<uint32_t>(R.nextBelow(4))});
      }
      if (R.nextBool(0.2))
        for (auto &C : Cands)
          C.Weight = 0;
      bool RoundRobin = R.nextBool(0.3);
      double Prob = AllForward ? 1.0 : 0.1 + 0.35 * R.nextDouble();
      FB.callOneOf(std::move(Cands), RoundRobin, Prob);
    }
  }
};

} // namespace detail

/// Generates a random structured program, deterministic in \p Seed.
inline std::unique_ptr<SourceProgram> generateProgram(uint64_t Seed) {
  return detail::Generator(Seed).gen();
}

} // namespace irgen
} // namespace spm

#endif // SPM_TESTS_IRGEN_H
