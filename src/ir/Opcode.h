//===- ir/Opcode.h - Instruction classes ------------------------*- C++ -*-===//
//
// Part of the SPM project: reproduction of "Selecting Software Phase Markers
// with Code Structure Analysis" (CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Instruction class taxonomy for the mini-IR. The performance model only
/// needs instruction classes (not full semantics): integer ALU, FP ALU,
/// loads, stores, and branches, which is the level of detail the paper's
/// metrics (CPI, DL1 miss rate, instruction counts) consume.
///
//===----------------------------------------------------------------------===//

#ifndef SPM_IR_OPCODE_H
#define SPM_IR_OPCODE_H

#include <array>
#include <cstdint>

namespace spm {

/// Instruction class kinds.
enum class OpClass : uint8_t {
  IntALU = 0,
  FpALU = 1,
  Load = 2,
  Store = 3,
  Branch = 4,
};

constexpr unsigned NumOpClasses = 5;

/// Per-class instruction counts for a basic block.
struct OpMix {
  std::array<uint32_t, NumOpClasses> Counts = {0, 0, 0, 0, 0};

  uint32_t &operator[](OpClass C) {
    return Counts[static_cast<unsigned>(C)];
  }
  uint32_t operator[](OpClass C) const {
    return Counts[static_cast<unsigned>(C)];
  }

  /// Total instructions in the mix.
  uint32_t total() const {
    uint32_t T = 0;
    for (uint32_t C : Counts)
      T += C;
    return T;
  }

  OpMix &operator+=(const OpMix &O) {
    for (unsigned I = 0; I < NumOpClasses; ++I)
      Counts[I] += O.Counts[I];
    return *this;
  }
};

} // namespace spm

#endif // SPM_IR_OPCODE_H
