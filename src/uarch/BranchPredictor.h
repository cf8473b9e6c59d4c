//===- uarch/BranchPredictor.h - Two-bit branch predictor -------*- C++ -*-===//
//
// Part of the SPM project: reproduction of "Selecting Software Phase Markers
// with Code Structure Analysis" (CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A classic bimodal (2-bit saturating counter) branch predictor. It exists
/// so that the CPI metric responds to control behavior (interpreter-style
/// irregular dispatch raises CPI; tight stable loops lower it), which the
/// paper's per-phase CPI CoV evaluation needs.
///
//===----------------------------------------------------------------------===//

#ifndef SPM_UARCH_BRANCHPREDICTOR_H
#define SPM_UARCH_BRANCHPREDICTOR_H

#include <cstdint>
#include <vector>

namespace spm {

/// Bimodal predictor with a power-of-two counter table indexed by PC.
class BranchPredictor2Bit {
public:
  explicit BranchPredictor2Bit(uint32_t TableSize = 4096)
      : Mask(TableSize - 1), Counters(TableSize, 1) {
    assert((TableSize & (TableSize - 1)) == 0 &&
           "predictor table must be a power of two");
  }

  /// Predicts, updates, and returns true when the prediction was correct.
  bool predictAndUpdate(uint64_t Pc, bool Taken) {
    uint8_t &C = Counters[(Pc >> 2) & Mask];
    bool Predicted = C >= 2;
    if (Taken) {
      if (C < 3)
        ++C;
    } else {
      if (C > 0)
        --C;
    }
    return Predicted == Taken;
  }

private:
  uint64_t Mask;
  std::vector<uint8_t> Counters;
};

} // namespace spm

#endif // SPM_UARCH_BRANCHPREDICTOR_H
