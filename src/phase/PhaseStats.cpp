//===- phase/PhaseStats.cpp -----------------------------------------------==//

#include "phase/PhaseStats.h"

#include "support/Table.h"

#include <cstdio>

using namespace spm;

void PhaseStats::addInterval(const IntervalRecord &R) {
  PhaseAgg &A = Phases[R.PhaseId];
  ++A.Intervals;
  A.Instrs += R.NumInstrs;
  A.Blocks += R.NumBlocks;
  A.Mem += R.NumMem;
  A.WallNs += R.WallNs;
  A.Perf.Instrs += R.Perf.Instrs;
  A.Perf.BaseCycles += R.Perf.BaseCycles;
  A.Perf.L1Accesses += R.Perf.L1Accesses;
  A.Perf.L1Misses += R.Perf.L1Misses;
  A.Perf.L2Accesses += R.Perf.L2Accesses;
  A.Perf.L2Misses += R.Perf.L2Misses;
  A.Perf.Branches += R.Perf.Branches;
  A.Perf.Mispredicts += R.Perf.Mispredicts;
  if (R.Perf.Instrs)
    A.Cpi.add(R.metrics().Cpi);
  A.Len.add(static_cast<double>(R.NumInstrs));
}

PhaseStats PhaseStats::fromIntervals(const std::vector<IntervalRecord> &Ivs) {
  PhaseStats S;
  for (const IntervalRecord &R : Ivs)
    S.addInterval(R);
  return S;
}

PhaseStats::Totals PhaseStats::totals() const {
  Totals T;
  for (const auto &[Id, A] : Phases) {
    (void)Id;
    T.Intervals += A.Intervals;
    T.Instrs += A.Instrs;
    T.Blocks += A.Blocks;
    T.Mem += A.Mem;
  }
  return T;
}

namespace {

std::string fmtDouble(double V) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.9g", V);
  return Buf;
}

} // namespace

std::string PhaseStats::toJsonl() const {
  std::string Out;
  for (const auto &[Id, A] : Phases) {
    Out += "{\"phase\": " + std::to_string(Id) +
           ", \"intervals\": " + std::to_string(A.Intervals) +
           ", \"instrs\": " + std::to_string(A.Instrs) +
           ", \"blocks\": " + std::to_string(A.Blocks) +
           ", \"mem\": " + std::to_string(A.Mem) +
           ", \"wall_ns\": " + std::to_string(A.WallNs) +
           ", \"base_cycles\": " + std::to_string(A.Perf.BaseCycles) +
           ", \"l1_misses\": " + std::to_string(A.Perf.L1Misses) +
           ", \"mispredicts\": " + std::to_string(A.Perf.Mispredicts) +
           ", \"cpi_mean\": " + fmtDouble(A.Cpi.mean()) +
           ", \"cpi_cov\": " + fmtDouble(A.Cpi.cov()) +
           ", \"len_mean\": " + fmtDouble(A.Len.mean()) +
           ", \"len_cov\": " + fmtDouble(A.Len.cov()) + "}\n";
  }
  return Out;
}

std::string PhaseStats::toText() const {
  Table T;
  T.row()
      .cell("phase")
      .cell("intervals")
      .cell("instrs")
      .cell("blocks")
      .cell("mem")
      .cell("cpi")
      .cell("cpi_cov")
      .cell("len_cov");
  for (const auto &[Id, A] : Phases) {
    T.row()
        .cell(std::to_string(Id))
        .cell(std::to_string(A.Intervals))
        .cell(std::to_string(A.Instrs))
        .cell(std::to_string(A.Blocks))
        .cell(std::to_string(A.Mem))
        .cell(fmtDouble(A.Cpi.mean()))
        .cell(fmtDouble(A.Cpi.cov()))
        .cell(fmtDouble(A.Len.cov()));
  }
  return T.str();
}
