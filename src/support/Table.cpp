//===- support/Table.cpp --------------------------------------------------==//

#include "support/Table.h"

#include <cassert>
#include <cstdio>

using namespace spm;

std::string spm::formatDouble(double V, int Precision) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.*f", Precision, V);
  return Buf;
}

Table &Table::row() {
  Rows.emplace_back();
  return *this;
}

Table &Table::cell(const std::string &S) {
  assert(!Rows.empty() && "call row() before cell()");
  Rows.back().push_back(S);
  return *this;
}

Table &Table::cell(uint64_t V) { return cell(std::to_string(V)); }

Table &Table::cell(double V, int Precision) {
  return cell(formatDouble(V, Precision));
}

Table &Table::percentCell(double Fraction, int Precision) {
  return cell(formatDouble(Fraction * 100.0, Precision) + "%");
}

std::string Table::str() const {
  // Compute column widths.
  std::vector<size_t> Widths;
  for (const auto &Row : Rows) {
    if (Row.size() > Widths.size())
      Widths.resize(Row.size(), 0);
    for (size_t I = 0; I < Row.size(); ++I)
      if (Row[I].size() > Widths[I])
        Widths[I] = Row[I].size();
  }

  std::string Out;
  for (size_t R = 0; R < Rows.size(); ++R) {
    const auto &Row = Rows[R];
    for (size_t I = 0; I < Row.size(); ++I) {
      if (I)
        Out += "  ";
      // Left-align the first column (labels), right-align the rest.
      const std::string &Cell = Row[I];
      size_t Pad = Widths[I] - Cell.size();
      if (I == 0) {
        Out += Cell;
        Out.append(Pad, ' ');
      } else {
        Out.append(Pad, ' ');
        Out += Cell;
      }
    }
    Out += '\n';
    if (R == 0) {
      size_t Total = 0;
      for (size_t I = 0; I < Widths.size(); ++I)
        Total += Widths[I] + (I ? 2 : 0);
      Out.append(Total, '-');
      Out += '\n';
    }
  }
  return Out;
}
