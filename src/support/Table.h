//===- support/Table.h - Aligned text tables for harness output -*- C++ -*-===//
//
// Part of the SPM project: reproduction of "Selecting Software Phase Markers
// with Code Structure Analysis" (CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A tiny column-aligned table builder used by the benchmark harnesses to
/// print the rows/series the paper's figures report.
///
//===----------------------------------------------------------------------===//

#ifndef SPM_SUPPORT_TABLE_H
#define SPM_SUPPORT_TABLE_H

#include <cstdint>
#include <string>
#include <vector>

namespace spm {

/// Column-aligned text table. Rows are added cell by cell; columns size
/// themselves to the widest cell. The first row added is treated as the
/// header when printed.
class Table {
public:
  /// Starts a new row.
  Table &row();

  /// Appends a string cell to the current row.
  Table &cell(const std::string &S);

  /// Appends an integer cell.
  Table &cell(uint64_t V);
  Table &cell(unsigned V) { return cell(static_cast<uint64_t>(V)); }

  /// Appends a floating-point cell with \p Precision decimal places.
  Table &cell(double V, int Precision = 3);

  /// Appends a percentage cell ("12.34%") from a fraction in [0,1].
  Table &percentCell(double Fraction, int Precision = 2);

  /// Renders the table with space-padded columns; header row is underlined.
  std::string str() const;

  size_t numRows() const { return Rows.size(); }

private:
  std::vector<std::vector<std::string>> Rows;
};

/// Formats \p V with \p Precision decimals (no locale, fixed notation).
std::string formatDouble(double V, int Precision);

} // namespace spm

#endif // SPM_SUPPORT_TABLE_H
