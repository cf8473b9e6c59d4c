//===- support/ArgParse.h - Command-line count parsing ----------*- C++ -*-===//
//
// Part of the SPM project: reproduction of "Selecting Software Phase Markers
// with Code Structure Analysis" (CGO 2006).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The numeric flag parser shared by the command-line programs (spm_tool,
/// spm_figures), so `--jobs four` is refused the same way everywhere.
/// Header-only: no library links it.
///
//===----------------------------------------------------------------------===//

#ifndef SPM_SUPPORT_ARGPARSE_H
#define SPM_SUPPORT_ARGPARSE_H

#include <charconv>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>

namespace spm {

/// Parses \p Text as a whole non-negative decimal integer no larger than
/// \p Max. On failure prints `arg[<Flag>]: <detail>` and returns false, so
/// `--ilower 10k` or `--jobs four` is refused instead of running on a
/// silently truncated value.
inline bool parseCount(const char *Flag, const std::string &Text,
                       uint64_t &Out,
                       uint64_t Max = std::numeric_limits<uint64_t>::max()) {
  const char *End = Text.data() + Text.size();
  uint64_t V = 0;
  auto [Ptr, Ec] = std::from_chars(Text.data(), End, V);
  if (Text.empty() || Ptr != End) {
    std::fprintf(stderr,
                 "arg[%s]: expected a non-negative integer, got '%s'\n",
                 Flag, Text.c_str());
    return false;
  }
  if (Ec == std::errc::result_out_of_range || V > Max) {
    std::fprintf(stderr, "arg[%s]: %s is out of range (max %llu)\n", Flag,
                 Text.c_str(), static_cast<unsigned long long>(Max));
    return false;
  }
  Out = V;
  return true;
}

} // namespace spm

#endif // SPM_SUPPORT_ARGPARSE_H
