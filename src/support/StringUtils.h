//===- StringUtils.h - Formatting and number-parsing helpers ---*- C++ -*-===//
//
// Part of the Facile reproduction project.
//
//===----------------------------------------------------------------------===//

#ifndef FACILE_SUPPORT_STRINGUTILS_H
#define FACILE_SUPPORT_STRINGUTILS_H

#include <cstdint>
#include <string>

namespace facile {

/// printf-style formatting into a std::string.
std::string strFormat(const char *Fmt, ...)
    __attribute__((format(printf, 1, 2)));

/// The numeric grammar of command-line counts and sizes: one or more
/// decimal digits whose value fits uint64_t. No sign, whitespace, prefix
/// or suffix — strtoull's `-1` (wrapping to 2^64-1), `+5` and ` 5` are
/// refused, and so is overflow. Leaves \p Out untouched on failure.
bool parseDecimal(const std::string &Text, uint64_t &Out);

} // namespace facile

#endif // FACILE_SUPPORT_STRINGUTILS_H
