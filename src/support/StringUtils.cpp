//===- StringUtils.cpp - printf-style formatting helpers -----------------===//

#include "src/support/StringUtils.h"

#include <cstdarg>
#include <cstdio>

using namespace facile;

std::string facile::strFormat(const char *Fmt, ...) {
  va_list Args;
  va_start(Args, Fmt);
  va_list Copy;
  va_copy(Copy, Args);
  int Needed = std::vsnprintf(nullptr, 0, Fmt, Copy);
  va_end(Copy);
  std::string Out;
  if (Needed > 0) {
    Out.resize(static_cast<size_t>(Needed));
    std::vsnprintf(Out.data(), Out.size() + 1, Fmt, Args);
  }
  va_end(Args);
  return Out;
}

bool facile::parseDecimal(const std::string &Text, uint64_t &Out) {
  if (Text.empty())
    return false;
  uint64_t V = 0;
  for (char C : Text) {
    if (C < '0' || C > '9')
      return false;
    const uint64_t Digit = static_cast<uint64_t>(C - '0');
    if (V > (UINT64_MAX - Digit) / 10)
      return false;
    V = V * 10 + Digit;
  }
  Out = V;
  return true;
}
