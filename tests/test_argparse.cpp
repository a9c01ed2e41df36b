//===- test_argparse.cpp - Command-line flag parsing -------------------------===//
//
// The numeric grammar every tool's `--name=<n>` flags share
// (facile::parseDecimal): decimal digits only, overflow-checked,
// range-checked after parsing. strtoull accepted a sign, leading
// whitespace and out-of-range values (wrapping or clamping), so
// `--instrs=-1` used to mean 2^64-1.
//
//===----------------------------------------------------------------------===//

#include "src/support/ArgParse.h"
#include "src/support/StringUtils.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

using namespace facile::support;

namespace {

/// Runs \p P over `prog` plus \p Args; returns parse()'s status.
int parseArgs(ArgParse &P, std::vector<std::string> Args) {
  Args.insert(Args.begin(), "prog");
  std::vector<char *> Argv;
  for (std::string &A : Args)
    Argv.push_back(A.data());
  return P.parse(static_cast<int>(Argv.size()), Argv.data());
}

const char *const BadNumbers[] = {
    "",   "-1", "+5", " 5", "5 ", "abc", "12abc", "0x10", "1e3",
    "18446744073709551616", // 2^64: one past the largest value
    "99999999999999999999999",
};

} // namespace

TEST(ArgParse, DecimalIsDigitsOnlyAndOverflowChecked) {
  uint64_t V = 7;
  EXPECT_TRUE(facile::parseDecimal("0", V));
  EXPECT_EQ(V, 0u);
  EXPECT_TRUE(facile::parseDecimal("0042", V));
  EXPECT_EQ(V, 42u);
  EXPECT_TRUE(facile::parseDecimal("18446744073709551615", V));
  EXPECT_EQ(V, UINT64_MAX);
  for (const char *Bad : BadNumbers) {
    V = 7;
    EXPECT_FALSE(facile::parseDecimal(Bad, V)) << "'" << Bad << "'";
    EXPECT_EQ(V, 7u) << "'" << Bad << "' changed the output";
  }
}

TEST(ArgParse, U64FlagsRefuseMalformedValues) {
  for (const char *Bad : BadNumbers) {
    uint64_t N = 3;
    ArgParse P("prog");
    P.u64("n", N, "<n>", "a count");
    EXPECT_EQ(parseArgs(P, {std::string("--n=") + Bad}), 2) << Bad;
    EXPECT_EQ(N, 3u) << Bad;
  }
  uint64_t N = 3;
  ArgParse P("prog");
  P.u64("n", N, "<n>", "a count", /*Min=*/1, /*Max=*/100);
  EXPECT_EQ(parseArgs(P, {"--n=100"}), ArgParse::KeepGoing);
  EXPECT_EQ(N, 100u);
  for (const char *OutOfRange : {"--n=0", "--n=101"}) {
    ArgParse Q("prog");
    Q.u64("n", N, "<n>", "a count", 1, 100);
    EXPECT_EQ(parseArgs(Q, {OutOfRange}), 2) << OutOfRange;
  }
}

TEST(ArgParse, OptU64RefusesMalformedValuesButKeepsTheBareForm) {
  for (const char *Bad : BadNumbers) {
    if (!*Bad)
      continue; // `--keep=` is the bare form
    bool Present = false;
    uint64_t Keep = 1;
    ArgParse P("prog");
    P.optU64("keep", Present, Keep, "<n>", "generations to keep");
    EXPECT_EQ(parseArgs(P, {std::string("--keep=") + Bad}), 2) << Bad;
    EXPECT_EQ(Keep, 1u) << Bad;
  }
  bool Present = false;
  uint64_t Keep = 1;
  ArgParse P("prog");
  P.optU64("keep", Present, Keep, "<n>", "generations to keep");
  EXPECT_EQ(parseArgs(P, {"--keep"}), ArgParse::KeepGoing);
  EXPECT_TRUE(Present);
  EXPECT_EQ(Keep, 1u);
  ArgParse Q("prog");
  Q.optU64("keep", Present, Keep, "<n>", "generations to keep");
  EXPECT_EQ(parseArgs(Q, {"--keep=5"}), ArgParse::KeepGoing);
  EXPECT_EQ(Keep, 5u);
}
