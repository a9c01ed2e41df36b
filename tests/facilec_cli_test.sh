#!/bin/sh
# facilec run's trailing max-steps argument: a decimal count runs that many
# steps; anything else is a usage error (exit 2) before any step runs.
#
#   sh facilec_cli_test.sh <facilec binary> <src/sims directory>
set -u
FACILEC=$1
SIMS=$2
TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT
printf 'li r1, 0\nli r2, 50\nloop: addi r1, r1, 1\nbne r1, r2, loop\nhalt\n' \
  > "$TMP/loop.s"

run() {
  "$FACILEC" run "$SIMS/isa.fac" "$SIMS/functional.fac" "$TMP/loop.s" "$@"
}

run 5 > "$TMP/out" || { echo "valid budget 5 failed"; exit 1; }
grep -q 'steps: *5 (budget exhausted)' "$TMP/out" ||
  { echo "budget 5 did not run 5 steps:"; cat "$TMP/out"; exit 1; }

for Bad in abc -1 +5 ' 5' 0x10 '' 18446744073709551616; do
  run "$Bad" > "$TMP/out" 2> "$TMP/err"
  Status=$?
  if [ "$Status" -ne 2 ]; then
    echo "max-steps '$Bad' exited $Status, expected 2"; exit 1
  fi
  grep -q "max-steps must be a decimal count" "$TMP/err" ||
    { echo "max-steps '$Bad' gave no diagnostic"; exit 1; }
done
echo "facilec max-steps parsing ok"
