#!/bin/sh
# Run a command and require both its exit code and a pattern in its
# combined stdout/stderr. The command runs in a fresh scratch directory,
# removed afterwards, so a relative output path (nord-campaign --out)
# never sees an earlier run's files.
#
# Usage: tests/expect_exit.sh CODE PATTERN CMD [ARGS...]
code=$1
pattern=$2
shift 2
work=$(mktemp -d) || exit 1
trap 'rm -rf "$work"' EXIT
cd "$work" || exit 1
out=$("$@" 2>&1)
rc=$?
printf '%s\n' "$out"
[ "$rc" -eq "$code" ] || { echo "expected exit $code, got $rc"; exit 1; }
printf '%s\n' "$out" | grep -q -e "$pattern" ||
    { echo "output lacks '$pattern'"; exit 1; }
