#!/bin/sh
# Run a command and require both its exit code and a pattern in its
# combined stdout/stderr.
#
# Usage: tests/expect_exit.sh CODE PATTERN CMD [ARGS...]
code=$1
pattern=$2
shift 2
out=$("$@" 2>&1)
rc=$?
printf '%s\n' "$out"
[ "$rc" -eq "$code" ] || { echo "expected exit $code, got $rc"; exit 1; }
printf '%s\n' "$out" | grep -q -e "$pattern" ||
    { echo "output lacks '$pattern'"; exit 1; }
