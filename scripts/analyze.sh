#!/usr/bin/env bash
# Run the whole static-analysis battery -- two analyzers: nord-lint
# (hidden state, side channels, and state coverage: serialize walks and
# NORD_STATE_EXCLUDE legality) and clang-tidy -- and print one summary
# table. This is the CI static-analysis job. `ctest -L static` runs the
# same nord-lint gate plus the deadlock and handshake proofs (StaticCdg,
# StaticFsm, StaticLint), but not clang-tidy.
#
# Usage: scripts/analyze.sh [build_dir [root]]
#
# The build tree must be configured; missing tool binaries are built on
# demand. clang-tidy is SKIPped (not failed) when the binary is absent,
# so the std-only nord-lint still gates a machine without LLVM.

set -u

build="${1:-build}"
root="${2:-.}"

if [ ! -f "$build/CMakeCache.txt" ]; then
    echo "analyze: $build is not a configured build tree" >&2
    echo "run first: cmake -B $build -S $root" >&2
    exit 2
fi

names=()
codes=()

note() {
    names+=("$1")
    codes+=("$2")
}

run_tool() {
    # run_tool <name> <target> <cmd...>: build the target, run the
    # command, record its exit code.
    local name="$1" target="$2"
    shift 2
    echo
    echo "== $name =="
    if ! cmake --build "$build" -j --target "$target" >/dev/null; then
        echo "analyze: building $target failed" >&2
        note "$name" 2
        return
    fi
    "$@"
    note "$name" $?
}

run_tool nord-lint nord-lint "$build/tools/nord-lint" "$root"

echo
echo "== clang-tidy =="
if command -v clang-tidy >/dev/null 2>&1; then
    # The lint target needs the generated compile_commands.json, which
    # the main build produces.
    if cmake --build "$build" -j >/dev/null &&
        cmake --build "$build" --target lint; then
        note clang-tidy 0
    else
        note clang-tidy 1
    fi
else
    echo "clang-tidy not installed; skipping"
    note clang-tidy skip
fi

echo
echo "analyzer           result"
echo "-----------------  ------"
status=0
for i in "${!names[@]}"; do
    case "${codes[$i]}" in
        0) result="OK" ;;
        skip) result="SKIP" ;;
        *)
            result="FAIL(${codes[$i]})"
            status=1
            ;;
    esac
    printf '%-17s  %s\n' "${names[$i]}" "$result"
done
exit "$status"
