#!/usr/bin/env bash
# nordbench: build the simulator from this checkout and run the benchmark.
#
#   bench/nordbench/run.sh [--workload W] [--seed N] [--seconds S]
#                          [--trace [0|1]] [--out DIR] [--smoke]
#
# Without --workload every workload runs, each in its own fresh process.
# Build output goes to stderr; stdout carries "name value unit" lines and,
# last, one JSON summary line per workload. Run from anywhere; paths are
# relative to the repository root. See bench/nordbench/README.md.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
build="$root/.bench_build/nordbench"
workloads=(parsec_4x4 lowload_8x8_nord highload_8x8_nopg campaign_faults_8x8)

usage() {
    sed -n '4,5p' "$0" | sed 's/^# \{0,1\}//' >&2
    exit 2
}

selected=()
seed=1
seconds=10
trace=0
out="$root/.bench_build/results"
smoke=()
while (($#)); do
    case "$1" in
        --workload) (($# >= 2)) || usage; selected+=("$2"); shift 2 ;;
        --seed) (($# >= 2)) || usage; seed="$2"; shift 2 ;;
        --seconds) (($# >= 2)) || usage; seconds="$2"; shift 2 ;;
        --trace)
            if (($# >= 2)) && [[ "$2" == 0 || "$2" == 1 ]]; then
                trace="$2"; shift 2
            else
                trace=1; shift
            fi ;;
        --out) (($# >= 2)) || usage; out="$2"; shift 2 ;;
        --smoke) smoke=(--smoke); shift ;;
        *) usage ;;
    esac
done
((${#selected[@]})) || selected=("${workloads[@]}")

if [[ ! -f "$root/src/CMakeLists.txt" || ! -f "$root/tools/nord_campaign.cc" ]]; then
    echo "nordbench: simulator sources not found under $root (src/, tools/)" >&2
    exit 2
fi

jobs="$(nproc 2>/dev/null || echo 2)"
((jobs <= 4)) || jobs=4
{
    [[ -f "$build/CMakeCache.txt" ]] ||
        cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=Release
    cmake --build "$build" -j "$jobs"
} >&2

mkdir -p "$out"
for w in "${selected[@]}"; do
    "$build/nordbench" --workload "$w" --seed "$seed" --seconds "$seconds" \
        --trace "$trace" --out "$out" --campaign-bin "$build/nord-campaign" \
        "${smoke[@]}"
done
