#!/usr/bin/env bash
# Run the offline protocol verifier over the full shipped matrix -- four
# power-gating designs x {4x4, 8x8} meshes -- and then confirm the
# negative paths still bite: the seeded dateline-less escape ring must be
# reported as a cycle, and every handshake mutation must refute its
# property. A verifier that passes everything, including the planted bugs,
# proves nothing.
#
# Usage: scripts/verify_matrix.sh [path/to/nord-verify]

set -u

bin="${1:-build/tools/nord-verify}"
if [ ! -x "$bin" ]; then
    echo "verify_matrix: $bin not found or not executable" >&2
    echo "build first: cmake -B build -S . && cmake --build build -j" >&2
    exit 2
fi

status=0

echo "== positive: full shipped matrix =="
"$bin" --all || status=1

echo
echo "== negative: seeded dateline-less ring must report a cycle =="
if "$bin" --design nord --pass cdg --seed-cycle >/dev/null 2>&1; then
    echo "verify_matrix: FAIL -- seeded escape cycle was NOT caught"
    status=1
else
    echo "caught, as required"
fi

for mutation in deaf-wakeup-input drop-ic-guard no-drain-check; do
    echo
    echo "== negative: FSM mutation $mutation must be refuted =="
    if "$bin" --design nord --pass fsm --mutation "$mutation" \
        >/dev/null 2>&1; then
        echo "verify_matrix: FAIL -- $mutation was NOT caught"
        status=1
    else
        echo "caught, as required"
    fi
done

echo
echo "== negative: watchdog must not mask NoRD's lost wakeup =="
if "$bin" --design nord --pass fsm --mutation deaf-wakeup-input --watchdog \
    >/dev/null 2>&1; then
    echo "verify_matrix: FAIL -- watchdog masked the NoRD lost wakeup"
    status=1
else
    echo "caught, as required"
fi

echo
if [ "$status" -eq 0 ]; then
    echo "verify_matrix: OK"
else
    echo "verify_matrix: FAILED"
fi
exit "$status"
