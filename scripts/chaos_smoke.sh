#!/usr/bin/env bash
# Chaos smoke test: the fault-tolerance acceptance gate.
#
# Phase B -- one `--out` executor under fire:
#   1. Clean reference campaign (includes a deterministic poison point
#      and a hang point, so quarantine paths are exercised).
#   2. The same grid under --chaos: workers are SIGKILLed on a seeded
#      schedule and must resume from checkpoints. Report must be
#      byte-identical to the clean run's.
#   3. The same grid with the executor itself SIGKILLed mid-campaign
#      and re-executed. Report must again be byte-identical.
#   4. The journal must show both quarantine classes (gate, hang) with
#      diagnostics.
#
# Bit-exact resume of a single simulation is tests/test_ckpt.cc's job.
#
# Usage: scripts/chaos_smoke.sh [nord-campaign]
set -u

CAMPAIGN="${1:-build/tools/nord-campaign}"
WORK="$(mktemp -d)"

cleanup() {
    # -x matches the exact process name only: a -f pattern would match
    # this script's own command line (and the CI shell) and kill them.
    pkill -9 -x nord-campaign 2>/dev/null
    rm -rf "$WORK"
}
trap cleanup EXIT

fail() {
    echo "FAIL: $*" >&2
    exit 1
}

[ -x "$CAMPAIGN" ] || fail "$CAMPAIGN not found or not executable"

# ----------------------------------------------------------------------
# Phase B: one nord-campaign executor.
# ----------------------------------------------------------------------

# Point 0 is honest work, point 1 is deterministic poison (gate), point 2
# hangs (stops heartbeating mid-run) -- so one campaign exercises
# completion, first-attempt quarantine and heartbeat-kill quarantine.
GRID="--designs nord --rates 0.05 --seeds 1,2,3 --cycles 100000
      --rows 4 --cols 4 --poison-points 1 --hang-points 2"
SUP="--workers 3 --hang-timeout 2 --checkpoint-every 2000
     --max-failures 2 --backoff-initial 0.05 --backoff-max 0.2"
# Quarantined points make the campaign exit 10 by design.
QUARANTINE_RC=10

run_campaign() {
    # shellcheck disable=SC2086
    "$CAMPAIGN" $GRID $SUP --out "$@"
}

echo "[smoke B] clean reference campaign..."
run_campaign "$WORK/clean"
[ $? -eq $QUARANTINE_RC ] || fail "clean campaign: expected exit $QUARANTINE_RC"
[ -f "$WORK/clean/report.json" ] || fail "clean campaign wrote no report"

echo "[smoke B] chaos campaign (worker SIGKILLs on a seeded schedule)..."
# The kill count MUST be capped here: this grid contains a hang point,
# and an unlimited 0.3s chaos schedule always SIGKILLs the hung worker
# before the 2s heartbeat timeout can. Chaos kills are uncounted by
# design, so the hang point would relaunch forever (a livelock, not a
# failure). Capped, chaos stands down and the hang point is then
# heartbeat-killed and quarantined exactly like the clean run.
run_campaign "$WORK/chaos" --chaos --chaos-seed 7 --chaos-interval 0.3 \
    --chaos-max-kills 6 \
    2>&1 | tee "$WORK/chaos.log"
[ "${PIPESTATUS[0]}" -eq $QUARANTINE_RC ] || fail "chaos campaign: bad exit"
grep -q "chaos: killed" "$WORK/chaos.log" \
    || fail "the chaos schedule never fired; the test proved nothing"
diff -u "$WORK/clean/report.json" "$WORK/chaos/report.json" \
    || fail "chaos kills changed report.json"
diff -u "$WORK/clean/report.csv" "$WORK/chaos/report.csv" \
    || fail "chaos kills changed report.csv"
echo "[smoke B] PASS: chaos-disturbed report is byte-identical"

echo "[smoke B] executor SIGKILL + resume..."
run_campaign "$WORK/kr" &
PID=$!
# Let it journal some progress first: the journal appears at once; give
# the workers time to start and checkpoint.
for _ in $(seq 1 100); do
    [ -f "$WORK/kr/journal.jsonl" ] && break
    sleep 0.1
done
sleep 2
kill -9 "$PID" 2>/dev/null
wait "$PID" 2>/dev/null
# Reap orphaned workers; their checkpoints ARE the resumable state.
pkill -9 -x nord-campaign 2>/dev/null
sleep 0.2
[ -f "$WORK/kr/report.json" ] && fail "campaign finished before the kill"

run_campaign "$WORK/kr"
[ $? -eq $QUARANTINE_RC ] || fail "resumed campaign: bad exit"
diff -u "$WORK/clean/report.json" "$WORK/kr/report.json" \
    || fail "executor kill+resume changed report.json"
diff -u "$WORK/clean/report.csv" "$WORK/kr/report.csv" \
    || fail "executor kill+resume changed report.csv"
echo "[smoke B] PASS: kill+resume report is byte-identical"

echo "[smoke B] quarantine diagnostics..."
grep -q '"event":"quarantine".*"class":"gate"' "$WORK/clean/journal.jsonl" \
    || fail "no gate quarantine in the journal"
grep -q '"event":"quarantine".*"class":"hang"' "$WORK/clean/journal.jsonl" \
    || fail "no hang quarantine in the journal"
grep -q '"status":"quarantined"' "$WORK/clean/report.json" \
    || fail "report carries no quarantined points"

echo "[smoke] PASS: all phases"
