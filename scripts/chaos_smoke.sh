#!/usr/bin/env bash
# Chaos smoke test: the fault-tolerance acceptance gate.
#
# Phase B -- one executor (`--out`, a fleet of one) under fire:
#   1. Clean reference campaign (includes a deterministic poison point
#      and a hang point, so quarantine paths are exercised).
#   2. The same grid under --chaos: workers are SIGKILLed on a seeded
#      schedule and must resume from checkpoints. Report must be
#      byte-identical to the clean run's.
#   3. The same grid with the executor itself SIGKILLed mid-campaign
#      and re-executed. Report must again be byte-identical.
#   4. The canonical journal must show both quarantine classes (gate,
#      hang) with diagnostics.
#
# Phase C -- multi-executor fleet under partition chaos (--executors 2):
#   1. Clean reference campaign (an `--out` run).
#   2. Two executors --join the same campaign directory. One SIGSTOPs
#      itself for longer than the lease grace (partition chaos), loses
#      its shard leases, and must self-fence: exit 14 (lease-lost), no
#      post-fence writes. The survivor steals the shards and drains the
#      grid.
#   3. The fleet's report must be byte-identical to the `--out` run's.
#
# Bit-exact resume of a single simulation is tests/test_ckpt.cc's job.
#
# Usage: scripts/chaos_smoke.sh [nord-campaign] [--executors N]
set -u

CAMPAIGN="build/tools/nord-campaign"
EXECUTORS=1
while [ $# -gt 0 ]; do
    case "$1" in
      --executors)
        [ $# -ge 2 ] || { echo "missing value for --executors" >&2; exit 2; }
        EXECUTORS="$2"
        shift 2
        ;;
      *)
        CAMPAIGN="$1"
        shift
        ;;
    esac
done
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
# Let it journal some progress first: its live journal appears at once
# (journal.jsonl is only written at completion); give the workers time
# to start and checkpoint.
for _ in $(seq 1 100); do
    [ -f "$WORK/kr/journal-local.jsonl" ] && break
    sleep 0.1
done
sleep 2
kill -9 "$PID" 2>/dev/null
wait "$PID" 2>/dev/null
# Reap orphaned workers; their checkpoints ARE the resumable state.
pkill -9 -x nord-campaign 2>/dev/null
sleep 0.2
[ -f "$WORK/kr/report.json" ] && fail "campaign finished before the kill"

# The rerun first waits one lease grace for the killed run's leases.
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

# ----------------------------------------------------------------------
# Phase C: multi-executor fleet with partition chaos.
# ----------------------------------------------------------------------

if [ "$EXECUTORS" -ge 2 ]; then
    # A clean grid (no poison/hang): completion-only, so the golden run
    # and the surviving executor both exit 0 and every byte of report
    # divergence is a fleet bug, not taxonomy noise.
    CGRID="--designs nord --rates 0.05 --seeds 1,2,3,4,5,6
           --cycles 150000 --rows 4 --cols 4"
    CSUP="--workers 2 --checkpoint-every 2000 --max-failures 2
          --backoff-initial 0.05 --backoff-max 0.2"

    echo "[smoke C] golden --out run..."
    # shellcheck disable=SC2086
    "$CAMPAIGN" $CGRID $CSUP --out "$WORK/fleet-gold" \
        || fail "golden campaign failed"

    echo "[smoke C] two executors join; one self-partitions past the" \
         "lease grace..."
    FLEET="$WORK/fleet"
    # Executor 1: partition chaos only (the huge --chaos-interval keeps
    # worker kills out of the picture). It SIGSTOPs itself for 4s with a
    # 1s lease grace, so on resume it MUST self-fence and exit 14.
    # shellcheck disable=SC2086
    "$CAMPAIGN" $CGRID $CSUP --join "$FLEET" --executor-id exec-1 \
        --lease-grace 1 \
        --chaos --chaos-seed 5 --chaos-interval 10000 \
        --chaos-partition-mean 0.6 --chaos-partition-duration 4 \
        --chaos-max-partitions 1 \
        > "$WORK/exec1.log" 2>&1 &
    PID1=$!
    # Executor 2: an honest survivor. It steals the partitioned
    # executor's shards after the grace and drains the grid.
    # shellcheck disable=SC2086
    "$CAMPAIGN" $CGRID $CSUP --join "$FLEET" --executor-id exec-2 \
        --lease-grace 1 \
        > "$WORK/exec2.log" 2>&1
    RC2=$?
    wait "$PID1"
    RC1=$?
    [ "$RC2" -eq 0 ] || {
        cat "$WORK/exec2.log" >&2
        fail "surviving executor: expected exit 0, got $RC2"
    }
    [ "$RC1" -eq 14 ] || {
        cat "$WORK/exec1.log" >&2
        fail "partitioned executor: expected exit 14 (lease-lost), got $RC1"
    }
    grep -q "self-fenced" "$WORK/exec1.log" \
        || fail "partitioned executor never reported a self-fence"
    grep -q "lease lost" "$WORK/exec1.log" \
        || fail "partitioned executor never reported the lost lease"

    diff -u "$WORK/fleet-gold/report.json" "$FLEET/report.json" \
        || fail "fleet report.json differs from the golden run"
    diff -u "$WORK/fleet-gold/report.csv" "$FLEET/report.csv" \
        || fail "fleet report.csv differs from the golden run"
    # The canonical journal must carry no trace of the fenced executor's
    # abandoned work: count its done events.
    DONE_COUNT=$(grep -c '"event":"done"' "$FLEET/journal.jsonl")
    [ "$DONE_COUNT" -eq 6 ] \
        || fail "canonical journal has $DONE_COUNT done events, want 6"
    echo "[smoke C] PASS: self-fence at exit 14, fleet report" \
         "byte-identical to the golden run"
fi

echo "[smoke] PASS: all phases"
