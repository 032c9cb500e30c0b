#!/usr/bin/env bash
# recovery_smoke.sh — process-level durability check for latestd.
#
# Drives a durable latestd under load, SIGKILLs it mid-run, restarts it
# from the same data directory and asserts the recovered engine state
# (window size via /statusz) matches what the killed process had — the
# WAL is fsynced every record here, so recovery must be exact, not
# merely close. Finally corrupts the snapshot and asserts the daemon
# refuses to start rather than serving partial state.
#
# Usage: scripts/recovery_smoke.sh [workdir]
set -euo pipefail

WORK="${1:-$(mktemp -d)}"
DATA="$WORK/data"
LATESTD="${LATESTD:-./latestd}"
LOADGEN="${LOADGEN:-./latest-loadgen}"
cd "$(dirname "$0")/.." || exit 1

source scripts/lib.sh

# Every start of the daemon in this script takes the same flags.
start() { # addr-file out err
    start_daemon "$@" -snapshot-interval 2s
}

mkdir -p "$WORK"

echo "== phase 1: feed under load, then SIGKILL =="
PID=$(start "$WORK/addr1" "$WORK/run1.out" "$WORK/run1.err")
wait_addr_file "$WORK/addr1"
ADDR=$(sed -n 1p "$WORK/addr1")
ADMIN=$(sed -n 2p "$WORK/addr1")
grep -q "durability=$DATA" "$WORK/run1.out" || {
    echo "FAIL: startup line does not report durability"; cat "$WORK/run1.out"; exit 1; }

"$LOADGEN" -addr "$ADDR" -conns 4 -requests 200 -feed-frac 1.0 -batch 64 \
    -seed 42 -out "$WORK/load1.json"
grep -q '"errors": 0' "$WORK/load1.json"

# Let at least one periodic snapshot land, then record the engine state.
sleep 3
BEFORE=$(statusz_field "$ADMIN" window_size)
[ -n "$BEFORE" ] && [ "$BEFORE" -gt 0 ] || {
    echo "FAIL: no window size before crash (got '$BEFORE')"; exit 1; }
echo "window before SIGKILL: $BEFORE"

kill -9 "$PID"
wait_gone "$PID"

echo "== phase 2: restart from disk, state must match exactly =="
PID=$(start "$WORK/addr2" "$WORK/run2.out" "$WORK/run2.err")
wait_addr_file "$WORK/addr2"
ADDR=$(sed -n 1p "$WORK/addr2")
ADMIN=$(sed -n 2p "$WORK/addr2")
grep -Eq "durability=$DATA gen=[0-9]+ wal=[0-9]+" "$WORK/run2.out" || {
    echo "FAIL: restart did not report recovered generation"; cat "$WORK/run2.out"; exit 1; }

AFTER=$(statusz_field "$ADMIN" window_size)
echo "window after recovery: $AFTER"
if [ "$AFTER" != "$BEFORE" ]; then
    echo "FAIL: recovered window size $AFTER != pre-crash $BEFORE (WAL is fsynced per record; recovery must be exact)"
    exit 1
fi

# The recovered daemon must keep serving: mixed feed/estimate traffic.
"$LOADGEN" -addr "$ADDR" -conns 2 -requests 100 -feed-frac 0.5 -batch 16 \
    -seed 43 -out "$WORK/load2.json"
grep -q '"errors": 0' "$WORK/load2.json"

# Graceful drain takes a final snapshot.
kill -TERM "$PID"
wait_gone "$PID"
grep -q 'latestd final snapshot gen=' "$WORK/run2.out" || {
    echo "FAIL: drain did not take a final snapshot"; cat "$WORK/run2.out"; exit 1; }

echo "== phase 3: corrupt every snapshot generation, startup must refuse with the typed reason =="
# One corrupt generation falls back to the previous one (that path is
# exercised by disk_chaos_smoke.sh); only a data dir with no valid
# generation at all is a refusal.
ls "$DATA"/snapshot*.snap >/dev/null 2>&1 || {
    echo "FAIL: no snapshot files in $DATA"; ls -la "$DATA"; exit 1; }
for snap in "$DATA"/snapshot*.snap; do
    printf 'XXXX' | dd of="$snap" bs=1 count=4 conv=notrunc status=none
done
if "$LATESTD" -addr 127.0.0.1:0 -admin 127.0.0.1:0 \
    -shards 1 -window 10m -data-dir "$DATA" \
    >"$WORK/run3.out" 2>"$WORK/run3.err"; then
    echo "FAIL: daemon served from a corrupt data directory"; exit 1
fi
grep -q "recover $DATA" "$WORK/run3.err" || {
    echo "FAIL: refusal does not name the data dir and typed code"; cat "$WORK/run3.err"; exit 1; }
echo "refusal: $(grep "recover $DATA" "$WORK/run3.err" | head -1)"

echo "PASS: recovery smoke"
