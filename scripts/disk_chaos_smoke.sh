#!/usr/bin/env bash
# disk_chaos_smoke.sh — degraded-mode durability drill for latestd.
#
# Runs a durable latestd with deterministic disk-fault injection
# (-disk-fault): mid-run, WAL appends start failing as if the disk were
# full. The daemon must degrade — serving continues with zero client
# errors while appends are dropped and counted — then self-repair with a
# fresh snapshot generation and go back to healthy. After a SIGKILL the
# restart (faults off) must recover the exact pre-crash state. Then the
# newest snapshot generation is corrupted: recovery must fall back to the
# previous generation plus both WAL generations, still exact. Finally
# every generation is corrupted: startup must refuse with the typed
# reason rather than serve partial state.
#
# Usage: scripts/disk_chaos_smoke.sh [workdir]
set -euo pipefail

WORK="${1:-$(mktemp -d)}"
DATA="$WORK/data"
LATESTD="${LATESTD:-./latestd}"
LOADGEN="${LOADGEN:-./latest-loadgen}"
cd "$(dirname "$0")/.." || exit 1

source scripts/lib.sh

statusz_has() { # admin-addr pattern
    http_grep "http://$1/statusz" "$2"
}

# Every start of the daemon in this script keeps two snapshot generations,
# one second apart; a phase's own flags follow.
start() { # addr-file out err [latestd flags...]
    start_daemon "$@" -snapshot-interval 1s -snapshot-retain 2
}

mkdir -p "$WORK"

echo "== phase 1: WAL appends fail mid-run; serving must not notice =="
# The rule counts WAL writes, and a feed batch — or several pipelined ones
# the server coalesced — is one write. After 20 healthy writes the next 5
# fail: each failure degrades the engine and drops its whole batch, the
# repair loop re-arms it with a fresh snapshot generation, and the cycle
# repeats while load lasts or until the rule expires.
PID=$(start "$WORK/addr1" "$WORK/run1.out" "$WORK/run1.err" \
    -disk-fault "append:after=20,count=5")
wait_addr_file "$WORK/addr1"
ADDR=$(sed -n 1p "$WORK/addr1")
ADMIN=$(sed -n 2p "$WORK/addr1")
grep -q "disk-fault injection armed" "$WORK/run1.err" || {
    echo "FAIL: daemon did not log the armed fault spec"; cat "$WORK/run1.err"; exit 1; }

# Feed-only load: well past the fault window (600 feed batches are 600
# WAL writes, fewer only where the server coalesced pipelined frames).
# Zero errors is the headline assertion — degraded mode must be invisible
# to clients.
"$LOADGEN" -addr "$ADDR" -conns 4 -requests 600 -feed-frac 1.0 -batch 32 \
    -seed 42 -out "$WORK/load1.json"
grep -q '"errors": 0' "$WORK/load1.json" || {
    echo "FAIL: clients saw errors while the disk was failing"
    cat "$WORK/load1.json"; exit 1; }

# Feed frames are pipelined: loadgen can exit while the server is still
# draining its final batches, and every drained append may consume another
# fault and re-degrade the engine. Wait until all 600*32 objects have
# landed — only then is the degrade/repair cycle guaranteed to be over and
# the state machine's position stable enough to assert on.
TOTAL=$((600 * 32))
for _ in $(seq 1 150); do
    [ "$(statusz_field "$ADMIN" window_size)" = "$TOTAL" ] && break
    sleep 0.1
done
[ "$(statusz_field "$ADMIN" window_size)" = "$TOTAL" ] || {
    echo "FAIL: engine absorbed $(statusz_field "$ADMIN" window_size) of $TOTAL fed objects"
    exit 1; }

DEGRADATIONS=$(statusz_field "$ADMIN" degradations)
DROPPED=$(statusz_field "$ADMIN" dropped_appends)
[ -n "$DEGRADATIONS" ] && [ "$DEGRADATIONS" -ge 1 ] || {
    echo "FAIL: no degradations recorded (got '$DEGRADATIONS') — fault spec never fired"
    curl -sf "http://$ADMIN/statusz" || true; exit 1; }
[ -n "$DROPPED" ] && [ "$DROPPED" -ge 1 ] || {
    echo "FAIL: no dropped appends recorded (got '$DROPPED')"; exit 1; }
echo "degradations: $DEGRADATIONS dropped appends: $DROPPED"

# The repair loop must settle the machine back to healthy on its own.
for _ in $(seq 1 100); do
    statusz_has "$ADMIN" '"state": *"healthy"' && break
    sleep 0.1
done
statusz_has "$ADMIN" '"state": *"healthy"' || {
    echo "FAIL: engine still degraded after faults expired"
    curl -sf "http://$ADMIN/statusz" || true; exit 1; }
REPAIRS=$(statusz_field "$ADMIN" repairs)
[ -n "$REPAIRS" ] && [ "$REPAIRS" -ge 1 ] || {
    echo "FAIL: healthy again but zero repairs recorded (got '$REPAIRS')"; exit 1; }
http_grep "http://$ADMIN/metrics" '^latest_durable_state 0' || {
    echo "FAIL: /metrics does not report latest_durable_state 0"; exit 1; }
echo "repairs: $REPAIRS"

# Let a couple of healthy snapshot generations land (1s interval), so the
# two retained generations both postdate the repair: the later fallback
# phase must then be exact.
sleep 3
BEFORE=$(statusz_field "$ADMIN" window_size)
[ -n "$BEFORE" ] && [ "$BEFORE" -gt 0 ] || {
    echo "FAIL: no window size before crash (got '$BEFORE')"; exit 1; }
echo "window before SIGKILL: $BEFORE"

kill -9 "$PID"
wait_gone "$PID"

echo "== phase 2: restart (faults off), state must match exactly =="
PID=$(start "$WORK/addr2" "$WORK/run2.out" "$WORK/run2.err")
wait_addr_file "$WORK/addr2"
ADMIN=$(sed -n 2p "$WORK/addr2")
grep -q "state=healthy" "$WORK/run2.out" || {
    echo "FAIL: startup line does not report healthy durability"; cat "$WORK/run2.out"; exit 1; }
AFTER=$(statusz_field "$ADMIN" window_size)
echo "window after recovery: $AFTER"
if [ "$AFTER" != "$BEFORE" ]; then
    echo "FAIL: recovered window $AFTER != pre-crash $BEFORE (repair snapshots must carry dropped appends)"
    exit 1
fi
kill -TERM "$PID"
wait_gone "$PID"
grep -q 'latestd final snapshot gen=' "$WORK/run2.out" || {
    echo "FAIL: drain did not take a final snapshot"; cat "$WORK/run2.out"; exit 1; }

echo "== phase 3: corrupt newest generation, recovery must fall back exactly =="
NEWEST=$(ls "$DATA"/snapshot-*.snap | sort | tail -1)
[ -n "$NEWEST" ] || { echo "FAIL: no generation snapshots in $DATA"; ls -la "$DATA"; exit 1; }
SIZE=$(wc -c < "$NEWEST")
printf 'XXXX' | dd of="$NEWEST" bs=1 seek=$((SIZE / 2)) count=4 conv=notrunc status=none
echo "corrupted $NEWEST at offset $((SIZE / 2))"

PID=$(start "$WORK/addr3" "$WORK/run3.out" "$WORK/run3.err")
wait_addr_file "$WORK/addr3"
ADMIN=$(sed -n 2p "$WORK/addr3")
statusz_has "$ADMIN" '"recovered_fallback": *true' || {
    echo "FAIL: /statusz does not report a fallback recovery"
    curl -sf "http://$ADMIN/statusz" || true; exit 1; }
FALLBACK_WINDOW=$(statusz_field "$ADMIN" window_size)
echo "window after fallback: $FALLBACK_WINDOW"
if [ "$FALLBACK_WINDOW" != "$BEFORE" ]; then
    echo "FAIL: fallback window $FALLBACK_WINDOW != pre-crash $BEFORE (older snapshot + WAL chain must replay to the same state)"
    exit 1
fi
kill -TERM "$PID"
wait_gone "$PID"

echo "== phase 4: corrupt every generation, startup must refuse =="
for snap in "$DATA"/snapshot-*.snap; do
    printf 'XXXX' | dd of="$snap" bs=1 count=4 conv=notrunc status=none
done
if "$LATESTD" -addr 127.0.0.1:0 -admin 127.0.0.1:0 \
    -shards 1 -window 10m -data-dir "$DATA" \
    >"$WORK/run4.out" 2>"$WORK/run4.err"; then
    echo "FAIL: daemon served with every snapshot generation corrupt"; exit 1
fi
grep -q "recover $DATA" "$WORK/run4.err" || {
    echo "FAIL: refusal does not name the data dir and typed code"; cat "$WORK/run4.err"; exit 1; }
echo "refusal: $(grep "recover $DATA" "$WORK/run4.err" | head -1)"

echo "PASS: disk chaos smoke"
