#!/usr/bin/env bash
# cluster_smoke.sh — multi-node serving smoke for the cluster layer.
#
# Boots a 3-node latestd cluster (each daemon owns a stripe of the world
# via a shared partition map) behind a latest-router proxy, then:
#
#   1. drives a closed-loop mixed feed/query load through the router with
#      zero protocol errors tolerated;
#   2. checks conservation: every object the loadgen fed must be resident
#      on exactly one node — the sum of the three nodes' window sizes
#      equals the loadgen's feed_objects count (the shell-level version of
#      the whole-world-query == sum-of-per-node-queries invariant; the
#      byte-exact form runs in Go as TestClusterExactness);
#   3. requires every routing mode to have fired (forward, scatter,
#      broadcast) and zero node errors on the router's metrics plane;
#   4. finds the latest_server_* families in the router's scrape and lints
#      it live, latest_cluster_* included;
#   5. SIGTERMs router and nodes and requires clean drains.
#
# Usage: scripts/cluster_smoke.sh [workdir]
set -euo pipefail

WORK="${1:-$(mktemp -d)}"
LATESTD="${LATESTD:-./latestd}"
ROUTER="${ROUTER:-./latest-router}"
LOADGEN="${LOADGEN:-./latest-loadgen}"
cd "$(dirname "$0")/.." || exit 1
mkdir -p "$WORK"

# The map must name node addresses before the daemons start, so the smoke
# uses fixed ports; BASE can be moved if the range is taken.
BASE="${BASE:-17707}"
N1="127.0.0.1:$BASE"
N2="127.0.0.1:$((BASE + 10))"
N3="127.0.0.1:$((BASE + 20))"
WORLD="-125,24,-66,50" # Twitter dataset world, same as loadgen's default

source scripts/lib.sh

metric_value() { # metrics-file pattern -> value (0 when absent)
    local line
    line=$(grep -v '^#' "$1" | grep "$2" | head -1) || true
    [ -n "$line" ] && echo "$line" | awk '{print $NF}' || echo 0
}

echo "== author the partition map =="
"$ROUTER" -write-map -world "$WORLD" -grid 9x3 \
    -nodes "$N1,$N2,$N3" -epoch 1 -out "$WORK/cluster.map"

echo "== boot 3 clustered nodes =="
NODE_PIDS=()
i=0
for addr in "$N1" "$N2" "$N3"; do
    "$LATESTD" -addr "$addr" -admin 127.0.0.1:0 \
        -addr-file "$WORK/node$i.addr" -shards 1 -window 10m \
        -world "$WORLD" -cluster-map "$WORK/cluster.map" -node-id "$i" \
        >"$WORK/node$i.out" 2>"$WORK/node$i.err" &
    NODE_PIDS+=($!)
    i=$((i + 1))
done
for i in 0 1 2; do
    wait_addr_file "$WORK/node$i.addr"
done

echo "== boot the router =="
"$ROUTER" -map "$WORK/cluster.map" -addr 127.0.0.1:0 -admin 127.0.0.1:0 \
    -addr-file "$WORK/router.addr" \
    >"$WORK/router.out" 2>"$WORK/router.err" &
RPID=$!
wait_addr_file "$WORK/router.addr"
RADDR=$(sed -n 1p "$WORK/router.addr")
RADMIN=$(sed -n 2p "$WORK/router.addr")

echo "== closed-loop load through the router, zero errors =="
"$LOADGEN" -addr "$RADDR" -conns 4 -requests 3000 \
    -feed-frac 0.9 -batch 32 -seed 42 -out "$WORK/cluster-report.json"
grep -q '"errors": 0' "$WORK/cluster-report.json"
FED=$(grep -o '"feed_objects": *[0-9]*' "$WORK/cluster-report.json" | grep -o '[0-9]*$')
echo "loadgen fed $FED objects through the router"

echo "== conservation: sum of per-node windows == objects fed =="
TOTAL=0
for i in 0 1 2; do
    ADMIN=$(sed -n 2p "$WORK/node$i.addr")
    W=$(statusz_field "$ADMIN" "window_size")
    echo "node $i window_size=$W"
    [ "$W" -gt 0 ] || { echo "FAIL: node $i holds no objects — routing never reached it" >&2; exit 1; }
    TOTAL=$((TOTAL + W))
done
if [ "$TOTAL" -ne "$FED" ]; then
    echo "FAIL: nodes hold $TOTAL objects, loadgen fed $FED (lost or duplicated across partitions)" >&2
    exit 1
fi
echo "conservation holds: $TOTAL == $FED"

echo "== router metrics: every routing mode fired, zero failures =="
curl -sf "http://$RADMIN/metrics" > "$WORK/router-metrics.txt"
grep -q 'latest_cluster_epoch 1' "$WORK/router-metrics.txt"
grep -q 'latest_cluster_nodes 3' "$WORK/router-metrics.txt"
for mode in forward scatter broadcast; do
    V=$(metric_value "$WORK/router-metrics.txt" "latest_cluster_routing_total{mode=\"$mode\"}")
    echo "routing mode $mode: $V"
    [ "$V" -gt 0 ] || { echo "FAIL: routing mode $mode never fired" >&2; exit 1; }
done
for counter in node_errors_total retries_total; do
    V=$(metric_value "$WORK/router-metrics.txt" "latest_cluster_$counter")
    [ "$V" -eq 0 ] || { echo "FAIL: latest_cluster_$counter = $V, want 0" >&2; exit 1; }
done
# Each node must have carried real subquery traffic.
for addr in "$N1" "$N2" "$N3"; do
    V=$(metric_value "$WORK/router-metrics.txt" "latest_cluster_node_requests_total{node=\"$addr\"}")
    echo "node $addr carried $V requests"
    [ "$V" -gt 0 ] || { echo "FAIL: node $addr carried no requests" >&2; exit 1; }
done

echo "== router metrics: the serving families a node exports =="
# The router runs the connection loop latestd runs, so its scrape carries
# latest_server_* beside latest_cluster_*.
grep '^latest_server_requests_total{op="feed"}' "$WORK/router-metrics.txt" || {
    echo "FAIL: router scrape has no latest_server_requests_total" >&2; exit 1; }

echo "== metrics-lint the live router scrape =="
go run ./cmd/latest-metrics-lint -url "http://$RADMIN/metrics"

echo "== graceful drain: router first, then the nodes =="
kill -TERM "$RPID"
wait "$RPID"
grep -q 'latest-router stopped' "$WORK/router.out"
for i in 0 1 2; do
    kill -TERM "${NODE_PIDS[$i]}"
done
for i in 0 1 2; do
    wait "${NODE_PIDS[$i]}"
    grep -q 'latestd stopped' "$WORK/node$i.out"
done

echo "PASS: cluster smoke"
