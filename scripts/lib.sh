# lib.sh — helpers the smoke scripts (and ci.yml's serve job) share.
# Source it; it sets no options and starts nothing by itself.
#
#   source "$(dirname "$0")/lib.sh"

# wait_addr_file waits for a daemon's -addr-file: two lines, the wire
# address and the admin address.
wait_addr_file() { # file
    for _ in $(seq 1 150); do
        [ -s "$1" ] && [ "$(wc -l < "$1")" -ge 2 ] && return 0
        sleep 0.1
    done
    echo "FAIL: $1 never appeared" >&2
    return 1
}

# wait_gone waits for a process this shell cannot `wait` for: start_daemon
# runs inside a command substitution, so its daemon is not a child of the
# calling shell.
wait_gone() { # pid
    for _ in $(seq 1 150); do
        kill -0 "$1" 2>/dev/null || return 0
        sleep 0.1
    done
    echo "FAIL: pid $1 still running" >&2
    return 1
}

# http_grep buffers the body before grepping. Piping curl straight into
# grep -q under pipefail is a flake: grep exits at the first match, curl
# takes EPIPE on the unwritten tail of a large body and exits 23, and the
# pipeline "fails" despite the match.
http_grep() { # url pattern
    local body
    body=$(curl -sf "$1") || return 1
    grep -q "$2" <<<"$body"
}

# statusz_field prints the first numeric value /statusz has under a key.
statusz_field() { # admin-addr json-key
    local body
    body=$(curl -sf "http://$1/statusz") || return 1
    grep -o "\"$2\": *[0-9]*" <<<"$body" | head -1 | grep -o '[0-9]*$'
}

# start_daemon starts a durable latestd ($LATESTD) over $DATA on
# kernel-picked ports, fsyncing every WAL record so that recovery must be
# exact, and prints its pid. Flags after the third argument are passed on.
start_daemon() { # addr-file out err [latestd flags...]
    local addrf="$1" out="$2" err="$3"
    shift 3
    "$LATESTD" -addr 127.0.0.1:0 -admin 127.0.0.1:0 -addr-file "$addrf" \
        -shards 1 -window 10m -data-dir "$DATA" -wal-sync-every 1 "$@" \
        >"$out" 2>"$err" &
    echo $!
}
