#!/usr/bin/env bash
# ab.sh — compare two commits on the benchmark, or on Go benchmarks, in
# alternating pairs of runs.
#
#   scripts/ab.sh [-n PAIRS] [-o OUT.json] PARENT CHANGE -- <benchmark/run.sh args>
#   scripts/ab.sh [-n PAIRS] [-o OUT.json] PARENT CHANGE -- -bench REGEXP [-benchtime T] PKG
#
#   scripts/ab.sh -n 10 -o ab.json HEAD~1 HEAD -- --workload embed-query --seconds 6
#   scripts/ab.sh HEAD "$(git stash create)" -- -bench 'Draw/SPN' -benchtime 30x ./internal/estimator
#
# PARENT and CHANGE are anything git names a commit by (`git stash create`
# names the working tree's tracked changes). Each is exported into a temp
# directory (lib.sh's export_rev) and built once: the benchmark program
# (./benchmark), or PKG's test binary when the arguments after -- start
# with -bench, whose go test flags are passed on as -test.* flags.
#
# Runs are one at a time, never in parallel: on a small host parallel legs
# would measure each other. Pair i runs PARENT first when i is odd and
# CHANGE first when it is even, so neither side always runs second. Per
# metric it prints each side's median and quartiles, the change of the
# medians, and how many pairs moved which way; -o writes the same, with
# every value, as JSON. PAIRS defaults to 10.
set -euo pipefail
source "$(dirname "$0")/lib.sh"

pairs=10 out=""
while getopts "n:o:" opt; do
	case "$opt" in
	n) pairs="$OPTARG" ;;
	o) out="$OPTARG" ;;
	*) exit 2 ;;
	esac
done
shift $((OPTIND - 1))
if [ $# -lt 3 ] || [ "$3" != "--" ]; then
	echo "usage: scripts/ab.sh [-n PAIRS] [-o OUT.json] PARENT CHANGE -- ARGS..." >&2
	exit 2
fi
parent="$1" change="$2"
shift 3
args=("$@")

repo="$(git rev-parse --show-toplevel)"
tmp="$(mktemp -d "${TMPDIR:-/tmp}/ab.XXXXXX")"
trap 'rm -rf "$tmp"' EXIT

# In bench mode the package is the argument that is not a flag or a flag's
# value; every flag becomes its -test. form. Flags other than -benchmem,
# -short and -v take a value, as the next argument or after "=".
mode=run pkg="" runargs=()
if [ "${args[0]:-}" = "-bench" ]; then
	mode=bench
	for ((i = 0; i < ${#args[@]}; i++)); do
		a="${args[$i]}"
		case "$a" in
		-*=* | -benchmem | -short | -v) runargs+=("-test.${a#-}") ;;
		-*)
			runargs+=("-test.${a#-}" "${args[$((i + 1))]}")
			i=$((i + 1))
			;;
		*) pkg="$a" ;;
		esac
	done
	[ -n "$pkg" ] || { echo "ab.sh: -bench needs a package" >&2; exit 2; }
	runargs=(-test.run '^$' "${runargs[@]}")
else
	runargs=("${args[@]}")
fi

# build exports commit $2 as side $1 and builds its binary, $tmp/$1/ab.bin.
build() {
	local side="$1" rev
	rev="$(export_rev "$repo" "$2" "$tmp/$side")"
	echo "$side: $2 ($rev)" >&2
	if [ "$mode" = bench ]; then
		(cd "$tmp/$side" && go test -c -buildvcs=false -o ab.bin "$pkg")
	else
		(cd "$tmp/$side" && go build -buildvcs=false -o ab.bin ./benchmark)
	fi
}
build parent "$parent"
build change "$change"

# leg runs one side once and appends "metric<TAB>side<TAB>pair<TAB>value"
# rows to $tmp/data.tsv: each workload's metrics from the benchmark's
# closing JSON line, or each value/unit pair of a Go benchmark line.
leg() {
	local side="$1" pair="$2" dir="$tmp/$1" log="$tmp/$1.$2.log"
	[ "$mode" = bench ] && dir="$dir/$pkg"
	(cd "$dir" && "$tmp/$side/ab.bin" "${runargs[@]}") >"$log" 2>&1 ||
		{ echo "ab.sh: $side leg $pair failed; its output:" >&2; cat "$log" >&2; exit 1; }
	if [ "$mode" = bench ]; then
		awk -v s="$side" -v p="$pair" '/^Benchmark/ {
			for (i = 3; i < NF; i += 2) printf "%s %s\t%s\t%s\t%s\n", $1, $(i + 1), s, p, $i
		}' "$log"
	else
		awk '/^workload / { w = $2 } /^\{"correct"/ { print w "\t" $0 }' "$log" |
			while IFS=$'\t' read -r w json; do
				grep -oE '"[^"]+":\{"value":[-+0-9.eE]+' <<<"$json" |
					sed -E "s/^\"([^\"]+)\":\{\"value\":(.*)$/$w\/\1\t$side\t$pair\t\2/"
			done
	fi >>"$tmp/data.tsv"
}

for ((p = 1; p <= pairs; p++)); do
	if ((p % 2)); then order=(parent change); else order=(change parent); fi
	for side in "${order[@]}"; do leg "$side" "$p"; done
	echo "pair $p of $pairs done (${order[0]} first)" >&2
done

# Summary: per metric and side the median and quartiles (the median of each
# half, the middle value in neither), then per pair whether CHANGE came out
# lower, higher or equal.
sort -t$'\t' -k1,1 -k2,2 -k4,4g "$tmp/data.tsv" | awk -F'\t' \
	-v parent="$parent" -v change="$change" -v pairs="$pairs" -v args="${args[*]}" -v out="$out" '
function quart(lo, hi,   n, m) { # median of v[lo..hi]
	n = hi - lo + 1; m = lo + int((n - 1) / 2)
	return n % 2 ? v[m] : (v[m] + v[m + 1]) / 2
}
function flush(   n, h) {
	if (cur == "") return
	n = cnt; h = int(n / 2)
	med[cur] = quart(1, n)
	q1[cur] = n > 1 ? quart(1, h) : v[1]
	q3[cur] = n > 1 ? quart(n - h + 1, n) : v[1]
	vals[cur] = list
}
{
	k = $1 SUBSEP $2
	if (k != cur) { flush(); cur = k; cnt = 0; list = "" }
	v[++cnt] = $4; list = list (cnt > 1 ? ", " : "") $4
	by[$1, $2, $3] = $4; keys[$1] = 1
}
END {
	flush()
	printf "%-48s %26s %26s %8s  %s\n", "metric", "parent median [q1, q3]", "change median [q1, q3]", "change", "lower/higher/equal"
	if (out != "") printf "{\"parent\": \"%s\", \"change\": \"%s\", \"pairs\": %d, \"args\": \"%s\", \"metrics\": {", parent, change, pairs, args > out
	sep = ""
	for (m in keys) {
		lo = hi = eq = 0
		for (p = 1; p <= pairs; p++) {
			if (!((m, "parent", p) in by) || !((m, "change", p) in by)) continue
			d = by[m, "change", p] - by[m, "parent", p]
			if (d < 0) lo++; else if (d > 0) hi++; else eq++
		}
		a = m SUBSEP "parent"; b = m SUBSEP "change"
		rel = med[a] != 0 ? sprintf("%+.1f%%", 100 * (med[b] - med[a]) / med[a]) : "-"
		printf "%-48s %10.4g [%.4g, %.4g] %10.4g [%.4g, %.4g] %8s  %d/%d/%d\n", m, med[a], q1[a], q3[a], med[b], q1[b], q3[b], rel, lo, hi, eq
		if (out != "") {
			printf "%s\n  \"%s\": {\"parent\": {\"median\": %.6g, \"q1\": %.6g, \"q3\": %.6g, \"sorted\": [%s]}, \"change\": {\"median\": %.6g, \"q1\": %.6g, \"q3\": %.6g, \"sorted\": [%s]}, \"lower\": %d, \"higher\": %d, \"equal\": %d}", sep, m, med[a], q1[a], q3[a], vals[a], med[b], q1[b], q3[b], vals[b], lo, hi, eq > out
			sep = ","
		}
	}
	if (out != "") print "\n}}" > out
}' | { read -r header; echo "$header"; sort; }
