#!/bin/sh
# bench_shard.sh — persistent study cache gate (make bench-shard).
#
# Times the full experiment registry three ways, all at -parallel 1 so the
# comparison is pure cache effect:
#
#   1. cold  — unsharded `-experiment all`, no study cache: the
#              single-process reference cost.
#   2. fill  — static shards `-shard 0/2` and `-shard 1/2` publish every
#              study row to a fresh cache (not timed).
#   3. warm  — unsharded `-experiment all` against that cache: every study
#              row is reused from disk, so it must beat the cold leg.
#
# Wall times are total_wall_ns from each timed run's -metrics-out manifest;
# no record file is written. Renders go to /dev/null: the byte-identity of
# shard merges is ci's bench-shard-smoke gate, not this benchmark's job.
# Requires: go, jq. Writes only under /tmp.
set -eu

GO=${GO:-go}
TMP=/tmp/capsim_bench_shard
rm -rf "$TMP"
mkdir -p "$TMP"
BIN="$TMP/capsim"
B="-experiment all -parallel 1"

$GO build -o "$BIN" ./cmd/capsim

"$BIN" $B -metrics-out "$TMP/cold.json" >/dev/null 2>&1
for i in 0 1; do
	"$BIN" $B -shard $i/2 -study-cache "$TMP/cache" 2>/dev/null
done
"$BIN" $B -study-cache "$TMP/cache" -metrics-out "$TMP/warm.json" >/dev/null 2>&1

cold=$(jq -r '.total_wall_ns' "$TMP/cold.json")
warm=$(jq -r '.total_wall_ns' "$TMP/warm.json")
echo "bench-shard: cold ${cold}ns vs warm ${warm}ns unsharded"
[ "$warm" -lt "$cold" ] || {
	echo "bench-shard: warm-cache run did not beat cold ($warm >= $cold)" >&2
	exit 1
}
