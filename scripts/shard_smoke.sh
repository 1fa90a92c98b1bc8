#!/bin/sh
# shard_smoke.sh — CI gate for the sharded sweep tier (make bench-shard-smoke).
#
# Proves the shard/merge contract end to end on a tiny-budget fig10:
#
#   1. Static shards: running bucket 0/2 and 1/2 as separate processes
#      (each publishing only its owned study rows to a shared persistent
#      cache) and then merging — a plain run against the warm cache —
#      renders byte-identical to a never-sharded baseline.
#      Each shard writes its own run manifest, which records the rows it
#      published (memo.persist_writes > 0).
#   2. The merge actually reused the shards' work: its run manifest shows
#      memo.persist_hits > 0 and memo.persist_misses == 0 (every study row
#      was served from the cache, none recomputed).
#   3. Removed flags stay removed: the retired shard coordinator and the
#      one-shot bench report are usage errors (exit 2), not silent aliases.
#      So is -shard under -serve-api, which has no per-id loop to shard.
#
# The CLI's timing footer is the only line stripped from comparisons (same
# idiom as bench-obs-smoke). Requires: go, jq. Writes only under /tmp.
set -eu

GO=${GO:-go}
TMP=/tmp/capsim_shard_smoke
rm -rf "$TMP"
mkdir -p "$TMP"
BIN="$TMP/capsim"
B="-parallel 2 -queue-instrs 3000"

fail() {
	echo "shard-smoke FAIL: $*" >&2
	exit 1
}

$GO build -o "$BIN" ./cmd/capsim

# --- baseline: never sharded, no persistent cache --------------------------
"$BIN" -experiment fig10 $B | grep -v '^(fig10 in ' > "$TMP/base.txt"

# --- 1. static shards + merge ----------------------------------------------
for i in 0 1; do
	"$BIN" -experiment fig10 $B -shard $i/2 -study-cache "$TMP/static" \
		-metrics-out "$TMP/shard$i.manifest.json" 2>/dev/null > "$TMP/shard$i.txt"
	# Shard workers render nothing: stdout is reserved for the merge.
	[ -s "$TMP/shard$i.txt" ] && fail "static shard $i/2 wrote to stdout"
	[ -s "$TMP/shard$i.manifest.json" ] || fail "static shard $i/2 wrote no run manifest"
	writes=$(jq -r '.final.counters["memo.persist_writes"] // 0' "$TMP/shard$i.manifest.json")
	[ "$writes" -gt 0 ] || fail "static shard $i/2 published no study rows (persist_writes=$writes)"
done
"$BIN" -experiment fig10 $B -study-cache "$TMP/static" \
	-metrics-out "$TMP/merge.manifest.json" 2>/dev/null \
	| grep -v '^(fig10 in ' > "$TMP/merged.txt"
cmp -s "$TMP/base.txt" "$TMP/merged.txt" || {
	diff "$TMP/base.txt" "$TMP/merged.txt" >&2 || true
	fail "static-shard merge differs from unsharded baseline"
}

# --- 2. the merge reused the shards' rows ----------------------------------
hits=$(jq -r '.final.counters["memo.persist_hits"] // 0' "$TMP/merge.manifest.json")
misses=$(jq -r '.final.counters["memo.persist_misses"] // 0' "$TMP/merge.manifest.json")
[ "$hits" -gt 0 ] || fail "merge took no persistent-cache hits (hits=$hits)"
[ "$misses" -eq 0 ] || fail "merge recomputed $misses study rows the shards should have published"

# --- 3. usage errors ---------------------------------------------------------
# timeout bounds the -serve-api leg: a regression there would start a server.
for args in "-shard-coordinator 2" "-bench-json $TMP/bench.json" "-shard 0/2 -serve-api 127.0.0.1:0"; do
	rc=0
	timeout 60 "$BIN" -experiment fig10 $B $args -study-cache "$TMP/static" >/dev/null 2>&1 || rc=$?
	[ "$rc" -eq 2 ] || fail "capsim $args exited $rc, want 2 (usage error)"
done

echo "shard-smoke ok (static merge byte-identical; shards wrote manifests; merge served $hits rows from the shard cache; usage errors rejected)"
