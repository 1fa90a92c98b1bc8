#!/bin/sh
# bench_policy.sh — the interval-policy replay engine's speed floor
# (make bench-policy).
#
# Runs BenchmarkPolicyStudyDirect and BenchmarkPolicyStudyReplay (bench_test.go):
# the same Section 6 cells — turb3d and vortex with their candidate size
# pairs × {fixed(0), fixed(1), interval-adaptive} × switch penalty
# {0, 50, 200} — simulated once on a private QueueMachine per cell (direct)
# and once as production runs them (replay: fixed cells replay one shared
# interval family per application and size, and the three penalties'
# adaptive cells race as columns of one core.MultiPolicy.Race). Both legs
# run on one sweep worker; every iteration starts from cold trace stores
# and interval families. TestPolicyStudyReplayShares (bench_test.go) is the
# deterministic companion: the replay's policy.core_cells / policy.cells
# must not grow.
#
# Each benchmark runs 5 times, alternating direct and replay so host
# speed drift hits both alike; the gate compares their median ns/op and
# fails unless direct/replay >= 1.5 — the acceptance floor of the one-pass
# policy engine. Byte identity of the two paths is a test, not part of this
# script (internal/core TestMultiPolicyTransitionCosts).
set -eu

GO=${GO:-go}
OUT=$(mktemp -d)
trap 'rm -rf "$OUT"' EXIT

$GO test -c -o "$OUT/capsim.test" . >/dev/null
i=0
while [ "$i" -lt 5 ]; do
	for leg in Direct Replay; do
		"$OUT/capsim.test" -test.run '^$' -test.bench "^BenchmarkPolicyStudy$leg\$" \
			-test.benchtime 1x -test.count 1 > "$OUT/run.txt" || {
			cat "$OUT/run.txt" >&2
			echo "bench-policy: BenchmarkPolicyStudy$leg failed" >&2
			exit 1
		}
		awk -v leg="$leg" '$1 ~ /^BenchmarkPolicyStudy/ { print leg, $3 }' "$OUT/run.txt" >> "$OUT/ns.txt"
	done
	i=$((i + 1))
done

# median LEG prints the median ns/op of LEG's samples; it fails unless every
# round produced one.
median() {
	n=$(grep -c "^$1 " "$OUT/ns.txt" || true)
	if [ "$n" -ne 5 ]; then
		echo "bench-policy: BenchmarkPolicyStudy$1 reported ns/op in $n of 5 rounds" >&2
		exit 1
	fi
	grep "^$1 " "$OUT/ns.txt" | awk '{ print $2 }' | sort -n | awk 'NR == 3'
}
direct=$(median Direct)
replay=$(median Replay)
awk -v d="$direct" -v r="$replay" 'BEGIN {
	if (r <= 0 || d / r < 1.5) {
		printf "bench-policy: replay speedup %.2fx below the 1.5x floor (median of 5: direct %.0f ns/op, replay %.0f ns/op)\n", (r > 0 ? d / r : 0), d, r > "/dev/stderr"
		exit 1
	}
	printf "bench-policy: replay speedup %.2fx (floor 1.5x; median of 5: direct %.0f ns/op, replay %.0f ns/op)\n", d / r, d, r
}'
