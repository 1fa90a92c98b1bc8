#!/usr/bin/env bash
# Builds capsim's benchmark from source and runs it. From the repository root:
#
#   bash capbench/run.sh --workload <process-cold|interval-cold|api-warm> \
#       --seed <n> --seconds <s> --trace <0|1>
#
# Everything the build and the runs leave behind goes under $CARGO_TARGET_DIR
# (default .bench_build) in the repository root, the Go build cache included.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/capsim || ! -f capbench/go.mod ]]; then
	echo "capbench: run from the capsim repository root (needs go.mod, cmd/capsim, capbench/)" >&2
	exit 2
fi
out=${CARGO_TARGET_DIR:-.bench_build}
mkdir -p "$out"
out=$(cd "$out" && pwd)
export GOCACHE="$out/go-build" GOTMPDIR="$out/go-tmp" GOPATH="$out/go-path"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
mkdir -p "$GOTMPDIR"
(cd capbench && go build -o "$out/bin/capbench" .) >&2
exec "$out/bin/capbench" -root . -out "$out" "$@"
