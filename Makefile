# capsim build/test/bench entry points. `make ci` is the gate every change
# must pass; `make bench` regenerates BENCH_sweep.json (serial vs parallel
# full-evaluation runs, each in a fresh process so the study memos are cold);
# `make bench-obs` regenerates BENCH_obs.json (obs-disabled vs obs-enabled
# overhead on the fig7/fig10 profiling passes, plus the fig12
# flight-recorder ledger-on/off x obs-on/off matrix); `make bench-shard`
# regenerates BENCH_shard.json (the shard tier's scaling curve at 1/2/4/8
# workers plus the persistent study cache's warm-vs-cold win); `make
# bench-policy` gates the interval-family replay's speedup over direct
# per-policy simulation (scripts/bench_policy.sh, floor 1.5x); `make
# bench-zoo` regenerates BENCH_zoo.json (the policy-zoo league race, serial
# vs 8-way parallel). Every BENCH_*.json record target refuses to overwrite a
# record whose recorded command no longer matches the built flags
# (scripts/bench_guard.sh); pass FORCE=1 to regenerate intentionally.

GO ?= go

.PHONY: all build test short race ci-race vet fmt staticcheck ci bench bench-obs bench-obs-smoke bench-shard bench-shard-smoke bench-policy bench-zoo bench-zoo-smoke serve-smoke clean

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

short:
	$(GO) test -short ./...

race:
	$(GO) test -race -timeout 30m ./...

# ci-race is the focused race lane over the concurrency-heavy packages — the
# flight recorder's publication fan-out, the obs counters, the API server's
# streaming/admission paths and the sweep pool — cheap enough to run on every
# iteration (the full `race` target covers the whole module).
ci-race:
	$(GO) test -race -timeout 10m ./internal/flight/ ./internal/obs/ ./internal/server/ ./internal/sweep/

vet:
	$(GO) vet ./...

fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# staticcheck installs itself on demand when absent (go install; needs
# network once) and runs; when the install fails — offline box — it warns
# loudly instead of failing, so ci still passes air-gapped but the skip is
# visible rather than silent.
staticcheck:
	@gobin="$$($(GO) env GOPATH)/bin"; \
	if ! command -v staticcheck >/dev/null 2>&1 && [ ! -x "$$gobin/staticcheck" ]; then \
		echo "staticcheck not installed; trying: $(GO) install honnef.co/go/tools/cmd/staticcheck@latest"; \
		$(GO) install honnef.co/go/tools/cmd/staticcheck@latest || true; \
	fi; \
	if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./... ; \
	elif [ -x "$$gobin/staticcheck" ]; then \
		"$$gobin/staticcheck" ./... ; \
	else \
		echo "WARNING: staticcheck unavailable and install failed (offline?); static analysis SKIPPED"; \
	fi

ci: fmt vet staticcheck build ci-race race bench-obs-smoke bench-shard-smoke bench-zoo-smoke serve-smoke

# serve-smoke boots the experiment API server (-serve-api) on an ephemeral
# port and proves the service contract end to end: POST /v1/run renders
# byte-identical to the CLI, a repeat request hits the response cache, a
# request against a busy run slot gets 429, a disconnected client's sweep
# stops claiming jobs, and SIGTERM drains the process to a zero exit.
serve-smoke:
	@GO="$(GO)" sh scripts/serve_smoke.sh

# bench writes BENCH_sweep.json: a two-element array holding the full
# -experiment all evaluation measured at -parallel 1 and at -parallel 8,
# with per-experiment wall time and allocation deltas. Compare
# total_wall_ns between the elements for the sweep speedup (on a
# single-core box the two legs tie — the pool adds no overhead — while the
# parallel leg still exercises the full worker machinery).
bench:
	@FORCE=$(FORCE) sh scripts/bench_guard.sh BENCH_sweep.json \
		"capsim -experiment all -parallel 1 -bench-json /tmp/capsim_bench_serial.json" \
		"capsim -experiment all -parallel 8 -bench-json /tmp/capsim_bench_parallel.json"
	$(GO) run ./cmd/capsim -experiment all -parallel 1 -bench-json /tmp/capsim_bench_serial.json >/dev/null
	$(GO) run ./cmd/capsim -experiment all -parallel 8 -bench-json /tmp/capsim_bench_parallel.json >/dev/null
	{ printf '[\n'; cat /tmp/capsim_bench_serial.json; printf ',\n'; \
	  cat /tmp/capsim_bench_parallel.json; printf ']\n'; } > BENCH_sweep.json
	@echo "wrote BENCH_sweep.json"

# bench-obs writes BENCH_obs.json: the fig7 (cache) and fig10 (queue)
# profiling passes measured with telemetry disabled (the default) and
# enabled (-obs plus a trace sink), plus the fig12 interval-trace pass
# across the flight-recorder matrix (ledger-on/off x obs-on/off), each in a
# fresh process from cold memos, all serial. The elements are distinguished
# by their obs_enabled field and recorded command; compare total_wall_ns
# within each figure pair for the overhead — the disabled-mode pair must be
# within noise (<2%) of the seed, which is the subsystem's "zero-overhead
# when off" contract, and the fig12 ledger-on legs must stay within 2% of
# ledger-off.
bench-obs:
	@FORCE=$(FORCE) sh scripts/bench_guard.sh BENCH_obs.json \
		"capsim -experiment fig7 -parallel 1 -bench-json /tmp/capsim_bench_obs_f7_off.json" \
		"capsim -experiment fig7 -parallel 1 -obs -trace-out /tmp/capsim_obs_f7.trace.json -bench-json /tmp/capsim_bench_obs_f7_on.json" \
		"capsim -experiment fig10 -parallel 1 -bench-json /tmp/capsim_bench_obs_f10_off.json" \
		"capsim -experiment fig10 -parallel 1 -obs -trace-out /tmp/capsim_obs_f10.trace.json -bench-json /tmp/capsim_bench_obs_f10_on.json" \
		"capsim -experiment fig12 -parallel 1 -bench-json /tmp/capsim_bench_obs_f12_off.json" \
		"capsim -experiment fig12 -parallel 1 -ledger-out /tmp/capsim_obs_f12.ledger.gz -bench-json /tmp/capsim_bench_obs_f12_ledger.json" \
		"capsim -experiment fig12 -parallel 1 -obs -bench-json /tmp/capsim_bench_obs_f12_obs.json" \
		"capsim -experiment fig12 -parallel 1 -obs -ledger-out /tmp/capsim_obs_f12_both.ledger.gz -bench-json /tmp/capsim_bench_obs_f12_both.json"
	$(GO) run ./cmd/capsim -experiment fig7 -parallel 1 -bench-json /tmp/capsim_bench_obs_f7_off.json >/dev/null
	$(GO) run ./cmd/capsim -experiment fig7 -parallel 1 -obs -trace-out /tmp/capsim_obs_f7.trace.json -bench-json /tmp/capsim_bench_obs_f7_on.json >/dev/null 2>/dev/null
	$(GO) run ./cmd/capsim -experiment fig10 -parallel 1 -bench-json /tmp/capsim_bench_obs_f10_off.json >/dev/null
	$(GO) run ./cmd/capsim -experiment fig10 -parallel 1 -obs -trace-out /tmp/capsim_obs_f10.trace.json -bench-json /tmp/capsim_bench_obs_f10_on.json >/dev/null 2>/dev/null
	$(GO) run ./cmd/capsim -experiment fig12 -parallel 1 -bench-json /tmp/capsim_bench_obs_f12_off.json >/dev/null
	$(GO) run ./cmd/capsim -experiment fig12 -parallel 1 -ledger-out /tmp/capsim_obs_f12.ledger.gz -bench-json /tmp/capsim_bench_obs_f12_ledger.json >/dev/null 2>/dev/null
	$(GO) run ./cmd/capsim -experiment fig12 -parallel 1 -obs -bench-json /tmp/capsim_bench_obs_f12_obs.json >/dev/null
	$(GO) run ./cmd/capsim -experiment fig12 -parallel 1 -obs -ledger-out /tmp/capsim_obs_f12_both.ledger.gz -bench-json /tmp/capsim_bench_obs_f12_both.json >/dev/null 2>/dev/null
	{ printf '[\n'; cat /tmp/capsim_bench_obs_f7_off.json; printf ',\n'; \
	  cat /tmp/capsim_bench_obs_f7_on.json; printf ',\n'; \
	  cat /tmp/capsim_bench_obs_f10_off.json; printf ',\n'; \
	  cat /tmp/capsim_bench_obs_f10_on.json; printf ',\n'; \
	  cat /tmp/capsim_bench_obs_f12_off.json; printf ',\n'; \
	  cat /tmp/capsim_bench_obs_f12_ledger.json; printf ',\n'; \
	  cat /tmp/capsim_bench_obs_f12_obs.json; printf ',\n'; \
	  cat /tmp/capsim_bench_obs_f12_both.json; printf ']\n'; } > BENCH_obs.json
	@echo "wrote BENCH_obs.json"

# bench-obs-smoke is the ci-gated variant: a tiny-budget fig10 run with
# telemetry off and with every sink on (-obs -obs-assert, trace + manifest),
# asserting byte-identical stdout renders (the timing footer is stripped; it
# is the only line allowed to differ) and that the trace and manifest files
# are produced; then a fig12 run with the flight recorder on (-ledger-out
# under -obs-assert, so the ledger invariants are live), asserting the
# render is byte-identical to recorder-off and that the recorded ledger
# parses back through `capsim -report`.
bench-obs-smoke:
	@$(GO) run ./cmd/capsim -experiment fig10 -parallel 2 -queue-instrs 3000 \
		| grep -v '^(fig10 in ' > /tmp/capsim_obs_off.txt
	@$(GO) run ./cmd/capsim -experiment fig10 -parallel 2 -queue-instrs 3000 \
		-obs -obs-assert -trace-out /tmp/capsim_obs_smoke.trace.json -metrics-out /tmp/capsim_obs_smoke.json \
		2>/dev/null | grep -v '^(fig10 in ' > /tmp/capsim_obs_on.txt
	@cmp /tmp/capsim_obs_off.txt /tmp/capsim_obs_on.txt || \
		{ echo "obs-enabled run rendered differently"; exit 1; }
	@test -s /tmp/capsim_obs_smoke.trace.json || { echo "trace file missing"; exit 1; }
	@test -s /tmp/capsim_obs_smoke.json || { echo "manifest missing"; exit 1; }
	@$(GO) run ./cmd/capsim -experiment fig12 -parallel 2 \
		| grep -v '^(fig12 in ' > /tmp/capsim_ledger_off.txt
	@$(GO) run ./cmd/capsim -experiment fig12 -parallel 2 \
		-obs-assert -ledger-out /tmp/capsim_obs_smoke.ledger.gz \
		2>/dev/null | grep -v '^(fig12 in ' > /tmp/capsim_ledger_on.txt
	@cmp /tmp/capsim_ledger_off.txt /tmp/capsim_ledger_on.txt || \
		{ echo "ledger-enabled run rendered differently"; exit 1; }
	@$(GO) run ./cmd/capsim -report /tmp/capsim_obs_smoke.ledger.gz | grep -q '^league:' || \
		{ echo "recorded ledger failed to parse back through -report"; exit 1; }
	@echo "bench-obs smoke ok (renders byte-identical with obs/assert/trace/manifest/ledger on; ledger round-trips)"

# bench-shard writes BENCH_shard.json (scripts/bench_shard.sh): the full
# registry measured unsharded from cold, under -shard-coordinator 1/2/4/8
# (each element's shard_wall_ns is the worker phase, total_wall_ns the
# merge), and unsharded against the warm persistent study cache the last
# shard leg left behind. The script fails if the warm leg does not beat
# the cold one — the persistent cache's reason to exist.
bench-shard:
	@FORCE=$(FORCE) sh scripts/bench_guard.sh BENCH_shard.json \
		"capsim -experiment all -parallel 1 -bench-json /tmp/capsim_bench_shard/cold.json" \
		"capsim -experiment all -parallel 1 -shard-coordinator 1 -study-cache /tmp/capsim_bench_shard/cache -bench-json /tmp/capsim_bench_shard/shard1.json" \
		"capsim -experiment all -parallel 1 -shard-coordinator 2 -study-cache /tmp/capsim_bench_shard/cache -bench-json /tmp/capsim_bench_shard/shard2.json" \
		"capsim -experiment all -parallel 1 -shard-coordinator 4 -study-cache /tmp/capsim_bench_shard/cache -bench-json /tmp/capsim_bench_shard/shard4.json" \
		"capsim -experiment all -parallel 1 -shard-coordinator 8 -study-cache /tmp/capsim_bench_shard/cache -bench-json /tmp/capsim_bench_shard/shard8.json" \
		"capsim -experiment all -parallel 1 -study-cache /tmp/capsim_bench_shard/cache -bench-json /tmp/capsim_bench_shard/warm.json"
	@GO="$(GO)" sh scripts/bench_shard.sh

# bench-shard-smoke is the ci-gated variant (scripts/shard_smoke.sh): a
# tiny-budget fig10 proves static shards and coordinator mode both merge
# byte-identical to an unsharded baseline, and that the merge served its
# study rows from the shards' persistent cache (memo.persist_hits > 0,
# zero misses, in the merge's run manifest).
bench-shard-smoke:
	@GO="$(GO)" sh scripts/shard_smoke.sh

# bench-policy (scripts/bench_policy.sh) runs BenchmarkPolicyStudyDirect and
# BenchmarkPolicyStudyReplay — the same Section 6 policy cells simulated on
# a private QueueMachine each and through the one-pass interval-family
# replay + lockstep race — alternating, and fails unless the median direct
# ns/op is at least 1.5x the median replay ns/op.
bench-policy:
	@GO="$(GO)" sh scripts/bench_policy.sh

# bench-zoo writes BENCH_zoo.json: the full policy-zoo league race (every
# contender + fixed baselines + oracle across the app x penalty grid, each
# cell one study row) measured at -parallel 1 and at -parallel 8, each in a
# fresh process so the study memos are cold. Compare total_wall_ns between
# the elements for the cell fan-out speedup.
bench-zoo:
	@FORCE=$(FORCE) sh scripts/bench_guard.sh BENCH_zoo.json \
		"capsim -experiment zoo -parallel 1 -bench-json /tmp/capsim_bench_zoo_serial.json" \
		"capsim -experiment zoo -parallel 8 -bench-json /tmp/capsim_bench_zoo_parallel.json"
	$(GO) run ./cmd/capsim -experiment zoo -parallel 1 -bench-json /tmp/capsim_bench_zoo_serial.json >/dev/null
	$(GO) run ./cmd/capsim -experiment zoo -parallel 8 -bench-json /tmp/capsim_bench_zoo_parallel.json >/dev/null
	{ printf '[\n'; cat /tmp/capsim_bench_zoo_serial.json; printf ',\n'; \
	  cat /tmp/capsim_bench_zoo_parallel.json; printf ']\n'; } > BENCH_zoo.json
	@echo "wrote BENCH_zoo.json"

# bench-zoo-smoke is the ci-gated variant: a tiny-budget zoo run proving
# the league render is byte-identical at 1 vs 4 workers and under a 2-way
# shard coordinator merging through a fresh persistent study cache, and
# that `capsim -report` over the ledger the run emits reproduces the league
# tables byte-for-byte (the experiment header and timing footer are
# stripped, plus the blank separators the experiment renderer leaves before
# its footer; every table byte must match).
bench-zoo-smoke:
	@$(GO) run ./cmd/capsim -experiment zoo -parallel 1 -queue-instrs 3000 \
		| grep -v '^(zoo in ' > /tmp/capsim_zoo_p1.txt
	@$(GO) run ./cmd/capsim -experiment zoo -parallel 4 -queue-instrs 3000 \
		| grep -v '^(zoo in ' > /tmp/capsim_zoo_p4.txt
	@cmp /tmp/capsim_zoo_p1.txt /tmp/capsim_zoo_p4.txt || \
		{ echo "zoo rendered differently at 1 vs 4 workers"; exit 1; }
	@rm -rf /tmp/capsim_zoo_smoke && mkdir -p /tmp/capsim_zoo_smoke
	@$(GO) run ./cmd/capsim -experiment zoo -parallel 2 -queue-instrs 3000 \
		-shard-coordinator 2 -study-cache /tmp/capsim_zoo_smoke/cache \
		| grep -v '^(zoo in ' > /tmp/capsim_zoo_shard.txt
	@cmp /tmp/capsim_zoo_p1.txt /tmp/capsim_zoo_shard.txt || \
		{ echo "sharded zoo rendered differently from unsharded"; exit 1; }
	@$(GO) run ./cmd/capsim -experiment zoo -parallel 2 -queue-instrs 3000 \
		-ledger-out /tmp/capsim_zoo_smoke/zoo.ledger.gz 2>/dev/null \
		> /tmp/capsim_zoo_direct_full.txt
	@$(GO) run ./cmd/capsim -report /tmp/capsim_zoo_smoke/zoo.ledger.gz \
		> /tmp/capsim_zoo_report_full.txt
	@sed -n '/^league:/,$$p' /tmp/capsim_zoo_direct_full.txt | grep -v '^(zoo in ' \
		| awk '{l[NR]=$$0} END{n=NR; while(n>0 && l[n]=="") n--; for(i=1;i<=n;i++) print l[i]}' \
		> /tmp/capsim_zoo_direct.txt
	@sed -n '/^league:/,$$p' /tmp/capsim_zoo_report_full.txt \
		| awk '{l[NR]=$$0} END{n=NR; while(n>0 && l[n]=="") n--; for(i=1;i<=n;i++) print l[i]}' \
		> /tmp/capsim_zoo_report.txt
	@cmp /tmp/capsim_zoo_direct.txt /tmp/capsim_zoo_report.txt || \
		{ echo "capsim -report did not reproduce the zoo league tables"; exit 1; }
	@echo "bench-zoo smoke ok (renders byte-identical at 1 vs 4 workers and sharded vs unsharded; -report reproduces the league)"

clean:
	rm -f /tmp/capsim_bench_serial.json /tmp/capsim_bench_parallel.json \
	  /tmp/capsim_bench_obs_f7_off.json /tmp/capsim_bench_obs_f7_on.json \
	  /tmp/capsim_bench_obs_f10_off.json /tmp/capsim_bench_obs_f10_on.json \
	  /tmp/capsim_obs_f7.trace.json /tmp/capsim_obs_f10.trace.json \
	  /tmp/capsim_obs_off.txt /tmp/capsim_obs_on.txt \
	  /tmp/capsim_obs_smoke.trace.json /tmp/capsim_obs_smoke.json \
	  /tmp/capsim_bench_obs_f12_off.json /tmp/capsim_bench_obs_f12_ledger.json \
	  /tmp/capsim_bench_obs_f12_obs.json /tmp/capsim_bench_obs_f12_both.json \
	  /tmp/capsim_obs_f12.ledger.gz /tmp/capsim_obs_f12_both.ledger.gz \
	  /tmp/capsim_ledger_off.txt /tmp/capsim_ledger_on.txt /tmp/capsim_obs_smoke.ledger.gz \
	  /tmp/capsim_bench_zoo_serial.json /tmp/capsim_bench_zoo_parallel.json \
	  /tmp/capsim_zoo_p1.txt /tmp/capsim_zoo_p4.txt /tmp/capsim_zoo_shard.txt \
	  /tmp/capsim_zoo_direct_full.txt /tmp/capsim_zoo_report_full.txt \
	  /tmp/capsim_zoo_direct.txt /tmp/capsim_zoo_report.txt
	rm -rf /tmp/capsim_serve_smoke /tmp/capsim_shard_smoke /tmp/capsim_bench_shard \
	  /tmp/capsim_zoo_smoke
