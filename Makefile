# capsim build/test/bench entry points. `make ci` is the gate every change
# must pass; `make bench-shard` fails unless a run against a study cache
# filled by static shards beats a cold run; `make bench-policy` gates the
# interval-family replay's speedup over direct per-policy simulation
# (scripts/bench_policy.sh, floor 1.5x). End-to-end benchmarking is
# `bash capbench/run.sh` (capbench/README.md).

GO ?= go

.PHONY: all build test short race ci-race vet fmt staticcheck ci capbench-test bench-obs-smoke bench-shard bench-shard-smoke bench-policy bench-zoo-smoke serve-smoke clean

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
# streaming/admission paths, the sweep budget, and the experiment list runner
# (experiments.RunList over both capbench cold id lists, about 1.5 min under
# the detector) — cheap enough to run on every iteration (the full `race`
# target covers the whole module).
ci-race:
	$(GO) test -race -timeout 10m ./internal/flight/ ./internal/obs/ ./internal/server/ ./internal/sweep/
	$(GO) test -race -timeout 10m -run 'RunList' ./internal/experiments/

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

ci: fmt vet staticcheck build capbench-test ci-race race bench-obs-smoke bench-shard-smoke bench-zoo-smoke serve-smoke

# capbench-test vets and tests the benchmark harness. capbench is its own
# module, so the root `go test ./...` never compiles it, yet it imports the
# experiments, server and memo APIs and checks the internal/ package list.
capbench-test:
	$(GO) -C capbench vet ./... && $(GO) -C capbench test ./...

# serve-smoke boots the experiment API server (-serve-api) on an ephemeral
# port and proves the service contract end to end: POST /v1/run renders
# byte-identical to the CLI, a repeat request hits the response cache, a
# request against a busy run slot gets 429, a disconnected client's sweep
# stops claiming jobs, and SIGTERM drains the process to a zero exit.
serve-smoke:
	@GO="$(GO)" sh scripts/serve_smoke.sh

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

# bench-shard (scripts/bench_shard.sh) times the full registry unsharded
# from cold, fills a study cache with static shards 0/2 and 1/2, then times
# the full registry unsharded against that cache, reading total_wall_ns from
# each run's -metrics-out manifest. It fails unless the warm run beats the
# cold one — the persistent cache's reason to exist.
bench-shard:
	@GO="$(GO)" sh scripts/bench_shard.sh

# bench-shard-smoke is the ci-gated variant (scripts/shard_smoke.sh): a
# tiny-budget fig10 proves static shards merge byte-identical to an
# unsharded baseline, that each shard's run manifest records the rows it
# published (memo.persist_writes > 0), that the merge served its study rows
# from the shards' persistent cache (memo.persist_hits > 0, zero misses),
# and that the removed coordinator, bench-report and byte-budget flags, and -shard under
# -serve-api, exit 2.
bench-shard-smoke:
	@GO="$(GO)" sh scripts/shard_smoke.sh

# bench-policy (scripts/bench_policy.sh) runs BenchmarkPolicyStudyDirect and
# BenchmarkPolicyStudyReplay — the same Section 6 policy cells simulated on
# a private QueueMachine each and through the one-pass interval-family
# replay + lockstep race — alternating, and fails unless the median direct
# ns/op is at least 1.5x the median replay ns/op.
bench-policy:
	@GO="$(GO)" sh scripts/bench_policy.sh

# bench-zoo-smoke: a tiny-budget zoo run proving the league render is
# byte-identical at 1 vs 4 workers and when static shards 0/2 and 1/2 fill a
# fresh persistent study cache that a plain run then merges, that zoo and
# ablation-switch render byte-identically under -obs-assert (which checks
# every copy-on-divergence fork and race column), and that
# `capsim -report` over the ledger the run emits reproduces the league
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
	@$(GO) run ./cmd/capsim -experiment zoo,ablation-switch -parallel 2 -queue-instrs 3000 \
		| grep -v '^(zoo in \|^(ablation-switch in ' > /tmp/capsim_zoo_plain.txt
	@$(GO) run ./cmd/capsim -experiment zoo,ablation-switch -parallel 2 -queue-instrs 3000 -obs-assert \
		| grep -v '^(zoo in \|^(ablation-switch in ' > /tmp/capsim_zoo_assert.txt
	@cmp /tmp/capsim_zoo_plain.txt /tmp/capsim_zoo_assert.txt || \
		{ echo "zoo,ablation-switch rendered differently under -obs-assert"; exit 1; }
	@rm -rf /tmp/capsim_zoo_smoke && mkdir -p /tmp/capsim_zoo_smoke
	@$(GO) run ./cmd/capsim -experiment zoo -parallel 2 -queue-instrs 3000 \
		-shard 0/2 -study-cache /tmp/capsim_zoo_smoke/cache 2>/dev/null
	@$(GO) run ./cmd/capsim -experiment zoo -parallel 2 -queue-instrs 3000 \
		-shard 1/2 -study-cache /tmp/capsim_zoo_smoke/cache 2>/dev/null
	@$(GO) run ./cmd/capsim -experiment zoo -parallel 2 -queue-instrs 3000 \
		-study-cache /tmp/capsim_zoo_smoke/cache \
		| grep -v '^(zoo in ' > /tmp/capsim_zoo_shard.txt
	@cmp /tmp/capsim_zoo_p1.txt /tmp/capsim_zoo_shard.txt || \
		{ echo "static-shard zoo merge rendered differently from unsharded"; exit 1; }
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
	@echo "bench-zoo smoke ok (renders byte-identical at 1 vs 4 workers, static-shard merge vs unsharded and under -obs-assert; -report reproduces the league)"

clean:
	rm -f /tmp/capsim_obs_off.txt /tmp/capsim_obs_on.txt \
	  /tmp/capsim_obs_smoke.trace.json /tmp/capsim_obs_smoke.json \
	  /tmp/capsim_ledger_off.txt /tmp/capsim_ledger_on.txt /tmp/capsim_obs_smoke.ledger.gz \
	  /tmp/capsim_zoo_p1.txt /tmp/capsim_zoo_p4.txt /tmp/capsim_zoo_shard.txt \
	  /tmp/capsim_zoo_plain.txt /tmp/capsim_zoo_assert.txt \
	  /tmp/capsim_zoo_direct_full.txt /tmp/capsim_zoo_report_full.txt \
	  /tmp/capsim_zoo_direct.txt /tmp/capsim_zoo_report.txt
	rm -rf /tmp/capsim_serve_smoke /tmp/capsim_shard_smoke /tmp/capsim_bench_shard \
	  /tmp/capsim_zoo_smoke
