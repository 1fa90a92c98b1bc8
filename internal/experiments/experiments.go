// Package experiments regenerates every table and figure of the paper's
// evaluation (Figures 1, 2, 7, 8, 9, 10, 11, 12 and 13), plus the ablation
// studies DESIGN.md calls out. Each experiment is a named driver that
// returns typed figures/tables rendered as aligned text; cmd/capsim exposes
// them on the command line and bench_test.go wraps each in a testing.B
// benchmark.
package experiments

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"

	"capsim/internal/cache"
	"capsim/internal/classify"
	"capsim/internal/core"
	"capsim/internal/memo"
	"capsim/internal/metrics"
	"capsim/internal/obs"
	"capsim/internal/tech"
	"capsim/internal/trace"
)

// Telemetry (internal/obs): one counter bump and one span per experiment —
// the coarsest boundary in the process.
var (
	obsExperiments = obs.NewCounter("experiments.runs")
	obsExpErrors   = obs.NewCounter("experiments.errors")
	obsExpNS       = obs.NewHistogram("experiments.wall_ns")
)

// Config holds the run budgets. The paper uses 100 M references /
// instructions per application; the defaults here are scaled down (the
// synthetic profiles are stationary long before that) and can be raised for
// full runs.
type Config struct {
	// Seed is the master workload seed.
	Seed uint64
	// CacheWarmRefs references warm each cache configuration before
	// measurement begins.
	CacheWarmRefs int64
	// CacheRefs references are measured per cache configuration.
	CacheRefs int64
	// QueueInstrs instructions are measured per queue configuration.
	QueueInstrs int64
	// IntervalInstrs is the interval length for the Section 6 studies
	// (the paper uses 2000 instructions).
	IntervalInstrs int64
	// PenaltyCycles is the clock-switch penalty (<0 = default).
	PenaltyCycles int
	// Feature is the process generation for the performance studies.
	Feature tech.FeatureSize
	// CacheParams is the adaptive-hierarchy geometry.
	CacheParams cache.Params
}

// DefaultConfig returns the standard budgets used by tests and benchmarks.
func DefaultConfig() Config {
	return Config{
		Seed:           1998, // ISCA 1998
		CacheWarmRefs:  100_000,
		CacheRefs:      400_000,
		QueueInstrs:    150_000,
		IntervalInstrs: 2_000,
		PenaltyCycles:  -1,
		Feature:        tech.Micron018,
		CacheParams:    cache.PaperParams(),
	}
}

// CanonicalKey canonicalizes the configuration into a stable string. Every
// Config field changes rendered bytes, so every field is in; the
// render-neutral process settings (workers, shard, study cache, telemetry)
// live outside Config and are out. The server's response cache and the
// shard/persist row keys both build on this discipline; the server prefixes
// the experiment id.
func (c Config) CanonicalKey() string {
	return fmt.Sprintf("seed=%d|warm=%d|refs=%d|qi=%d|iv=%d|pen=%d|f=%g|cp=%+v",
		c.Seed, c.CacheWarmRefs, c.CacheRefs, c.QueueInstrs,
		c.IntervalInstrs, c.PenaltyCycles, float64(c.Feature), c.CacheParams)
}

// Validate reports whether the configuration is runnable.
func (c Config) Validate() error {
	switch {
	case c.CacheRefs < 1000:
		return fmt.Errorf("experiments: CacheRefs %d too small", c.CacheRefs)
	case c.QueueInstrs < 1000:
		return fmt.Errorf("experiments: QueueInstrs %d too small", c.QueueInstrs)
	case c.IntervalInstrs < 100:
		return fmt.Errorf("experiments: IntervalInstrs %d too small", c.IntervalInstrs)
	case c.CacheWarmRefs < 0:
		return fmt.Errorf("experiments: negative warm-up")
	}
	return c.CacheParams.Validate()
}

// Result is the output of one experiment.
type Result struct {
	ID      string
	Title   string
	Figures []metrics.Figure
	Tables  []metrics.Table
	Notes   []string
}

// Render returns the complete text form of the result.
func (r Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "=== %s: %s ===\n", r.ID, r.Title)
	for _, f := range r.Figures {
		b.WriteString(f.Render())
		b.WriteByte('\n')
	}
	for _, t := range r.Tables {
		b.WriteString(t.Render())
		b.WriteByte('\n')
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Runner is an experiment driver. Drivers observe ctx at sweep-job
// granularity: cancellation stops the driver's worker pools from claiming
// new simulation jobs (see DESIGN.md "Experiment service & the cancellation
// contract"); a job already executing runs to completion.
type Runner func(ctx context.Context, cfg Config) (Result, error)

var registry = map[string]struct {
	title string
	run   Runner
}{}

func register(id, title string, run Runner) {
	if _, dup := registry[id]; dup {
		panic("experiments: duplicate id " + id)
	}
	registry[id] = struct {
		title string
		run   Runner
	}{title, run}
}

// IDs returns all experiment identifiers, sorted.
func IDs() []string {
	out := make([]string, 0, len(registry))
	for id := range registry {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Title returns the experiment's title.
func Title(id string) (string, error) {
	e, ok := registry[id]
	if !ok {
		return "", fmt.Errorf("experiments: unknown experiment %q", id)
	}
	return e.title, nil
}

// ResetCaches discards the memoized cache- and queue-study profiling passes
// and the shared materialized trace stores. Long-lived processes that sweep
// many configurations can call it to bound memory; the determinism tests call
// it between serial and parallel passes so the comparison re-runs the full
// compute instead of hitting the memo.
func ResetCaches() {
	cacheStudies.Reset()
	queueStudies.Reset()
	trace.Reset()
	classify.Reset()
	core.ResetPolicyFamilies()
}

// Run executes the experiment with the given configuration. It is RunCtx
// under context.Background() — the one-shot CLI path, which nothing cancels.
func Run(id string, cfg Config) (Result, error) {
	return RunCtx(context.Background(), id, cfg)
}

// RunCtx executes the experiment with the given configuration under ctx.
// Cancelling ctx stops the driver's sweep pools from claiming new simulation
// jobs and returns ctx's error; partial results are never returned. RunCtx
// is safe for concurrent use — the experiment API server invokes it from one
// goroutine per request — and concurrent invocations with equal
// configurations share the memoized profiling passes (singleflight).
func RunCtx(ctx context.Context, id string, cfg Config) (Result, error) {
	e, ok := registry[id]
	if !ok {
		return Result{}, fmt.Errorf("experiments: unknown experiment %q (have %s)", id, strings.Join(IDs(), ", "))
	}
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	obsExperiments.Inc1()
	sp := obs.StartSpan("experiment:"+id, 0)
	t0 := time.Now()
	res, err := e.run(ctx, cfg)
	obsExpNS.Observe(time.Since(t0).Nanoseconds())
	if err != nil {
		obsExpErrors.Inc1()
		sp.End(obs.Arg{K: "err", V: err.Error()})
		return res, err
	}
	sp.End(obs.Arg{K: "figures", V: len(res.Figures)}, obs.Arg{K: "tables", V: len(res.Tables)})
	return res, nil
}

// SetStudyCacheCap bounds the memoized cache- and queue-study passes to at
// most n entries each, with deterministic LRU eviction (memo.SetCap). The
// long-lived API server sets this at startup so a stream of requests with
// distinct seeds or budgets cannot grow the process without bound; the
// one-shot CLI never calls it and keeps the unbounded default.
func SetStudyCacheCap(n int) {
	cacheStudies.SetCap(n)
	queueStudies.SetCap(n)
}

// studyDo wraps a study memo's Do with the cancellation contract: a
// profiling pass that failed with a context error is forgotten instead of
// memoized, because the cancellation belonged to whichever request happened
// to compute the entry — not to the configuration. Callers whose own ctx is
// still live retry (and recompute under their ctx); callers whose ctx caused
// the cancellation return it. Deterministic compute errors stay memoized as
// before.
func studyDo[V any](ctx context.Context, m *memo.Memo[string, V], key string, fn func() (V, error)) (V, error) {
	for {
		v, err := m.Do(key, fn)
		if err == nil || (!errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded)) {
			return v, err
		}
		m.Forget(key)
		if ctx.Err() != nil {
			return v, err
		}
	}
}
