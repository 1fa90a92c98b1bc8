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
	"sync"
	"time"

	"capsim/internal/cache"
	"capsim/internal/classify"
	"capsim/internal/core"
	"capsim/internal/flight"
	"capsim/internal/memo"
	"capsim/internal/metrics"
	"capsim/internal/obs"
	"capsim/internal/sweep"
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
	tid, _ := ctx.Value(tidKey{}).(int64)
	sp := obs.StartSpan("experiment:"+id, tid)
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

// tidKey carries the trace track of an experiment run by RunList (the
// orchestrator track 0 otherwise).
type tidKey struct{}

// RunList computes the experiments of ids concurrently under ctx's sweep
// budget — the whole list shares one budget, nested sweeps included — and
// hands each result to emit in list order, as soon as it and every earlier
// id are done. On failure it returns the lowest-indexed id's error, after
// emitting every id before it, exactly as a loop running the ids one after
// another would; at a budget of 1 it is that loop. Once ctx is cancelled no
// further id is emitted and RunList returns ctx's error.
//
// around, when non-nil, wraps each id's computation on the goroutine that
// runs it (cmd/capsim measures per-experiment deltas there); it must call
// run exactly once. wall is the id's own computation time, so walls of
// concurrently computed ids overlap. The flight ledger keeps list order
// (flight.Sequence), and with tracing on each id's span gets its own track.
func RunList(ctx context.Context, ids []string, cfg Config, around func(i int, run func()), emit func(i int, res Result, wall time.Duration)) error {
	seq := flight.NewSequence()
	tids := obs.WorkerTIDs(len(ids), "experiment")
	var (
		mu       sync.Mutex
		head     int // ids below head are emitted (or being emitted)
		emitting bool
		done     = make([]bool, len(ids))
		res      = make([]Result, len(ids))
		walls    = make([]time.Duration, len(ids))
	)
	_, err := sweep.RunCtx(ctx, len(ids), func(i int) (struct{}, error) {
		ictx := seq.Section(ctx, i)
		if tids != 0 {
			ictx = context.WithValue(ictx, tidKey{}, tids+int64(i))
		}
		var (
			r    Result
			err  error
			wall time.Duration
		)
		run := func() {
			t0 := time.Now()
			r, err = RunCtx(ictx, ids[i], cfg)
			wall = time.Since(t0)
		}
		if around != nil {
			around(i, run)
		} else {
			run()
		}
		if err != nil {
			return struct{}{}, err
		}
		// The goroutine that finds the head done emits, in order and
		// outside the lock, until it reaches an id still running; ids
		// finishing meanwhile leave their emission to it.
		mu.Lock()
		res[i], walls[i], done[i] = r, wall, true
		if emitting {
			mu.Unlock()
			return struct{}{}, nil
		}
		emitting = true
		for head < len(ids) && done[head] && ctx.Err() == nil {
			k, kres := head, res[head]
			res[head] = Result{}
			head++
			mu.Unlock()
			emit(k, kres, walls[k])
			seq.Done(k)
			mu.Lock()
		}
		emitting = false
		mu.Unlock()
		return struct{}{}, nil
	})
	if err == nil && head < len(ids) {
		err = ctx.Err() // cancelled after the last id finished
	}
	return err
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

// studyJoints holds the sweep.Joint of each study being computed, keyed by
// memo and key.
var studyJoints sync.Map

type studyJointKey struct {
	memo any
	key  string
}

// studyDo wraps a study memo's Do with two rules. Joining: fn runs its row
// sweep through the sweep.Joint it is handed, and a caller arriving while
// another goroutine computes the study first works on that sweep's
// unclaimed rows, then waits for the rest — concurrently run experiments
// sharing a study split its rows instead of one idling. Cancellation: a
// profiling pass that failed with a context error is forgotten instead of
// memoized, because the cancellation belonged to whichever request happened
// to compute the entry — not to the configuration. Callers whose own ctx is
// still live retry (and recompute under their ctx); callers whose ctx caused
// the cancellation return it. Deterministic compute errors stay memoized as
// before.
func studyDo[V any](ctx context.Context, m *memo.Memo[string, V], key string, fn func(j *sweep.Joint) (V, error)) (V, error) {
	jk := studyJointKey{m, key}
	jv, _ := studyJoints.LoadOrStore(jk, new(sweep.Joint))
	j := jv.(*sweep.Joint)
	defer studyJoints.Delete(jk)
	for {
		j.Join()
		v, err := m.Do(key, func() (V, error) { return fn(j) })
		if err == nil || (!errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded)) {
			return v, err
		}
		m.Forget(key)
		if ctx.Err() != nil {
			return v, err
		}
	}
}
