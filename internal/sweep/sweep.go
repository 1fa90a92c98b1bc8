// Package sweep is the parallel sweep engine behind the experiment drivers:
// it fans independent (benchmark, configuration) simulation jobs across CPUs
// under one worker budget per run while preserving bit-for-bit
// determinism.
//
// Every figure of the paper is a sweep over a cross product — 21 applications
// x 16 boundary positions for Figures 7-9, 22 applications x 8 queue sizes
// for Figures 10-11 — whose cells are completely independent: each cell
// builds a fresh machine whose workload generators are seeded by
// (master seed, benchmark name, purpose) via rng.DeriveSeed, so no cell can
// observe another cell's random stream or simulator state.
//
// Determinism contract (see DESIGN.md "Parallel execution & determinism"):
//
//   - jobs are identified by their index in [0, n); the result of job i is
//     stored at results[i] regardless of which worker ran it or when it
//     finished — collection is by index, never by completion order;
//   - jobs derive all randomness from their own arguments (never from shared
//     mutable state), so scheduling cannot perturb any simulated outcome;
//   - error selection is deterministic: the error of the lowest-indexed
//     failing job is returned, even though the pool stops claiming
//     higher-indexed jobs as soon as any error is observed (every job below
//     the current minimum failing index still runs, so the reported error is
//     exactly the one a full serial pass would report).
//
// Consequently RunCtx(ctx, n, fn) returns byte-identical results for any worker
// count, including 1 (the serial fallback used by `capsim -parallel 1` and
// the determinism tests).
//
// Cancellation (see DESIGN.md "Experiment service & the cancellation
// contract"): every entry point stops claiming new jobs once ctx is done and
// return ctx.Err(). Cancellation is inherently racy — which jobs had already
// been claimed depends on scheduling — so a cancelled run never returns
// partial results, only the context's error. A run whose jobs all completed
// before the cancellation was observed returns its full results, mirroring
// the serial loop finishing its last iteration.
package sweep

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"capsim/internal/flight"
	"capsim/internal/obs"
)

// Telemetry (internal/obs). Counters/gauges are no-ops unless -obs (or a
// sink flag) enabled them; spans are no-ops unless -trace-out installed a
// sink. Busy-ns adds land on the worker's own counter lane, so the pool's
// telemetry never bounces a cache line between workers.
var (
	obsRuns       = obs.NewCounter("sweep.runs")          // RunNCtx invocations
	obsJobs       = obs.NewCounter("sweep.jobs")          // jobs executed
	obsSkipped    = obs.NewCounter("sweep.jobs_skipped")  // jobs skipped after an error or cancellation
	obsBusyNS     = obs.NewCounter("sweep.busy_ns")       // per-worker time inside fn
	obsJobNS      = obs.NewHistogram("sweep.job_ns")      // per-job wall time
	obsQueueDepth = obs.NewGauge("sweep.queue_depth")     // unclaimed jobs of the latest pass
	obsWorkers    = obs.NewGauge("sweep.workers_current") // workers of the latest parallel pass
)

// observing reports whether per-job timing should be collected: either the
// metric registry is live or a span sink is installed. One branch per job.
func observing() bool { return obs.Enabled() || obs.Tracing() }

// budget bounds how many goroutines run sweep jobs at once across every pass
// that shares it — a whole `capsim -experiment a,b,c` list with all its
// nested sweeps, or one API request. A budget of n is the goroutine that
// calls RunCtx plus n-1 helper tokens. The caller always runs jobs on its
// own goroutine and never waits for a token; a pass starts helpers only
// while tokens are free. So nested passes and goroutines blocked on a
// memoized computation cannot deadlock, and callers that are themselves
// jobs run their nested pass's jobs in place of their own.
//
// A helper keeps its token until its pass has no unclaimed jobs, then hands
// it to the newest open pass that still has some (the innermost nested
// sweep first, which finishes started work before new work begins), or
// returns it. A pass's caller that has claimed its last job and waits for
// its helpers lends its own slot the same way; if the slot is still lent
// when the wait ends, the budget is in debt and the borrower gives its
// token back after its current job. So at most n jobs run at once, except
// for that one job's overlap.
type budget struct {
	n    int
	mu   sync.Mutex
	free int        // tokens free; negative while a lent slot is owed
	lane int        // last telemetry lane handed out
	open []openPass // passes with jobs left to claim, oldest first
}

// openPass is a running pass as its budget and a Joint see it.
type openPass interface {
	unclaimed() bool
	help(lane int) // start a helper on lane; called under budget.mu
	join()         // work on the pass from the calling goroutine
	close()        // refuse helpers and joiners; called under budget.mu
}

// newBudget returns a budget of n concurrent jobs; n < 1 means
// runtime.GOMAXPROCS(0).
func newBudget(n int) *budget {
	if n < 1 {
		n = runtime.GOMAXPROCS(0)
	}
	return &budget{n: n, free: n - 1}
}

// register opens p for helpers and hands it any free tokens.
func (b *budget) register(p openPass) {
	b.mu.Lock()
	b.open = append(b.open, p)
	b.share()
	b.mu.Unlock()
}

// unregister closes p: no helper starts on it, and no goroutine joins it,
// afterwards.
func (b *budget) unregister(p openPass) {
	b.mu.Lock()
	p.close()
	for k, q := range b.open {
		if q == p {
			b.open = append(b.open[:k], b.open[k+1:]...)
			break
		}
	}
	b.mu.Unlock()
}

// release returns a token (a helper's, or a slot lent while its owner
// waited) and passes it on.
func (b *budget) release() {
	b.mu.Lock()
	b.free++
	b.share()
	b.mu.Unlock()
}

// reclaim takes back a slot lent by release, into debt if it is still out.
func (b *budget) reclaim() {
	b.mu.Lock()
	b.free--
	b.mu.Unlock()
}

// owed reports whether a lent slot is still out after its owner resumed.
func (b *budget) owed() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.free < 0
}

// share starts helpers, newest open pass first, while tokens are free and
// some pass has unclaimed jobs. Callers hold b.mu.
func (b *budget) share() {
	for k := len(b.open) - 1; k >= 0 && b.free > 0; k-- {
		p := b.open[k]
		for b.free > 0 && p.unclaimed() {
			b.free--
			b.lane++
			p.help(b.lane)
		}
	}
}

// procBudget is the process-wide budget RunCtx uses when the context carries
// none. cmd/capsim's -parallel flag sets it.
var procBudget atomic.Pointer[budget]

func init() { procBudget.Store(newBudget(0)) }

// SetDefaultWorkers replaces the process-wide budget with one of n
// concurrent jobs. n < 1 restores the automatic default (GOMAXPROCS).
func SetDefaultWorkers(n int) { procBudget.Store(newBudget(n)) }

// DefaultWorkers returns the process-wide budget's bound: the value set by
// SetDefaultWorkers, or runtime.GOMAXPROCS(0) when unset.
func DefaultWorkers() int { return procBudget.Load().n }

// budgetKey is the context key of a per-context budget.
type budgetKey struct{}

// WithWorkers returns a context carrying its own budget of n concurrent
// jobs: every RunCtx/GridCtx pass under it, nested ones included, shares
// that budget instead of the process-wide one. The experiment API server
// uses it to honour a request's `parallel` field without touching the
// process-wide SetDefaultWorkers (which would race between concurrent
// requests). n < 1 removes any override.
func WithWorkers(ctx context.Context, n int) context.Context {
	var b *budget
	if n >= 1 {
		b = newBudget(n)
	}
	return context.WithValue(ctx, budgetKey{}, b)
}

// CtxWorkers returns the bound of the WithWorkers budget carried by ctx, or
// 0 when the context has none (callers fall back to DefaultWorkers). The
// experiment API server uses it to report the worker count a run actually
// executed with.
func CtxWorkers(ctx context.Context) int {
	if b, _ := ctx.Value(budgetKey{}).(*budget); b != nil {
		return b.n
	}
	return 0
}

// ctxBudget resolves the budget for ctx: the WithWorkers budget when
// present, the process-wide one otherwise.
func ctxBudget(ctx context.Context) *budget {
	if b, _ := ctx.Value(budgetKey{}).(*budget); b != nil {
		return b
	}
	return procBudget.Load()
}

// ctxWorkers resolves the effective worker bound for ctx.
func ctxWorkers(ctx context.Context) int { return ctxBudget(ctx).n }

// Joint lets goroutines that wait for a pass's result help compute it: a
// pass started with RunJoint publishes itself on the joint while it runs,
// and Join runs its unclaimed jobs on the calling goroutine. The experiment
// drivers keep one per memoized study, so an experiment that needs a study
// another experiment is computing works on that study's rows instead of
// idling in the memo's wait — and still counts as one goroutine of its own
// budget, so the bound holds. The zero value is ready to use.
type Joint struct {
	mu sync.Mutex
	p  openPass
}

func (j *Joint) set(p openPass) {
	j.mu.Lock()
	j.p = p
	j.mu.Unlock()
}

// Join works on the joint's running pass, if any, until it has no
// unclaimed jobs; jobs other goroutines already claimed may still be
// running when it returns.
func (j *Joint) Join() {
	j.mu.Lock()
	p := j.p
	j.mu.Unlock()
	if p != nil {
		p.join()
	}
}

// RunJoint is RunCtx with the pass published on j while it runs (see
// Joint).
func RunJoint[T any](ctx context.Context, j *Joint, n int, fn func(i int) (T, error)) ([]T, error) {
	return runPass(ctx, ctxBudget(ctx), j, n, fn)
}

// RunCtx executes jobs 0..n-1 under ctx's budget (WithWorkers, or the
// process-wide one) and collects their results by index; the pass stops
// claiming jobs once ctx is done. See RunNCtx for the result and error
// contract.
func RunCtx[T any](ctx context.Context, n int, fn func(i int) (T, error)) ([]T, error) {
	return runPass(ctx, ctxBudget(ctx), nil, n, fn)
}

// RunNCtx executes jobs 0..n-1 under a fresh budget of `workers` concurrent
// jobs. results[i] always holds job i's value. The returned error is the
// lowest-indexed job error, or ctx.Err() if the run was cancelled before
// every job completed, or nil.
//
// Error abort: the pool stops claiming jobs whose index is above the lowest
// failing index observed so far, so an early failure does not burn CPU on
// the rest of the grid. Jobs *below* that index still run — one of them
// could fail with a lower index — which is what keeps the selected error
// identical to the serial path's (the serial loop stops at its first error,
// by construction the lowest-indexed one).
//
// Passes may be nested: a job may itself call RunCtx/RunNCtx. The calling
// goroutine always works on its own pass, so nesting cannot deadlock.
func RunNCtx[T any](ctx context.Context, workers, n int, fn func(i int) (T, error)) ([]T, error) {
	if workers < 1 {
		workers = 1
	}
	return runPass(ctx, newBudget(workers), nil, n, fn)
}

// pass is one RunCtx invocation: its jobs, results and claim state.
type pass[T any] struct {
	ctx     context.Context
	b       *budget
	n       int
	fn      func(i int) (T, error)
	results []T
	errs    []error
	// next is the claim counter; minErr the lowest failing job index
	// observed so far (n means "no error yet"). Workers skip any claim
	// above minErr (the abort), but still run claims below it (the
	// determinism guarantee).
	next, executed, minErr atomic.Int64
	helpers                atomic.Int32 // helpers still working on the pass
	wg                     sync.WaitGroup
	prog, watch            bool
	closed                 bool // guarded by b.mu
}

func (p *pass[T]) unclaimed() bool { return p.next.Load() < int64(p.n) }

func (p *pass[T]) close() { p.closed = true }

func (p *pass[T]) join() {
	p.b.mu.Lock()
	if p.closed {
		p.b.mu.Unlock()
		return
	}
	p.wg.Add(1)
	p.b.mu.Unlock()
	p.work(0)
	p.wg.Done()
}

func (p *pass[T]) help(lane int) {
	p.wg.Add(1)
	p.helpers.Add(1)
	go func() {
		p.work(lane)
		p.helpers.Add(-1)
		p.b.release()
		p.wg.Done()
	}()
}

// runPass executes a pass under budget b, published on j when j is non-nil;
// the calling goroutine works on it from the first job to the last claim.
func runPass[T any](ctx context.Context, b *budget, j *Joint, n int, fn func(i int) (T, error)) ([]T, error) {
	if n <= 0 {
		return nil, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	obsRuns.Inc1()
	p := &pass[T]{
		ctx: ctx, b: b, n: n, fn: fn,
		results: make([]T, n),
		errs:    make([]error, n),
		// Flight-recorder progress: one pulse per completed job so a
		// streaming client sees movement during long sweeps.
		prog:  flight.Active(ctx),
		watch: observing(),
	}
	p.minErr.Store(int64(n))
	obsWorkers.Set(int64(b.n))
	if n > 1 {
		// A one-job pass is the caller's alone.
		b.register(p)
	}
	if j != nil {
		j.set(p)
	}
	p.work(0)
	if j != nil {
		j.set(nil)
	}
	b.unregister(p)
	if p.helpers.Load() > 0 {
		// Lend this goroutine's slot while the helpers finish.
		b.release()
		p.wg.Wait()
		b.reclaim()
	} else {
		p.wg.Wait()
	}
	if idx := p.minErr.Load(); idx < int64(n) {
		return nil, p.errs[idx]
	}
	if p.executed.Load() < int64(n) {
		// Gaps without a recorded job error can only come from cancellation.
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
	return p.results, nil
}

// work claims and runs jobs until none are left (or, for a helper, until
// the budget owes a lent slot back). lane is the worker's telemetry lane: 0
// for the calling goroutine and joiners, the token's lane for a helper.
func (p *pass[T]) work(lane int) {
	var tid int64
	if p.watch {
		// A fresh trace track per worker, so concurrent and nested passes
		// never interleave their jobs on one track (0 when not tracing).
		tid = obs.WorkerTIDs(1, "sweep")
	}
	n := int64(p.n)
	for {
		if p.ctx.Err() != nil {
			return
		}
		i := p.next.Add(1) - 1
		if i >= n {
			return
		}
		if i > p.minErr.Load() {
			// A lower-indexed job already failed; this one's result could
			// never be returned. Skip without running.
			obsSkipped.Inc(lane)
			continue
		}
		if p.watch {
			// Depth is approximate by design: it samples the shared claim
			// counter, which other workers advance concurrently.
			obsQueueDepth.Set(max(n-p.next.Load(), 0))
			sp := obs.StartSpan("sweep.job", tid)
			t0 := time.Now()
			p.results[i], p.errs[i] = p.fn(int(i))
			ns := time.Since(t0).Nanoseconds()
			sp.End(obs.Arg{K: "i", V: i})
			// Busy time lands on the worker's own counter lane so
			// concurrent adds never share a cache line.
			obsJobs.Inc(lane)
			obsBusyNS.Add(lane, ns)
			obsJobNS.Observe(ns)
		} else {
			p.results[i], p.errs[i] = p.fn(int(i))
		}
		done := p.executed.Add(1)
		if p.prog {
			flight.PublishProgress(p.ctx, flight.Progress{Done: int(done), Total: p.n, Label: "sweep"})
		}
		if p.errs[i] != nil {
			for {
				cur := p.minErr.Load()
				if i >= cur || p.minErr.CompareAndSwap(cur, i) {
					break
				}
			}
		}
		if lane != 0 && p.b.owed() {
			return
		}
	}
}

// GridCtx is a helper for two-dimensional sweeps over an (outer x inner)
// cross product, the shape of every figure in the paper. Job (o, i) runs at
// flat index o*inner+i; results are returned as a dense [outer][inner]
// matrix.
func GridCtx[T any](ctx context.Context, outer, inner int, fn func(o, i int) (T, error)) ([][]T, error) {
	flat, err := RunCtx(ctx, outer*inner, func(j int) (T, error) {
		return fn(j/inner, j%inner)
	})
	if err != nil {
		return nil, err
	}
	out := make([][]T, outer)
	for o := range out {
		out[o] = flat[o*inner : (o+1)*inner : (o+1)*inner]
	}
	return out, nil
}
