// Package sweep is the parallel sweep engine behind the experiment drivers:
// a bounded worker pool that fans independent (benchmark, configuration)
// simulation jobs across CPUs while preserving bit-for-bit determinism.
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

// defaultWorkers holds the process-wide worker count used by RunCtx when the
// caller does not specify one. Zero (the initial value) means "use
// runtime.GOMAXPROCS(0)". cmd/capsim's -parallel flag sets it.
var defaultWorkers atomic.Int32

// SetDefaultWorkers sets the process-wide default worker count. n < 1
// restores the automatic default (GOMAXPROCS).
func SetDefaultWorkers(n int) {
	if n < 1 {
		n = 0
	}
	defaultWorkers.Store(int32(n))
}

// DefaultWorkers returns the worker count RunCtx will use: the value set by
// SetDefaultWorkers, or runtime.GOMAXPROCS(0) when unset.
func DefaultWorkers() int {
	if n := defaultWorkers.Load(); n > 0 {
		return int(n)
	}
	return runtime.GOMAXPROCS(0)
}

// workersKey is the context key of a per-context worker-count override.
type workersKey struct{}

// WithWorkers returns a context whose RunCtx/GridCtx calls use n
// workers instead of the process default. The experiment API server uses it
// to honour a request's `parallel` field without touching the process-wide
// SetDefaultWorkers (which would race between concurrent requests). n < 1
// removes any override.
func WithWorkers(ctx context.Context, n int) context.Context {
	if n < 1 {
		n = 0
	}
	return context.WithValue(ctx, workersKey{}, n)
}

// CtxWorkers returns the WithWorkers override carried by ctx, or 0 when the
// context has none (callers fall back to DefaultWorkers). The experiment API
// server uses it to report the worker count a run actually executed with.
func CtxWorkers(ctx context.Context) int {
	if n, ok := ctx.Value(workersKey{}).(int); ok && n > 0 {
		return n
	}
	return 0
}

// ctxWorkers resolves the effective worker count for ctx: the WithWorkers
// override when present and positive, the process default otherwise.
func ctxWorkers(ctx context.Context) int {
	if n := CtxWorkers(ctx); n > 0 {
		return n
	}
	return DefaultWorkers()
}

// RunCtx executes jobs 0..n-1 and collects their results by index: the
// worker count comes from WithWorkers (or the process default), and the pool
// stops claiming jobs once ctx is done. See RunNCtx.
func RunCtx[T any](ctx context.Context, n int, fn func(i int) (T, error)) ([]T, error) {
	return RunNCtx(ctx, ctxWorkers(ctx), n, fn)
}

// RunNCtx executes jobs 0..n-1 on at most `workers` concurrent goroutines.
// results[i] always holds job i's value. The returned error is the
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
// RunNCtx may be nested: a job may itself call RunCtx/RunNCtx. Each invocation
// spawns its own bounded goroutine set and holds no locks while jobs
// execute, so nesting cannot deadlock; it merely oversubscribes the
// scheduler briefly.
func RunNCtx[T any](ctx context.Context, workers, n int, fn func(i int) (T, error)) ([]T, error) {
	if n <= 0 {
		return nil, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	results := make([]T, n)
	if workers < 1 {
		workers = 1
	}
	if workers > n {
		workers = n
	}
	obsRuns.Inc1()
	// Flight-recorder progress: one pulse per completed job so a streaming
	// client sees movement during long sweeps. Checked once per pass; plain
	// runs pay one ctx.Value + one atomic load.
	prog := flight.Active(ctx)
	if workers == 1 {
		// Serial fast path: no goroutines, no synchronization. This is the
		// baseline the determinism tests compare parallel runs against. The
		// telemetry branch below never influences fn — it only measures it.
		if observing() {
			tid := obs.WorkerTIDs(1, "sweep-serial")
			for i := 0; i < n; i++ {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
				sp := obs.StartSpan("sweep.job", tid)
				t0 := time.Now()
				v, err := fn(i)
				ns := time.Since(t0).Nanoseconds()
				sp.End(obs.Arg{K: "i", V: i})
				obsJobs.Inc(0)
				obsBusyNS.Add(0, ns)
				obsJobNS.Observe(ns)
				if err != nil {
					return nil, err
				}
				results[i] = v
				if prog {
					flight.PublishProgress(ctx, flight.Progress{Done: i + 1, Total: n, Label: "sweep"})
				}
			}
			return results, nil
		}
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			v, err := fn(i)
			if err != nil {
				return nil, err
			}
			results[i] = v
			if prog {
				flight.PublishProgress(ctx, flight.Progress{Done: i + 1, Total: n, Label: "sweep"})
			}
		}
		return results, nil
	}

	obsWorkers.Set(int64(workers))
	errs := make([]error, n)
	var next, executed atomic.Int64
	// minErr is the lowest failing job index observed so far; n means "no
	// error yet". Workers skip any claim above it (the abort), but still run
	// claims below it (the determinism guarantee).
	var minErr atomic.Int64
	minErr.Store(int64(n))
	var wg sync.WaitGroup
	wg.Add(workers)
	// Reserve a block of fresh trace thread ids for this pass so nested
	// RunNCtx invocations render on distinct timeline tracks. Zero when no
	// trace sink is installed.
	tidBase := obs.WorkerTIDs(workers, "sweep")
	watch := observing()
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			for {
				if ctx.Err() != nil {
					return
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if int64(i) > minErr.Load() {
					// A lower-indexed job already failed; this one's result
					// could never be returned. Skip without running.
					obsSkipped.Inc(w)
					continue
				}
				if watch {
					// Depth is approximate by design: it samples the shared
					// claim counter, which other workers advance concurrently.
					if left := int64(n) - next.Load(); left > 0 {
						obsQueueDepth.Set(left)
					} else {
						obsQueueDepth.Set(0)
					}
					sp := obs.StartSpan("sweep.job", tidBase+int64(w))
					t0 := time.Now()
					results[i], errs[i] = fn(i)
					ns := time.Since(t0).Nanoseconds()
					sp.End(obs.Arg{K: "i", V: i})
					// Busy time lands on the worker's own counter lane so
					// concurrent adds never share a cache line.
					obsJobs.Inc(w)
					obsBusyNS.Add(w, ns)
					obsJobNS.Observe(ns)
				} else {
					results[i], errs[i] = fn(i)
				}
				done := executed.Add(1)
				if prog {
					flight.PublishProgress(ctx, flight.Progress{Done: int(done), Total: n, Label: "sweep"})
				}
				if errs[i] != nil {
					for {
						cur := minErr.Load()
						if int64(i) >= cur || minErr.CompareAndSwap(cur, int64(i)) {
							break
						}
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if idx := minErr.Load(); idx < int64(n) {
		return nil, errs[idx]
	}
	if executed.Load() < int64(n) {
		// Gaps without a recorded job error can only come from cancellation.
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
	return results, nil
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
