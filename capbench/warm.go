package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sync"
	"syscall"
	"time"

	"capsim/internal/experiments"
	"capsim/internal/obs"
	"capsim/internal/server"
	"capsim/internal/sweep"
)

// warmBudgets are the budgets of api-warm's set-up pass and of the server's
// base configuration: small enough that one cold registry pass fits in a
// few seconds of set-up, so the request phase measures persisted reads.
var warmBudgets = map[string]int64{
	"cache_refs": 40_000, "cache_warm": 10_000, "queue_instrs": 20_000, "interval": 500,
}

const (
	// cacheablePerWalk is the fixed share of each walk's requests sent
	// without no_cache, which the server's response cache may serve.
	cacheablePerWalk = 2
	// readBacks is how many fresh-process warm re-renders api-warm times.
	readBacks = 20
	// tracedPhase is how long api-warm's traced phase runs walks.
	tracedPhase = 5 * time.Second
)

func warmArgs(seed uint64, cache string) []string {
	return []string{
		"-experiment", "all", "-seed", fmt.Sprint(seed), "-parallel", fmt.Sprint(parallel),
		"-study-cache", cache,
		"-cache-refs", fmt.Sprint(warmBudgets["cache_refs"]),
		"-cache-warm", fmt.Sprint(warmBudgets["cache_warm"]),
		"-queue-instrs", fmt.Sprint(warmBudgets["queue_instrs"]),
		"-interval", fmt.Sprint(warmBudgets["interval"]),
	}
}

// walkStats accumulates one phase's client-side measurements.
type walkStats struct {
	mu     sync.Mutex
	walls  []float64 // s per walk
	lats   []float64 // ms per successful request
	ok     int
	cached int
}

// runWarm measures api-warm: set-up fills a study cache with one cold
// registry pass (repeated setupReps times), then the benchmark serves that
// cache from an in-process API server and two closed-loop clients walk
// seeded shuffles of every experiment id.
func runWarm(b *Bench) error {
	ids := experiments.IDs()
	var cache string
	var ref map[string]string
	if err := b.setup(func(rep int) error {
		if err := b.buildCapsim(); err != nil {
			return err
		}
		if cache != "" {
			if err := os.RemoveAll(cache); err != nil {
				return err
			}
		}
		cache = filepath.Join(b.work, fmt.Sprintf("cache-%d", rep))
		if err := os.MkdirAll(cache, 0o755); err != nil {
			return err
		}
		b.attempt()
		p := b.capsimRun(warmArgs(b.opt.seed, cache)...)
		if p.Err != nil {
			return fmt.Errorf("api-warm set-up: %w", p.Err)
		}
		renders, err := SplitRenders(p.Stdout, ids)
		if err != nil {
			return fmt.Errorf("api-warm set-up: %w", err)
		}
		d := Digests(renders)
		if ref == nil {
			ref = d
		} else if msg := SameDigests(ref, d); msg != "" {
			b.fail("api-warm set-up passes differ: %s", msg)
		}
		return nil
	}); err != nil {
		return err
	}
	b.e2e["setup_s"] = b.timings["setup_s"].Median
	b.extra["digests"] = ref

	cfg := experiments.DefaultConfig()
	cfg.CacheRefs = warmBudgets["cache_refs"]
	cfg.CacheWarmRefs = warmBudgets["cache_warm"]
	cfg.QueueInstrs = warmBudgets["queue_instrs"]
	cfg.IntervalInstrs = warmBudgets["interval"]
	// The same wiring as capsim -serve-api with -study-cache.
	sweep.SetDefaultWorkers(parallel)
	if err := experiments.SetStudyCacheDir(cache); err != nil {
		return err
	}
	defer experiments.SetStudyCacheDir("")
	const cacheEntries = 64
	experiments.SetStudyCacheCap(cacheEntries)
	srv := server.New(server.Options{
		BaseConfig: cfg, MaxInFlight: parallel, CacheEntries: cacheEntries, MaxParallel: parallel,
	})
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			fmt.Fprintf(os.Stderr, "capbench: server shutdown: %v\n", err)
		}
	}()
	tr := &http.Transport{MaxConnsPerHost: parallel, MaxIdleConnsPerHost: parallel}
	defer tr.CloseIdleConnections()
	cl := &client{b: b, http: &http.Client{Transport: tr, Timeout: time.Minute},
		url: "http://" + addr + "/v1/run", ids: ids, ref: ref}

	var timed walkStats
	t0 := time.Now()
	for w := 0; b.until(t0, w, seconds(Median(timed.walls)), 3); w++ {
		cl.walk(w, &timed, 0)
	}
	elapsed := time.Since(t0).Seconds()
	if len(timed.walls) == 0 {
		return nil
	}
	walk := b.timing("wall_s", timed.walls)
	b.e2e["wall_s"] = walk.Median
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		b.e2e["peak_rss_mb"] = float64(ru.Maxrss) / 1024
	}
	b.timing("req_ms", timed.lats)
	b.extra["req_p50_ms"] = Median(timed.lats)
	b.extra["req_p99_ms"] = Percentile(timed.lats, 99)
	b.extra["req_per_s"] = float64(timed.ok) / elapsed
	b.extra["requests_cached"] = timed.cached

	// Read-back: the CLI's warm path over the same cache, in fresh
	// processes whose every row is a persisted read.
	var backs []float64
	for i := 0; i < readBacks; i++ {
		b.attempt()
		p := b.capsimRun(warmArgs(b.opt.seed, cache)...)
		if p.Err != nil {
			b.fail("api-warm read-back: %v", p.Err)
			break
		}
		renders, err := SplitRenders(p.Stdout, ids)
		if err == nil {
			if msg := SameDigests(ref, Digests(renders)); msg != "" {
				err = fmt.Errorf("%s", msg)
			}
		}
		if err != nil {
			b.fail("api-warm read-back differs from set-up: %v", err)
			break
		}
		backs = append(backs, p.Wall.Seconds())
	}
	if len(backs) > 0 {
		b.e2e["report_s"] = b.timing("report_s", backs).Median
	}

	if b.opt.trace == 1 {
		return b.warmTraced(cl, cache, walk.Median)
	}
	return nil
}

// warmTraced runs walks for tracedPhase with obs on and the benchmark
// process CPU-profiled, then folds the profile and counters into
// per-layer metrics.
func (b *Bench) warmTraced(cl *client, cache string, untracedWalk float64) error {
	b.spans = newSpans()
	profile := b.stem + ".cpu.pprof"
	f, err := os.Create(profile)
	if err != nil {
		return err
	}
	obs.SetEnabled(true)
	obs.Default.Reset()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return err
	}
	var st walkStats
	t0 := time.Now()
	root := b.spans.Start("api-warm.traced", 0)
	for w := 0; w < 3 || time.Since(t0) < tracedPhase; w++ {
		cl.walk(1_000_000+w, &st, root)
	}
	b.spans.End(root, nil)
	wall := time.Since(t0).Seconds()
	pprof.StopCPUProfile()
	runtime.ReadMemStats(&m1)
	snap := obs.TakeSnapshot()
	obs.SetEnabled(false)
	if err := f.Close(); err != nil {
		return err
	}
	prof, err := ReadProfile(profile)
	if err != nil {
		return err
	}
	b.layer = layerValues(traced{
		snap:      snap,
		prof:      prof,
		mainLayer: "bench",
		wallS:     wall,
		allocMB:   float64(m1.TotalAlloc-m0.TotalAlloc) / 1e6,
		storeMB:   dirMB(cache),
		overhead:  Median(st.walls)/untracedWalk - 1,
	})
	return nil
}

// client is api-warm's two closed-loop clients.
type client struct {
	b    *Bench
	http *http.Client
	url  string
	ids  []string
	ref  map[string]string // set-up render digests by id
}

// walk sends every id once, in the seeded order of walk w, from parallel
// closed-loop clients, and records the walk's wall time into st. A fixed
// seeded share of the walk's requests may be served by the response cache.
func (c *client) walk(w int, st *walkStats, parent int) {
	rng := rand.New(rand.NewPCG(c.b.opt.seed, uint64(w)))
	order := rng.Perm(len(c.ids))
	cacheable := map[int]bool{}
	for _, i := range rng.Perm(len(c.ids))[:cacheablePerWalk] {
		cacheable[i] = true
	}
	next := make(chan int, len(order))
	for _, i := range order {
		next <- i
	}
	close(next)
	ws := 0
	if c.b.spans != nil {
		ws = c.b.spans.Start(fmt.Sprintf("walk %d", w), parent)
	}
	t0 := time.Now()
	var wg sync.WaitGroup
	for k := 0; k < parallel; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				c.post(c.ids[i], !cacheable[i], st, ws)
			}
		}()
	}
	wg.Wait()
	st.mu.Lock()
	st.walls = append(st.walls, time.Since(t0).Seconds())
	st.mu.Unlock()
	if c.b.spans != nil {
		c.b.spans.End(ws, nil)
	}
}

// post sends one POST /v1/run and checks the response's render against the
// set-up pass's render of the same id.
func (c *client) post(id string, noCache bool, st *walkStats, parent int) {
	body, _ := json.Marshal(map[string]any{"experiment": id, "seed": c.b.opt.seed, "no_cache": noCache})
	c.b.attempt()
	sp := 0
	if c.b.spans != nil {
		sp = c.b.spans.Start("POST "+id, parent)
	}
	t0 := time.Now()
	resp, err := c.http.Post(c.url, "application/json", bytes.NewReader(body))
	var raw []byte
	if err == nil {
		raw, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	lat := time.Since(t0)
	if sp != 0 {
		c.b.spans.End(sp, map[string]any{"no_cache": noCache})
	}
	if err != nil {
		c.b.fail("POST %s: %v", id, err)
		return
	}
	if resp.StatusCode != http.StatusOK {
		c.b.fail("POST %s: status %d: %.200s", id, resp.StatusCode, raw)
		return
	}
	var rr server.RunResponse
	if err := json.Unmarshal(raw, &rr); err != nil {
		c.b.fail("POST %s: %v", id, err)
		return
	}
	if got := sha(rr.Render); got != c.ref[id] {
		c.b.fail("POST %s: render digest %.12s differs from the set-up pass's %.12s", id, got, c.ref[id])
		return
	}
	st.mu.Lock()
	st.lats = append(st.lats, float64(lat.Nanoseconds())/1e6)
	st.ok++
	if rr.Cached {
		st.cached++
	}
	st.mu.Unlock()
}
