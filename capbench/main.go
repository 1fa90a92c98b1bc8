// Command capbench is capsim's benchmark: one command that runs a named
// workload, checks its outputs against the same tree, and prints every
// end-to-end metric (or, with --trace 1, every per-layer metric) as the last
// line of its standard output. Run it from the repository root:
//
//	bash capbench/run.sh --workload process-cold --seed 1998 --seconds 25 --trace 0
//
// See capbench/README.md for the workloads, metrics and predictions.
package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"capsim/internal/experiments"
)

const (
	defaultSeed = 1998
	// heldOutSeed is the seed later performance claims must also hold on;
	// it is never used while tuning a change.
	heldOutSeed = 2718
	// setupReps is how many times a run repeats its set-up; setup_s is the
	// median, so one slow repetition (the first build in a fresh checkout)
	// does not move it.
	setupReps = 3
	// parallel is the sweep worker count of every capsim process: the
	// box's two cores, and no more load than one process can make.
	parallel = 2
	// runLimit bounds one invocation; every child gets at most what is left.
	runLimit = 170 * time.Second
)

func main() {
	var opt options
	flag.StringVar(&opt.workload, "workload", "", "workload: process-cold, interval-cold or api-warm")
	flag.Uint64Var(&opt.seed, "seed", defaultSeed, "workload seed")
	flag.IntVar(&opt.seconds, "seconds", 25, "measurement time in seconds")
	flag.IntVar(&opt.trace, "trace", 0, "1 = also make the traced run and print per-layer metrics")
	flag.StringVar(&opt.root, "root", ".", "capsim repository root")
	flag.StringVar(&opt.out, "out", ".bench_build", "work and results directory")
	flag.Parse()
	if err := run(opt); err != nil {
		fmt.Fprintf(os.Stderr, "capbench: %v\n", err)
		os.Exit(1)
	}
}

type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    int
	root     string
	out      string
}

// Bench is one invocation's state: what it has measured, how many
// operations it attempted and which of them failed.
type Bench struct {
	opt      options
	start    time.Time
	capsim   string // built capsim binary
	work     string // scratch directory of this invocation
	stem     string // results path prefix of this invocation
	spans    *Spans // nil unless tracing
	mu       sync.Mutex
	attempts int
	problems []string

	e2e     map[string]float64
	layer   map[string]float64
	timings map[string]Summary   // every timing's full summary, for the record
	samples map[string][]float64 // and its samples
	extra   map[string]any       // workload-specific record fields
}

func run(opt options) error {
	if opt.seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1")
	}
	if opt.trace != 0 && opt.trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1")
	}
	w, ok := workloads[opt.workload]
	if !ok {
		return fmt.Errorf("unknown --workload %q (have process-cold, interval-cold, api-warm)", opt.workload)
	}
	root, err := filepath.Abs(opt.root)
	if err != nil {
		return err
	}
	opt.root = root
	if _, err := os.Stat(filepath.Join(root, "cmd", "capsim")); err != nil {
		return fmt.Errorf("no capsim sources under %s: %w", root, err)
	}
	if !filepath.IsAbs(opt.out) {
		opt.out = filepath.Join(root, opt.out)
	}
	if err := checkCoverage(); err != nil {
		return err
	}
	b := &Bench{
		opt:     opt,
		start:   time.Now(),
		capsim:  filepath.Join(opt.out, "bin", "capsim"),
		work:    filepath.Join(opt.out, "capbench", fmt.Sprintf("work-%s-%d", opt.workload, os.Getpid())),
		e2e:     map[string]float64{},
		layer:   map[string]float64{},
		timings: map[string]Summary{},
		samples: map[string][]float64{},
		extra:   map[string]any{},
	}
	resDir := filepath.Join(opt.out, "capbench", "results")
	b.stem = filepath.Join(resDir, fmt.Sprintf("%s-seed%d-trace%d", opt.workload, opt.seed, opt.trace))
	meta := b.metadata()
	for _, d := range []string{b.work, resDir} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return err
		}
	}
	defer os.RemoveAll(b.work)
	if err := w(b); err != nil {
		return err
	}
	return b.report(meta)
}

// workloads maps each --workload name to the function that measures it.
var workloads = map[string]func(*Bench) error{
	"process-cold":  func(b *Bench) error { return runCold(b, processCold) },
	"interval-cold": func(b *Bench) error { return runCold(b, intervalCold) },
	"api-warm":      runWarm,
}

// checkCoverage verifies the cold workloads' id lists partition the
// registry, so the two together run every experiment exactly once.
func checkCoverage() error {
	seen := map[string]int{}
	for _, id := range append(append([]string(nil), processCold.ids...), intervalCold.ids...) {
		seen[id]++
	}
	for _, id := range experiments.IDs() {
		if seen[id] != 1 {
			return fmt.Errorf("experiment %s runs %d times across the cold workloads, want 1", id, seen[id])
		}
		delete(seen, id)
	}
	for id := range seen {
		return fmt.Errorf("cold workloads name %s, which is not a registered experiment", id)
	}
	return nil
}

// attempt counts one operation.
func (b *Bench) attempt() {
	b.mu.Lock()
	b.attempts++
	b.mu.Unlock()
}

// fail records one failed operation with its reason.
func (b *Bench) fail(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	b.mu.Lock()
	b.problems = append(b.problems, msg)
	b.mu.Unlock()
	fmt.Fprintf(os.Stderr, "capbench: FAIL %s\n", msg)
}

// left is how much of the invocation's time limit remains.
func (b *Bench) left() time.Duration { return runLimit - time.Since(b.start) }

// setup runs fn setupReps times and records setup_s as the median.
func (b *Bench) setup(fn func(rep int) error) error {
	var xs []float64
	for rep := 0; rep < setupReps; rep++ {
		t0 := time.Now()
		if err := fn(rep); err != nil {
			return err
		}
		xs = append(xs, time.Since(t0).Seconds())
	}
	b.timing("setup_s", xs)
	return nil
}

// buildCapsim brings the capsim binary up to date from source. The go
// command rebuilds only what changed, so after the first build of a
// checkout this is its staleness check.
func (b *Bench) buildCapsim() error {
	cmd := exec.Command("go", "build", "-o", b.capsim, "./cmd/capsim")
	cmd.Dir = b.opt.root
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("building capsim: %w", err)
	}
	return nil
}

// until reports whether another iteration of about est still fits in the
// measurement time; the first minIters always run.
func (b *Bench) until(t0 time.Time, done int, est time.Duration, minIters int) bool {
	if done < minIters {
		return true
	}
	return time.Since(t0)+est <= time.Duration(b.opt.seconds)*time.Second && b.left() > 2*est
}

// seconds converts a float number of seconds (0 when NaN) to a Duration.
func seconds(s float64) time.Duration {
	if math.IsNaN(s) {
		return 0
	}
	return time.Duration(s * float64(time.Second))
}

// timing records a timing's samples under name.
func (b *Bench) timing(name string, xs []float64) Summary {
	s := Summarize(xs)
	b.timings[name] = s
	b.samples[name] = xs
	return s
}

// Proc is one finished capsim process.
type Proc struct {
	Start  time.Time
	Wall   time.Duration
	MaxRSS int64 // KiB
	Stdout string
	Err    error
}

// capsimRun runs the built capsim with args, timing it from start to exit.
// A non-zero exit is returned in Proc.Err with the tail of its stderr.
func (b *Bench) capsimRun(args ...string) Proc {
	ctx, cancel := context.WithTimeout(context.Background(), b.left())
	defer cancel()
	var stdout, stderr bytes.Buffer
	cmd := exec.CommandContext(ctx, b.capsim, args...)
	cmd.Dir = b.work
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	t0 := time.Now()
	err := cmd.Run()
	p := Proc{Start: t0, Wall: time.Since(t0), Stdout: stdout.String()}
	if cmd.ProcessState != nil {
		if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
			p.MaxRSS = ru.Maxrss
		}
	}
	if err != nil {
		tail := stderr.String()
		if len(tail) > 400 {
			tail = tail[len(tail)-400:]
		}
		p.Err = fmt.Errorf("capsim %s: %w: %s", strings.Join(args, " "), err, strings.TrimSpace(tail))
	}
	return p
}

// metadata describes the host, toolchain and inputs of this invocation.
func (b *Bench) metadata() map[string]any {
	def := experiments.DefaultConfig()
	return map[string]any{
		"workload":      b.opt.workload,
		"seed":          b.opt.seed,
		"held_out_seed": heldOutSeed,
		"seconds":       b.opt.seconds,
		"trace":         b.opt.trace,
		"nproc":         runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"go_version":    runtime.Version(),
		"cpu_model":     cpuModel(),
		"loadavg_start": readTrim("/proc/loadavg"),
		"commit":        commit(b.opt.root),
		"parallel":      parallel,
		"budgets": map[string]any{
			"cold": map[string]int64{
				"cache_refs": def.CacheRefs, "cache_warm": def.CacheWarmRefs,
				"queue_instrs": def.QueueInstrs, "interval": def.IntervalInstrs,
			},
			"api_warm_setup": warmBudgets,
		},
		"started": b.start.UTC().Format(time.RFC3339),
	}
}

func readTrim(path string) string {
	raw, err := os.ReadFile(path)
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(raw))
}

func cpuModel() string {
	for _, line := range strings.Split(readTrim("/proc/cpuinfo"), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// commit names the code under test: the git commit when the checkout is a
// repository, otherwise a digest of every Go source and module file.
func commit(root string) string {
	if _, err := os.Stat(filepath.Join(root, ".git")); err == nil {
		cmd := exec.Command("git", "rev-parse", "HEAD")
		cmd.Dir = root
		if out, err := cmd.Output(); err == nil {
			return strings.TrimSpace(string(out))
		}
	}
	h := sha256.New()
	filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if n := d.Name(); !d.IsDir() && (strings.HasSuffix(n, ".go") || n == "go.mod" || n == "go.sum") {
			if raw, err := os.ReadFile(p); err == nil {
				rel, _ := filepath.Rel(root, p)
				fmt.Fprintf(h, "%s %d\n", rel, len(raw))
				h.Write(raw)
			}
		}
		return nil
	})
	return "tree:" + hex.EncodeToString(h.Sum(nil))[:16]
}

// report prints the summary lines and the result line, and keeps the full
// record (metadata, timings, problems, spans) under the results directory.
func (b *Bench) report(meta map[string]any) error {
	names, vals := e2eMetrics, b.e2e
	if b.opt.trace == 1 {
		names, vals = layerMetrics, b.layer
	}
	metrics := map[string]map[string]any{}
	for _, m := range names {
		v, ok := vals[m.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			b.fail("metric %s was not measured", m.Name)
			v = 0
		}
		metrics[m.Name] = map[string]any{"value": v, "unit": m.Unit}
	}
	attempted := max(b.attempts, 1)
	failed := min(len(b.problems), attempted)
	b.extra["error_frac"] = float64(failed) / float64(attempted)

	fmt.Printf("capbench %s seed=%d held-out-seed=%d seconds=%d trace=%d commit=%s\n",
		b.opt.workload, b.opt.seed, heldOutSeed, b.opt.seconds, b.opt.trace, meta["commit"])
	fmt.Printf("  host nproc=%v gomaxprocs=%v %v cpu=%q loadavg=%q\n",
		meta["nproc"], meta["gomaxprocs"], meta["go_version"], meta["cpu_model"], meta["loadavg_start"])
	var tnames []string
	for n := range b.timings {
		tnames = append(tnames, n)
	}
	sort.Strings(tnames)
	for _, n := range tnames {
		s := b.timings[n]
		tail := "tail n/a (fewer than 11 samples)"
		if s.HasTail {
			tail = fmt.Sprintf("p%.2f %.6g", s.TailPct, s.Tail)
		}
		fmt.Printf("  timing %-22s median %.6g  %s  n=%d\n", n, s.Median, tail, s.N)
	}
	for _, m := range summaryOnly {
		if v, ok := b.extra[m.Name].(float64); ok {
			fmt.Printf("  %-40s %.6g %s\n", m.Name, v, m.Unit)
		}
	}
	for _, m := range names {
		fmt.Printf("  %-40s %.6g %s\n", m.Name, metrics[m.Name]["value"], m.Unit)
	}
	for _, p := range b.problems {
		fmt.Printf("  problem: %s\n", p)
	}

	if b.spans != nil {
		if err := b.spans.WriteFile(b.stem + ".spans.json"); err != nil {
			return err
		}
	}
	rec := map[string]any{
		"meta": meta, "timings": b.timings, "samples": b.samples, "e2e": b.e2e, "layer": b.layer,
		"extra": b.extra, "attempted": b.attempts, "problems": b.problems,
	}
	raw, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(b.stem+".json", raw, 0o644); err != nil {
		return err
	}
	fmt.Printf("  record %s.json\n", b.stem)

	line, err := json.Marshal(map[string]any{
		"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}
