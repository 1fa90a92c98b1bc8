package main

import (
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"capsim/internal/flight"
	"capsim/internal/obs"
)

// coldSpec is one fresh-process workload: a capsim process runs ids against
// an empty study cache, then a second fresh process reads the result back.
type coldSpec struct {
	name   string
	ids    []string
	ledger bool // record a flight ledger and read it back with -report
	// readBacks is how many read-back processes follow each pass: a
	// warm re-render takes milliseconds and -report about two seconds,
	// and one sample of either is noisy.
	readBacks int
}

var (
	// processCold runs every experiment outside Section 6: workload and
	// trace generation, classify, the cache and ooo one-pass kernels and
	// the study-cache write path, but no policy race or ledger.
	processCold = coldSpec{name: "process-cold", readBacks: 5, ids: strings.Split(
		"fig1a,fig1b,fig2,fig7,fig8,fig9,fig10,fig11,ablation-bpred,ablation-combined,"+
			"ablation-increment,ablation-power,ablation-tlb", ",")}
	// intervalCold runs the Section 6 set: interval families, the policy
	// race and oracle, and the flight ledger writer and reader.
	intervalCold = coldSpec{name: "interval-cold", ledger: true, readBacks: 2, ids: strings.Split(
		"fig12,fig13,ablation-interval,ablation-switch,zoo", ",")}
)

// coldPass is one fresh-process pass and its read-back.
type coldPass struct {
	sim       Proc
	backs     []Proc // the read-back processes
	digests   map[string]string
	renders   map[string]string
	ledgerSHA string
	ledgerRun []int64
	backSHA   string
}

// runCold measures spec: set-up, then passes until --seconds is used, then
// (with --trace 1) one traced pass.
func runCold(b *Bench, spec coldSpec) error {
	dir := filepath.Join(b.work, "pass")
	if err := b.setup(func(int) error {
		if err := b.buildCapsim(); err != nil {
			return err
		}
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
		return os.MkdirAll(filepath.Join(dir, "cache"), 0o755)
	}); err != nil {
		return err
	}

	var (
		walls, backs, rss, iters []float64
		ref                      *coldPass
	)
	t0 := time.Now()
	for i := 0; b.until(t0, i, seconds(Median(iters)), 2); i++ {
		it := time.Now()
		p, err := b.coldPass(spec, dir, nil)
		if err != nil {
			return err
		}
		if p == nil {
			break // recorded; the result line reports it
		}
		walls = append(walls, p.sim.Wall.Seconds())
		for _, bp := range p.backs {
			backs = append(backs, bp.Wall.Seconds())
		}
		rss = append(rss, float64(p.sim.MaxRSS)/1024)
		if ref == nil {
			ref = p
			if spec.ledger {
				b.checkZooReport(dir, p)
			}
		} else {
			b.samePass(spec, ref, p)
		}
		iters = append(iters, time.Since(it).Seconds())
	}
	if ref == nil {
		return nil
	}
	wall := b.timing("wall_s", walls)
	b.e2e["setup_s"] = b.timings["setup_s"].Median
	b.e2e["wall_s"] = wall.Median
	b.e2e["report_s"] = b.timing("report_s", backs).Median
	b.e2e["peak_rss_mb"] = Median(rss)
	b.extra["digests"] = ref.digests
	if spec.ledger {
		b.extra["ledger_sha256"] = ref.ledgerSHA
		b.extra["report_sha256"] = ref.backSHA
	}
	if b.opt.trace == 1 {
		return b.coldTraced(spec, dir, ref, wall.Median)
	}
	return nil
}

// coldPass runs one fresh simulating process over an empty study cache and
// its read-back process. extra adds flags to the simulating process. It
// returns nil (having recorded the failure) when a process fails.
func (b *Bench) coldPass(spec coldSpec, dir string, extra []string) (*coldPass, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(filepath.Join(dir, "cache"), 0o755); err != nil {
		return nil, err
	}
	args := []string{
		"-seed", fmt.Sprint(b.opt.seed),
		"-experiment", strings.Join(spec.ids, ","),
		"-parallel", fmt.Sprint(parallel),
		"-study-cache", filepath.Join(dir, "cache"),
	}
	ledger := filepath.Join(dir, "run.ledger.gz")
	if spec.ledger {
		args = append(args, "-ledger-out", ledger)
	}
	p := &coldPass{}
	b.attempt()
	p.sim = b.capsimRun(append(args, extra...)...)
	if p.sim.Err != nil {
		b.fail("%s: %v", spec.name, p.sim.Err)
		return nil, nil
	}
	renders, err := SplitRenders(p.sim.Stdout, spec.ids)
	if err != nil {
		b.fail("%s: %v", spec.name, err)
		return nil, nil
	}
	p.renders, p.digests = renders, Digests(renders)

	if spec.ledger {
		if p.ledgerSHA, p.ledgerRun, err = LedgerDigest(ledger); err != nil {
			b.fail("%s: ledger: %v", spec.name, err)
			return nil, nil
		}
	}
	// Read-back, spec.readBacks times: -report over the ledger, or the
	// same command against the cache the pass just filled, where every row
	// is a persisted read and the renders must not change.
	backArgs := args
	if spec.ledger {
		backArgs = []string{"-report", ledger}
	}
	for i := 0; i < spec.readBacks; i++ {
		b.attempt()
		back := b.capsimRun(backArgs...)
		if back.Err != nil {
			b.fail("%s: read-back: %v", spec.name, back.Err)
			return nil, nil
		}
		if spec.ledger {
			if d := sha(back.Stdout); p.backSHA == "" {
				p.backSHA = d
			} else if d != p.backSHA {
				b.fail("%s: -report output changed between read-backs", spec.name)
			}
		} else {
			renders, err := SplitRenders(back.Stdout, spec.ids)
			if err != nil {
				b.fail("%s: read-back: %v", spec.name, err)
				return nil, nil
			}
			if d := SameDigests(p.digests, Digests(renders)); d != "" {
				b.fail("%s: warm read-back differs from the cold pass: %s", spec.name, d)
			}
		}
		p.backs = append(p.backs, back)
	}
	return p, nil
}

// samePass checks a later pass against the first: every render, the ledger
// and the -report output must be byte-identical.
func (b *Bench) samePass(spec coldSpec, ref, p *coldPass) {
	if d := SameDigests(ref.digests, p.digests); d != "" {
		b.fail("%s: render changed between passes: %s", spec.name, d)
	}
	if spec.ledger && (p.ledgerSHA != ref.ledgerSHA || p.backSHA != ref.backSHA) {
		b.fail("%s: ledger or -report output changed between passes", spec.name)
	}
}

// checkZooReport runs -report over the zoo's own runs (the last ledger runs,
// one per league row, since zoo runs last) and requires its tables to equal
// the zoo render byte for byte.
func (b *Bench) checkZooReport(dir string, p *coldPass) {
	b.attempt()
	zoo := p.renders["zoo"]
	n := zooRows(zoo)
	if n <= 0 || n > len(p.ledgerRun) {
		b.fail("zoo check: %d league rows for %d ledger runs", n, len(p.ledgerRun))
		return
	}
	keep := map[int64]bool{}
	for _, r := range p.ledgerRun[len(p.ledgerRun)-n:] {
		keep[r] = true
	}
	sub := filepath.Join(dir, "zoo.ledger")
	if err := WriteLedgerSubset(filepath.Join(dir, "run.ledger.gz"), sub, keep); err != nil {
		b.fail("zoo check: %v", err)
		return
	}
	rep := b.capsimRun("-report", sub)
	if rep.Err != nil {
		b.fail("zoo check: %v", rep.Err)
		return
	}
	if err := ReportMatchesZoo(rep.Stdout, zoo); err != nil {
		b.fail("zoo check: %v", err)
	}
}

// coldTraced makes the traced pass: the same process with the CLI's own
// -obs -metrics-out -cpuprofile flags, whose outputs must equal the timed
// passes', then folds its manifest and profile into per-layer metrics.
func (b *Bench) coldTraced(spec coldSpec, dir string, ref *coldPass, untracedWall float64) error {
	b.spans = newSpans()
	manifest := b.stem + ".manifest.json"
	profile := b.stem + ".cpu.pprof"
	root := b.spans.Start(spec.name+".traced", 0)
	p, err := b.coldPass(spec, dir, []string{"-obs", "-metrics-out", manifest, "-cpuprofile", profile})
	if err != nil {
		return err
	}
	if p == nil {
		return nil // recorded; the result line reports it
	}
	b.spans.Add("capsim", root, p.sim, map[string]any{"max_rss_kb": p.sim.MaxRSS})
	back := "read-back"
	if spec.ledger {
		back = "report"
	}
	for _, bp := range p.backs {
		b.spans.Add(back, root, bp, nil)
	}
	b.samePass(spec, ref, p)

	var man obs.Manifest
	raw, err := os.ReadFile(manifest)
	if err == nil {
		err = json.Unmarshal(raw, &man)
	}
	if err != nil {
		return fmt.Errorf("%s: traced manifest: %w", spec.name, err)
	}
	prof, err := ReadProfile(profile)
	if err != nil {
		return fmt.Errorf("%s: traced profile: %w", spec.name, err)
	}
	t := traced{
		snap:        man.Final,
		experiments: man.Experiments,
		prof:        prof,
		mainLayer:   "cli",
		wallS:       float64(man.TotalWallNS) / 1e9,
		storeMB:     dirMB(filepath.Join(dir, "cache")),
		overhead:    p.sim.Wall.Seconds()/untracedWall - 1,
	}
	for _, e := range man.Experiments {
		t.allocMB += float64(e.AllocBytes) / 1e6
	}
	if spec.ledger {
		ledger := filepath.Join(dir, "run.ledger.gz")
		if fi, err := os.Stat(ledger); err == nil {
			t.ledgerMB = float64(fi.Size()) / 1e6
		}
		// The ledger reader, timed in this process around the call.
		runtime.GC()
		b.attempt()
		ps := b.spans.Start("flight.ReadReportInput", root)
		t1 := time.Now()
		if _, err := flight.ReadReportInput(ledger); err != nil {
			b.fail("%s: reading the ledger: %v", spec.name, err)
		}
		t.parseS = time.Since(t1).Seconds()
		b.spans.End(ps, nil)
	}
	b.spans.End(root, nil)
	b.layer = layerValues(t)
	b.extra["experiments"] = man.Experiments
	return nil
}

// dirMB is the total size of the regular files under dir.
func dirMB(dir string) float64 {
	var n int64
	filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			if fi, err := d.Info(); err == nil {
				n += fi.Size()
			}
		}
		return nil
	})
	return float64(n) / 1e6
}
