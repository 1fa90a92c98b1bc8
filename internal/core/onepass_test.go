package core

import (
	"context"
	"testing"

	"capsim/internal/cache"
	"capsim/internal/classify"
	"capsim/internal/tech"
	"capsim/internal/trace"
	"capsim/internal/workload"
)

// The one-pass kernels are held to the direct machines: one private
// CacheMachine / QueueMachine / CombinedMachine per configuration cell,
// reading a private workload generator instead of the shared trace store,
// driven by a loop written here. Equality is exact float64 equality, on
// every application that has the needed profile.

// queueApps is every application with an instruction profile: the paper's
// registry plus the policy-zoo stress streams.
func queueApps() []workload.Benchmark {
	return append(workload.QueueApps(), workload.ZooApps()...)
}

// directQueueMachine is NewQueueMachine reading a private generator.
func directQueueMachine(t *testing.T, b workload.Benchmark, seed uint64, sizes []int, initial, penaltyCycles int) *QueueMachine {
	t.Helper()
	m, err := NewQueueMachine(b, seed, sizes, initial, penaltyCycles, tech.Micron018)
	if err != nil {
		t.Fatal(err)
	}
	m.stream = workload.NewInstrStream(b, seed)
	return m
}

// directCacheMachine is NewCacheMachine reading a private generator.
func directCacheMachine(t *testing.T, b workload.Benchmark, seed uint64, p cache.Params, initial int) *CacheMachine {
	t.Helper()
	m, err := NewCacheMachine(b, seed, p, PaperMaxBoundary, initial, -1)
	if err != nil {
		t.Fatal(err)
	}
	m.refs = workload.NewAddressTrace(b, seed)
	return m
}

// TestProfileCacheTPIOnepass is the acceptance gate of the one-pass engine:
// ProfileCacheTPI's single MultiHierarchy pass must return the (TPI,
// TPImiss) table of one warmed CacheMachine per boundary.
func TestProfileCacheTPIOnepass(t *testing.T) {
	p := cache.PaperParams()
	const warm, refs = 20000, 80000
	for _, b := range workload.CacheApps() {
		trace.Reset()
		oneTPI, oneMiss, err := ProfileCacheTPI(b, 1998, p, PaperMaxBoundary, warm, refs)
		if err != nil {
			t.Fatalf("%s onepass: %v", b.Name, err)
		}
		if len(oneTPI) != PaperMaxBoundary+1 || len(oneMiss) != PaperMaxBoundary+1 {
			t.Fatalf("%s: table lengths %d/%d", b.Name, len(oneTPI), len(oneMiss))
		}
		for k := 1; k <= PaperMaxBoundary; k++ {
			m := directCacheMachine(t, b, 1998, p, k)
			m.RunInterval(warm)
			m.instrs, m.timeNS, m.missNS = 0, 0, 0
			m.RunInterval(refs)
			if got, want := oneTPI[k], m.TotalTPI(); got != want {
				t.Errorf("%s boundary %d: TPI onepass %v != direct %v", b.Name, k, got, want)
			}
			if got, want := oneMiss[k], m.TotalTPIMiss(); got != want {
				t.Errorf("%s boundary %d: TPImiss onepass %v != direct %v", b.Name, k, got, want)
			}
		}
	}
}

// TestProfileQueueTPIOnepass checks the queue-side kernel: one MultiCore pass
// over the shared instruction store must give the TPI of a fresh
// QueueMachine per size.
func TestProfileQueueTPIOnepass(t *testing.T) {
	sizes := PaperQueueSizes()
	const instrs = 30000
	for _, b := range queueApps() {
		trace.Reset()
		one, err := ProfileQueueTPI(b, 1998, sizes, instrs, tech.Micron018)
		if err != nil {
			t.Fatalf("%s onepass: %v", b.Name, err)
		}
		for i := range sizes {
			m := directQueueMachine(t, b, 1998, sizes, i, -1)
			m.RunInterval(instrs)
			if want := m.TotalTPI(); one[i] != want {
				t.Errorf("%s size %d: TPI onepass %v != direct %v", b.Name, sizes[i], one[i], want)
			}
		}
	}
}

// TestRunCacheOnepass drives a full policy-driven adaptive run (interval
// machine, clock switches and all) over the shared store and over a private
// generator and demands bit-identical aggregates — the cursors must be
// indistinguishable from the generators even mid-run.
func TestRunCacheOnepass(t *testing.T) {
	p := cache.PaperParams()
	configs := make([]int, PaperMaxBoundary)
	for i := range configs {
		configs[i] = i + 1
	}
	for _, b := range workload.CacheApps() {
		trace.Reset()
		m, err := NewCacheMachine(b, 7, p, PaperMaxBoundary, 2, -1)
		if err != nil {
			t.Fatal(err)
		}
		one := RunCache(m, &IntervalPolicy{Configs: configs}, 40, 2000, false)
		direct := RunCache(directCacheMachine(t, b, 7, p, 2), &IntervalPolicy{Configs: configs}, 40, 2000, false)
		if one.TPI != direct.TPI || one.TPIMiss != direct.TPIMiss ||
			one.Refs != direct.Refs || one.Switches != direct.Switches {
			t.Errorf("%s: adaptive cache run diverged:\n store:  %+v\n direct: %+v", b.Name, one, direct)
		}
	}
}

// TestProfileCacheTPIOnepassErrors locks error propagation on the one-pass
// path (no memory profile, bad boundary).
func TestProfileCacheTPIOnepassErrors(t *testing.T) {
	trace.Reset()
	defer trace.Reset()
	p := cache.PaperParams()
	noMem := workload.Benchmark{Name: "synthetic", ILP: workload.MustByName("gcc").ILP}
	if _, _, err := ProfileCacheTPI(noMem, 1, p, PaperMaxBoundary, 0, 1000); err == nil {
		t.Error("missing memory profile accepted")
	}
	if _, _, err := ProfileCacheTPI(workload.MustByName("gcc"), 1, p, p.Increments, 0, 1000); err == nil {
		t.Error("out-of-range boundary accepted")
	}
}

// TestProfileCombinedOnepass is the acceptance gate of the joint kernel:
// ProfileCombined's single MultiCombined pass over the (boundary × queue)
// grid must return each point's TotalTPI from a private CombinedMachine. The
// joint kernel replicates load placement, per-boundary hierarchy state,
// coupled clocks and the TPI arithmetic, not approximations of them.
func TestProfileCombinedOnepass(t *testing.T) {
	p := cache.PaperParams()
	sizes := []int{16, 64, 128}
	var points []CombinedConfig
	for _, k := range []int{1, 2, 6, 8} {
		for _, w := range sizes {
			points = append(points, CombinedConfig{QueueEntries: w, Boundary: k})
		}
	}
	intervals, n := int64(12), int64(2000)
	for _, b := range workload.CacheApps() {
		trace.Reset()
		classify.Reset()
		one, err := ProfileCombined(context.Background(), b, 1998, sizes, p, PaperMaxBoundary, points, intervals, n, tech.Micron018)
		if err != nil {
			t.Fatalf("%s onepass: %v", b.Name, err)
		}
		for j, cc := range points {
			m, err := NewCombinedMachine(b, 1998, sizes, p, PaperMaxBoundary, cc, -1, tech.Micron018)
			if err != nil {
				t.Fatal(err)
			}
			m.istream = workload.NewInstrStream(b, 1998)
			m.refs = workload.NewAddressTrace(b, 1998)
			for i := int64(0); i < intervals; i++ {
				m.RunInterval(n)
			}
			if want := m.TotalTPI(); one[j] != want {
				t.Errorf("%s IQ=%d/L1=%d: TPI onepass %v != direct %v", b.Name, cc.QueueEntries, cc.Boundary, one[j], want)
			}
		}
	}
}

// TestProfileCombinedOnepassErrors locks validation parity on the joint path.
func TestProfileCombinedOnepassErrors(t *testing.T) {
	trace.Reset()
	defer trace.Reset()
	ctx := context.Background()
	p := cache.PaperParams()
	b := workload.MustByName("gcc")
	noMem := workload.Benchmark{Name: "synthetic", ILP: b.ILP}
	pts := []CombinedConfig{{QueueEntries: 16, Boundary: 1}}
	if _, err := ProfileCombined(ctx, noMem, 1, []int{16}, p, PaperMaxBoundary, pts, 1, 100, tech.Micron018); err == nil {
		t.Error("missing memory profile accepted")
	}
	if _, err := ProfileCombined(ctx, b, 1, []int{16}, p, PaperMaxBoundary, nil, 1, 100, tech.Micron018); err == nil {
		t.Error("empty point list accepted")
	}
	bad := []CombinedConfig{{QueueEntries: 32, Boundary: 1}}
	if _, err := ProfileCombined(ctx, b, 1, []int{16}, p, PaperMaxBoundary, bad, 1, 100, tech.Micron018); err == nil {
		t.Error("queue size outside table accepted")
	}
	bad = []CombinedConfig{{QueueEntries: 16, Boundary: PaperMaxBoundary + 1}}
	if _, err := ProfileCombined(ctx, b, 1, []int{16}, p, PaperMaxBoundary, bad, 1, 100, tech.Micron018); err == nil {
		t.Error("out-of-range boundary accepted")
	}
}

// TestProfileQueueTracesOnepass checks the interval-trace sharing: every
// size's per-interval TPI trace from the shared MultiCore rounds must be
// bit-identical to a private fixed-configuration QueueMachine's.
func TestProfileQueueTracesOnepass(t *testing.T) {
	sizes := []int{16, 64, 128}
	intervals, n := int64(25), int64(2000)
	for _, b := range queueApps() {
		trace.Reset()
		ResetPolicyFamilies()
		one, err := ProfileQueueTraces(context.Background(), b, 1998, sizes, intervals, n, tech.Micron018)
		if err != nil {
			t.Fatalf("%s onepass: %v", b.Name, err)
		}
		for i, w := range sizes {
			m := directQueueMachine(t, b, 1998, []int{w}, 0, -1)
			for iv := int64(0); iv < intervals; iv++ {
				if want := m.RunInterval(n).TPI; one[i][iv] != want {
					t.Errorf("%s size %d interval %d: onepass %v != direct %v", b.Name, w, iv, one[i][iv], want)
				}
			}
		}
	}
}
