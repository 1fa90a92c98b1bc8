package core

import (
	"context"
	"fmt"
	"testing"

	"capsim/internal/obs"
	"capsim/internal/ooo"
	"capsim/internal/tech"
	"capsim/internal/trace"
	"capsim/internal/workload"
)

// herdPolicy is a test-only policy built to force copy-on-divergence forks.
// Every instance follows one shared pseudo-random configuration sequence
// (the herd) until its departure interval, takes a configuration the herd
// does not take there, and from then on follows a sequence drawn from its
// own salt. Columns that start together therefore split at a different
// interval each, and every choice is recorded.
type herdPolicy struct {
	k      int   // configurations on the menu
	depart int64 // interval at which this instance leaves the herd
	salt   uint64
	iv     int64
	hist   []int
}

func (p *herdPolicy) Name() string { return fmt.Sprintf("herd(%d)", p.depart) }

func (p *herdPolicy) Next(*Monitor) int {
	iv := p.iv
	p.iv++
	c := herdPick(0, iv, p.k)
	switch {
	case iv == p.depart:
		c = (c + 1) % p.k
	case iv > p.depart:
		c = herdPick(p.salt, iv, p.k)
	}
	p.hist = append(p.hist, c)
	return c
}

// herdPick hashes (salt, interval) to a configuration (splitmix64 finalizer).
func herdPick(salt uint64, iv int64, k int) int {
	x := salt*0x9e3779b97f4a7c15 ^ uint64(iv+1)*0xbf58476d1ce4e5b9
	x ^= x >> 31
	x *= 0x94d049bb133111eb
	x ^= x >> 29
	return int(x % uint64(k))
}

// recordingPolicy wraps a policy and records the configuration history it
// dispatches.
type recordingPolicy struct {
	Policy
	hist []int
}

func (r *recordingPolicy) Next(m *Monitor) int {
	c := r.Policy.Next(m)
	r.hist = append(r.hist, c)
	return c
}

// distinctHistories counts the distinct configuration histories.
func distinctHistories(hists [][]int) int {
	seen := map[string]bool{}
	for _, h := range hists {
		seen[fmt.Sprint(h)] = true
	}
	return len(seen)
}

var racePenalties = []int{-1, 0, 10, 50, 200}

// TestRaceForkEveryInterval forces a fork on every interval: column pairs
// leave the herd one interval after another, each pair at two different
// penalties. Every column must equal RunQueue over a private QueueMachine at
// its own penalty, with exact float64 equality, and the race must end with
// one member core per distinct configuration history.
func TestRaceForkEveryInterval(t *testing.T) {
	ctx := context.Background()
	const intervals, n = 16, int64(2000)
	sizes := []int{16, 64, 128}
	b := workload.MustByName("flutter")
	trace.Reset()
	ResetPolicyFamilies()
	mp, err := NewMultiPolicy(b, 1998, sizes, n, 50, tech.Micron018)
	if err != nil {
		t.Fatal(err)
	}
	var specs []PolicySpec
	for d := int64(0); d < intervals; d++ {
		for r := 0; r < 2; r++ {
			pen := racePenalties[(2*int(d)+r)%len(racePenalties)]
			specs = append(specs, PolicySpec{Policy: &herdPolicy{k: len(sizes), depart: d, salt: uint64(d) + 1}, Penalty: pen})
		}
	}
	raced, members, err := mp.race(ctx, specs, intervals)
	if err != nil {
		t.Fatal(err)
	}
	var hists [][]int
	for j, spec := range specs {
		hp := spec.Policy.(*herdPolicy)
		hists = append(hists, hp.hist)
		direct := &herdPolicy{k: hp.k, depart: hp.depart, salt: hp.salt}
		leg := RunQueue(directQueueMachine(t, b, 1998, sizes, 0, spec.Penalty), direct, intervals, n, false)
		r := raced[j]
		if r.Policy != leg.Policy || r.Instrs != leg.Instrs || r.TimeNS != leg.TimeNS ||
			r.TPI != leg.TPI || r.Switches != leg.Switches {
			t.Errorf("column %d (%s, pen=%d): race diverged from private machine\n race:   %+v\n direct: %+v",
				j, hp.Name(), spec.Penalty, r, leg)
		}
	}
	if want := distinctHistories(hists); members != want || want != intervals {
		t.Errorf("race ended with %d member cores for %d distinct histories (want %d)", members, want, intervals)
	}
}

// TestRaceMembersMatchHistories races the zoo contenders at three penalties
// plus a herd that splits mid-run: the race must end with exactly as many
// member cores as distinct configuration histories among its columns.
func TestRaceMembersMatchHistories(t *testing.T) {
	ctx := context.Background()
	const intervals, n = 60, int64(2000)
	sizes := []int{16, 64, 128}
	menu := []int{0, 1, 2}
	for _, app := range []string{"flutter", "vortex"} {
		b := workload.MustByName(app)
		trace.Reset()
		ResetPolicyFamilies()
		mp, err := NewMultiPolicy(b, 1998, sizes, n, -1, tech.Micron018)
		if err != nil {
			t.Fatal(err)
		}
		var recs []*recordingPolicy
		var specs []PolicySpec
		for _, pen := range []int{0, 50, 200} {
			for _, p := range []Policy{
				&IntervalPolicy{Configs: menu},
				&HysteresisPolicy{Configs: menu},
				&PIDPolicy{Configs: menu},
				&SlopeBanditPolicy{Configs: menu},
				&ProfileThenCommitPolicy{Configs: menu},
				&herdPolicy{k: len(sizes), depart: 30, salt: 7},
			} {
				rp := &recordingPolicy{Policy: p}
				recs = append(recs, rp)
				specs = append(specs, PolicySpec{Policy: rp, Penalty: pen})
			}
		}
		if _, members, err := mp.race(ctx, specs, intervals); err != nil {
			t.Fatal(err)
		} else {
			var hists [][]int
			for _, rp := range recs {
				hists = append(hists, rp.hist)
			}
			if want := distinctHistories(hists); members != want {
				t.Errorf("%s: race ended with %d member cores for %d distinct histories", app, members, want)
			}
			if members >= len(specs) {
				t.Errorf("%s: %d member cores for %d columns: no sharing across penalties", app, members, len(specs))
			}
		}
	}
}

// TestRaceAssertChecks covers the -obs-assert checks on race columns: a
// forking race under assertions records no failure, and each check rejects
// the state it guards against.
func TestRaceAssertChecks(t *testing.T) {
	obs.SetAssert(true)
	defer obs.SetAssert(false)
	before := obs.AssertFailures()
	b := workload.MustByName("vortex")
	trace.Reset()
	ResetPolicyFamilies()
	mp, err := NewMultiPolicy(b, 1998, []int{16, 64}, 2000, -1, tech.Micron018)
	if err != nil {
		t.Fatal(err)
	}
	var specs []PolicySpec
	for d := int64(0); d < 8; d++ {
		specs = append(specs, PolicySpec{Policy: &herdPolicy{k: 2, depart: d, salt: uint64(d)}, Penalty: int(d)})
	}
	if _, err := mp.Race(context.Background(), specs, 8); err != nil {
		t.Fatal(err)
	}
	if got := obs.AssertFailures(); got != before {
		t.Errorf("clean race tripped %d assertions", got-before)
	}

	// checkFork: a fresh clone matches; one that ran on does not.
	c := ooo.MustNew(ooo.PaperConfig(64))
	src := workload.NewInstrStream(b, 3)
	c.Run(src, 5000)
	f := c.Clone()
	if err := checkFork(c, f); err != nil {
		t.Errorf("fresh fork rejected: %v", err)
	}
	f.Run(src, 10)
	if err := checkFork(c, f); err == nil {
		t.Error("fork that ran on accepted as fresh")
	}

	// checkColumns: a column whose size disagrees with its member core.
	mc, err := ooo.NewMultiCore([]ooo.Config{ooo.PaperConfig(16)})
	if err != nil {
		t.Fatal(err)
	}
	rc := &raceCores{mc: mc, cfg: []int{0}, member: []int{0, 0}}
	if err := rc.checkColumns([]int{16, 64}, []int{0, 0}); err != nil {
		t.Errorf("consistent columns rejected: %v", err)
	}
	if err := rc.checkColumns([]int{16, 64}, []int{0, 1}); err == nil {
		t.Error("column size differing from its member core accepted")
	}
}
