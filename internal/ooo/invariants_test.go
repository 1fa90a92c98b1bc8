package ooo

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"capsim/internal/obs"
	"capsim/internal/workload"
)

// TestMain runs the package's tests under -obs-assert: every Run, Drain and
// MultiCore round checks the invariants at its end and keeps the progress
// guard, so a corrupted core fails its test instead of hanging it.
func TestMain(m *testing.M) {
	obs.SetAssert(true)
	os.Exit(m.Run())
}

// runSome drives a small core a few hundred instructions so the invariant
// checks see a realistic mid-flight state.
func runSome(t *testing.T, e Engine) *Core {
	t.Helper()
	c, err := NewWithEngine(PaperConfig(32), e)
	if err != nil {
		t.Fatal(err)
	}
	b, err := workload.ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	c.Run(workload.NewInstrStream(b, 1), 500)
	return c
}

func TestCheckInvariantsCleanBothEngines(t *testing.T) {
	for _, e := range []Engine{EngineScan, EngineEvent} {
		c := runSome(t, e)
		if err := c.CheckInvariants(); err != nil {
			t.Errorf("engine %v: clean core failed invariants: %v", e, err)
		}
	}
}

// mustTrip asserts that CheckInvariants reports an error containing want.
func mustTrip(t *testing.T, c *Core, want string) {
	t.Helper()
	err := c.CheckInvariants()
	if err == nil {
		t.Fatalf("corruption not detected (want %q)", want)
	}
	if !strings.Contains(err.Error(), want) {
		t.Fatalf("error %q does not mention %q", err, want)
	}
}

func TestCheckInvariantsTripsIssuedExceedsDispatched(t *testing.T) {
	c := runSome(t, EngineEvent)
	c.stats.Issued = c.stats.Instrs + 1
	mustTrip(t, c, "exceeds dispatched")
}

func TestCheckInvariantsTripsNegativeStat(t *testing.T) {
	c := runSome(t, EngineScan)
	c.stats.Cycles = -1
	mustTrip(t, c, "negative statistic")
}

func TestCheckInvariantsTripsDrainStalls(t *testing.T) {
	c := runSome(t, EngineScan)
	c.stats.DrainStalls = c.stats.Cycles + 1
	mustTrip(t, c, "drain stalls")
}

func TestCheckInvariantsTripsOccupancy(t *testing.T) {
	c := runSome(t, EngineEvent)
	c.ev.occ = c.cfg.WindowSize + 1
	mustTrip(t, c, "occupancy")
}

func TestCheckInvariantsTripsRingShape(t *testing.T) {
	c := runSome(t, EngineScan)
	c.done = c.done[:len(c.done)-1] // no longer a power of two
	mustTrip(t, c, "power of two")

	c = runSome(t, EngineScan)
	c.mask = 7 // inconsistent with the ring length
	mustTrip(t, c, "mask")

	c = runSome(t, EngineScan)
	c.done = make([]int64, 2)
	c.mask = 1 // power of two but far below ringSize(window)
	mustTrip(t, c, "below requirement")
}

func TestCheckInvariantsTripsRingGrowthMonotonicity(t *testing.T) {
	c := runSome(t, EngineEvent)
	c.pubTal.ringGrows = c.tal.ringGrows + 1
	mustTrip(t, c, "backwards")
}

// TestCheckInvariantsTripsSlotLeak marks a live entry issued in the
// completion ring without releasing it from the window: the live entries of
// the span no longer add up to the occupancy.
func TestCheckInvariantsTripsSlotLeak(t *testing.T) {
	c := runSome(t, EngineEvent)
	s := c.seq - 1
	for s >= c.ev.lo && c.done[s&c.mask] != pending {
		s--
	}
	if s < c.ev.lo || s == c.ev.lo {
		t.Skip("no live entry above the oldest; cannot fabricate a leak this way")
	}
	c.done[s&c.mask] = c.cycle
	mustTrip(t, c, "live count")
}

func TestCheckInvariantsTripsReadyOverflow(t *testing.T) {
	c := runSome(t, EngineEvent)
	b := (c.cycle + 1) & nearMask
	for i := 0; i <= c.cfg.WindowSize; i++ {
		c.ev.near[b] = append(c.ev.near[b], c.seq-1)
	}
	mustTrip(t, c, "exceed occupancy")
}

func TestCheckInvariantsTripsBitmapCount(t *testing.T) {
	c := runSome(t, EngineEvent)
	c.ev.nelig++ // a count with no bit behind it
	mustTrip(t, c, "popcount")
	c = runSome(t, EngineEvent)
	c.ev.elig[0] ^= 1 // a bit the count does not know about
	mustTrip(t, c, "popcount")
}

func TestCheckInvariantsTripsSelectHint(t *testing.T) {
	c := runSome(t, EngineEvent)
	if c.ev.nelig == 0 {
		c.ev.setElig(c.seq - 1) // fabricate an eligible entry (it is live)
		c.ev.hint = c.seq
	} else {
		c.ev.hint = c.seq // past every eligible entry
	}
	mustTrip(t, c, "select hint")
}

func TestCheckInvariantsTripsLiveSpan(t *testing.T) {
	c := runSome(t, EngineEvent)
	c.ev.lo = c.seq - int64(len(c.ev.ents)) - 1
	mustTrip(t, c, "exceeds the entry ring")

	c = runSome(t, EngineEvent)
	if c.ev.occ == 0 {
		t.Skip("window empty; no oldest live entry to corrupt")
	}
	for c.done[c.ev.lo&c.mask] != pending {
		c.ev.lo++ // lo may trail the oldest live entry; move it onto it
	}
	c.ev.lo++ // and then past it
	mustTrip(t, c, "live count")
}

// farChainSource emits a dependence chain that also reaches back past the
// window: instruction s reads s-1 and s-farChainDist.
type farChainSource struct{}

const farChainDist = 40

func (farChainSource) Next() workload.Instr {
	return workload.Instr{Src: [2]int32{1, farChainDist}, Latency: 1}
}

// TestProgressGuardFailsOnStalePending plants a stale pending mark in the
// completion ring — a producer that already issued reads as unissued — so
// the next instruction that reads it, and the chain behind that one, wait
// forever. Under -obs-assert the run must fail through obs.Fail instead of
// spinning.
func TestProgressGuardFailsOnStalePending(t *testing.T) {
	prev := obs.AssertEnabled()
	obs.SetAssert(true)
	defer obs.SetAssert(prev)
	for _, e := range []Engine{EngineScan, EngineEvent} {
		c, err := NewWithEngine(PaperConfig(32), e)
		if err != nil {
			t.Fatal(err)
		}
		c.Run(farChainSource{}, 500)
		// The window holds at most 32 entries, so the producer of the
		// next dispatch's far source has issued; mark it pending again.
		p := c.seq - farChainDist
		if c.done[p&c.mask] == pending {
			t.Fatalf("engine %v: seq %d still in the window", e, p)
		}
		c.done[p&c.mask] = pending
		msg := func() (msg any) {
			defer func() { msg = recover() }()
			c.Run(farChainSource{}, 1<<20)
			return nil
		}()
		if msg == nil {
			t.Fatalf("engine %v: a run behind a stale pending producer finished", e)
		}
		if !strings.Contains(fmt.Sprint(msg), "no issue progress") {
			t.Fatalf("engine %v: failure %q is not the progress guard's", e, msg)
		}
	}
}

// TestAssertCheckFailsThroughObs verifies the -obs-assert funnel: with the
// switch on, a corrupted core panics via obs.Fail and bumps the failure
// counter; with it off, assertCheck is a no-op.
func TestAssertCheckFailsThroughObs(t *testing.T) {
	c := runSome(t, EngineEvent)
	c.stats.Issued = c.stats.Instrs + 1

	prev := obs.AssertEnabled()
	defer obs.SetAssert(prev)

	obs.SetAssert(false)
	c.assertCheck() // must not panic

	obs.SetAssert(true)
	before := obs.AssertFailures()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("assertCheck did not panic with -obs-assert on")
			}
		}()
		c.assertCheck()
	}()
	if got := obs.AssertFailures(); got != before+1 {
		t.Fatalf("assert failure counter %d, want %d", got, before+1)
	}
}

// TestPublishObsDeltas verifies PublishObs ships deltas, not totals: two
// consecutive publishes after one run must add the run's stats exactly once.
func TestPublishObsDeltas(t *testing.T) {
	prev := obs.Enabled()
	obs.SetEnabled(true)
	defer obs.SetEnabled(prev)

	base := obsIssued.Value()
	c := runSome(t, EngineEvent)
	c.PublishObs()
	c.PublishObs() // second publish: zero delta
	if got, want := obsIssued.Value()-base, c.stats.Issued; got != want {
		t.Fatalf("published issued delta %d, want %d", got, want)
	}
	if obsWakeups.Value() == 0 {
		t.Fatal("event engine published no wakeups")
	}
}
