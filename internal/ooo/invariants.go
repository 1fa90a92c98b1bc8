package ooo

import (
	"fmt"
	"math/bits"

	"capsim/internal/obs"
)

// CheckInvariants verifies the core's structural invariants and returns the
// first violation found, or nil. It is pure read-only and engine-aware.
//
// The checks cover the simulator's accounting identities (issued never
// exceeds dispatched, no negative statistics), the window (occupancy within
// [0, WindowSize]), the completion ring (power-of-two length, never below
// the configured window's requirement, growth strictly monotone — growRing
// only ever enlarges), and, for the event engine, the entry ring (see
// eventState.check).
func (c *Core) CheckInvariants() error {
	s := c.stats
	if s.Issued > s.Instrs {
		return fmt.Errorf("ooo: issued %d exceeds dispatched %d", s.Issued, s.Instrs)
	}
	if s.Cycles < 0 || s.Instrs < 0 || s.Issued < 0 || s.DrainStalls < 0 || s.WindowFullCy < 0 {
		return fmt.Errorf("ooo: negative statistic in %+v", s)
	}
	if s.DrainStalls > s.Cycles {
		return fmt.Errorf("ooo: drain stalls %d exceed cycles %d", s.DrainStalls, s.Cycles)
	}
	if occ := c.Occupancy(); occ < 0 || occ > c.cfg.WindowSize {
		return fmt.Errorf("ooo: occupancy %d outside [0,%d]", occ, c.cfg.WindowSize)
	}
	n := len(c.done)
	if n == 0 || n&(n-1) != 0 {
		return fmt.Errorf("ooo: completion ring length %d not a power of two", n)
	}
	if c.mask != int64(n-1) {
		return fmt.Errorf("ooo: ring mask %#x inconsistent with length %d", c.mask, n)
	}
	if need := ringSize(c.cfg.WindowSize); n < need {
		return fmt.Errorf("ooo: ring length %d below requirement %d for window %d", n, need, c.cfg.WindowSize)
	}
	if c.tal.ringGrows < c.pubTal.ringGrows {
		return fmt.Errorf("ooo: ring growth count moved backwards (%d < %d)", c.tal.ringGrows, c.pubTal.ringGrows)
	}
	if c.engine == EngineEvent {
		if err := c.ev.check(c); err != nil {
			return err
		}
	}
	return nil
}

// assertCheck runs CheckInvariants when -obs-assert is active, funnelling any
// violation through obs.Fail (which counts it and panics). Called at coarse
// boundaries — after a Run and around Resize — so the O(window) scan never
// sits on a per-cycle path.
func (c *Core) assertCheck() {
	if !obs.AssertEnabled() {
		return
	}
	if err := c.CheckInvariants(); err != nil {
		obs.Fail(err)
	}
}

// check verifies the event engine's entry ring against the core: the ring
// and bitmap shapes; the span from lo (at or before the oldest live seq) to
// the newest dispatched seq fits the ring, so no two live entries share a
// slot; the live entries in the span (completion-ring slot pending) number
// exactly occ, so none lies before lo; the bitmap's popcount equals the
// eligible count; no eligible seq precedes the select hint; and eligible +
// calendar + far heap entries never exceed occupancy.
func (ev *eventState) check(c *Core) error {
	n := len(ev.ents)
	if n < 64 || n&(n-1) != 0 || ev.emask != int64(n-1) || len(ev.elig)*64 != n {
		return fmt.Errorf("ooo: entry ring length %d, mask %#x, bitmap %d words inconsistent", n, ev.emask, len(ev.elig))
	}
	if span := c.seq - ev.lo; span < 0 || span > int64(n) {
		return fmt.Errorf("ooo: live span of %d seqs (%d..%d) exceeds the entry ring %d", span, ev.lo, c.seq-1, n)
	}
	live := 0
	for s := ev.lo; s < c.seq; s++ {
		if c.done[s&c.mask] == pending {
			live++
		}
	}
	if live != ev.occ {
		return fmt.Errorf("ooo: live count %d != occupancy %d", live, ev.occ)
	}
	pop := 0
	for _, word := range ev.elig {
		pop += bits.OnesCount64(word)
	}
	if pop != ev.nelig {
		return fmt.Errorf("ooo: eligibility bitmap popcount %d != eligible count %d", pop, ev.nelig)
	}
	for s := ev.lo; s < c.seq && s < ev.hint; s++ {
		if i := s & ev.emask; ev.elig[i>>6]&(1<<(i&63)) != 0 {
			return fmt.Errorf("ooo: eligible seq %d precedes the select hint %d", s, ev.hint)
		}
	}
	ready := ev.nelig + len(ev.far)
	for b := range ev.near {
		ready += len(ev.near[b])
	}
	if ready > ev.occ {
		return fmt.Errorf("ooo: %d ready-structure entries exceed occupancy %d", ready, ev.occ)
	}
	return nil
}

// stallCheck is how many cycles without an issue the progress guard lets
// pass before it looks for a deadlock (and again after each further
// stallCheck cycles). Legitimate stalls are bounded by the longest
// completion latency, so the look is rare and costs one completion-ring
// scan.
const stallCheck = 1 << 12

// progress is the no-issue-progress guard of one stepping loop: the issue
// count and cycle at the last observed progress. Stepping loops (Run, Drain,
// MultiCore rounds) keep one only under -obs-assert, so the guard costs
// nothing when off.
type progress struct{ issued, since int64 }

// newProgress starts a guard at the core's current state.
func (c *Core) newProgress() progress { return progress{c.stats.Issued, c.cycle} }

// watch is called after each step: once stallCheck cycles pass without an
// issue, it fails through obs.Fail if the core is deadlocked — a stale
// pending mark would otherwise spin the loop forever, surfacing as a hang
// instead of a failure.
func (c *Core) watch(p *progress) {
	if c.stats.Issued != p.issued {
		p.issued, p.since = c.stats.Issued, c.cycle
		return
	}
	if c.cycle-p.since < stallCheck {
		return
	}
	p.since = c.cycle
	if c.deadlocked() {
		obs.Fail(fmt.Errorf("ooo: no issue progress by cycle %d: %d entries wait and no issued instruction completes after this cycle", c.cycle, c.Occupancy()))
	}
}

// deadlocked reports whether the window holds entries none of which can
// ever issue. The oldest live entry's producers are older, so all of them
// have issued; once every issued instruction has completed, that entry is
// ready and, being oldest, wins select. A non-empty window with no
// completion after the current cycle (pending marks excluded) can therefore
// only be waiting on a producer that will never issue.
func (c *Core) deadlocked() bool {
	if c.Occupancy() == 0 {
		return false
	}
	for _, t := range c.done {
		if t > c.cycle && t != pending {
			return false
		}
	}
	return true
}
