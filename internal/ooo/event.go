package ooo

import (
	"math"
	"math/bits"

	"capsim/internal/workload"
)

// This file is the event-driven wakeup/select engine (EngineEvent), bit-exact
// with the per-cycle window scan by construction.
//
// The scan walks the window oldest-first every cycle; an entry issues the
// first cycle in which all its producers have issued, its readiness cycle
// max(producer completion) has arrived, and fewer than IssueWidth older
// ready entries exist. A producer issuing in a pass is visible to its
// (younger) consumers later in the same pass, so single-cycle dependent
// pairs issue back to back.
//
// The event engine computes the same fixpoint without touching waiting
// entries. Every live entry sits in a power-of-two ring indexed by
// seq & emask that covers the live span [lo, seq).
//
//   - Wakeup: each entry heads a list of its consumers, threaded through the
//     consumers' own entries (one link per source operand, no allocation).
//     Links hold the consumer's distance from the producer, not a ring
//     position, so growing the ring never rewrites them. When a producer
//     issues, its completion cycle reaches exactly the entries waiting on
//     it; an entry whose last producer resolves takes the max over sources,
//     as the scan's resolve does.
//   - Select: entries whose readiness has arrived have their bit set in
//     `elig`, a bitmap over the ring. Select is find-first-set from the
//     oldest eligible seq, wrapping once — the paper's priority-encoder
//     tree (Palacharla: the oldest ready entry wins). Each cycle takes up to
//     IssueWidth bits in one forward sweep. Among entries whose readiness
//     has arrived the scan issues strictly by age, however long ago each
//     became ready, which is exactly the order of the sweep.
//   - Future: entries ready within the next nearBuckets cycles sit in a
//     rotating calendar (near[readyAt & nearMask], drained wholesale when
//     its cycle arrives); later ones (long RunWithLoads stalls) go to `far`,
//     a min-heap by (readyAt, seq).
//
// A consumer woken mid-select has a larger seq than the issuing producer, so
// its bit lies ahead of the sweep and the same sweep reaches it, exactly as
// the scan's single oldest-first walk would.

// nilLink terminates consumer lists. A live link is (consumer seq − producer
// seq)<<1 | source index, and consumers are strictly younger, so no live
// link is 0 and a zeroed entry has an empty list.
const nilLink = int32(0)

// nearBuckets is the rotating-calendar span: wakeups landing within this
// many cycles take the O(1) bucket path; later ones take the far heap.
// Must be a power of two and cover the workload latency range (≤ 12).
const (
	nearBuckets = 16
	nearMask    = nearBuckets - 1
)

// eent is one window entry of the event engine, at ents[seq & emask].
type eent struct {
	readyAt int64 // max completion cycle over resolved sources so far
	lat     int64 // completion latency beyond issue
	head    int32 // consumer list head (see nilLink)
	next    [2]int32
	npend   int32 // producers still unissued
}

// farEnt is one far-calendar entry: the readiness cycle and the seq.
type farEnt struct {
	ready int64
	seq   int64
}

// eventState is the event engine's per-core state. The steady-state hot path
// performs no allocation (bucket and heap slices keep their capacity).
type eventState struct {
	// ents[seq & emask] is the entry of seq. lo trails the oldest live
	// (unissued, completion slot pending) seq; the dispatch guard advances
	// it.
	ents  []eent
	emask int64
	lo    int64
	occ   int

	// elig is the eligibility bitmap over ents (bit seq & emask), nelig
	// its popcount. hint is a lower bound on the eligible seqs (MaxInt64
	// when none) where the select sweep starts, so it rarely reads an
	// empty word.
	elig  []uint64
	nelig int
	hint  int64

	// near[readyAt & nearMask] holds the seqs of entries becoming ready at
	// that cycle, for readyAt within (cycle, cycle+nearBuckets).
	near [nearBuckets][]int64
	// far is a min-heap by (ready, seq) for readiness beyond the calendar.
	far []farEnt
}

// entRingSize is the entry-ring length for a window: twice the window (out
// of order issue rarely stretches the live span further; the dispatch guard
// grows the ring when it does), and at least one bitmap word.
func entRingSize(window int) int {
	r := 64
	for r < 2*window {
		r <<= 1
	}
	return r
}

// rehome moves the span [lo, seq) into a new ring of n entries (a power of
// two ≥ 64). Consumer links are seq-relative, so nothing is rewritten.
func (ev *eventState) rehome(n int, seq int64) {
	oldEnts, oldElig, oldMask := ev.ents, ev.elig, ev.emask
	ev.ents = make([]eent, n)
	ev.emask = int64(n - 1)
	ev.elig = make([]uint64, n/64)
	for s := ev.lo; s < seq; s++ {
		i := s & oldMask
		ev.ents[s&ev.emask] = oldEnts[i]
		if oldElig[i>>6]&(1<<(i&63)) != 0 {
			j := s & ev.emask
			ev.elig[j>>6] |= 1 << (j & 63)
		}
	}
}

// clone deep-copies the event state; see Core.Clone.
func (ev *eventState) clone() eventState {
	n := *ev
	n.ents = cloneCap(ev.ents)
	n.elig = cloneCap(ev.elig)
	for b := range ev.near {
		n.near[b] = cloneCap(ev.near[b])
	}
	n.far = cloneCap(ev.far)
	return n
}

// setElig marks seq eligible for select.
func (ev *eventState) setElig(seq int64) {
	i := seq & ev.emask
	ev.elig[i>>6] |= 1 << (i & 63)
	ev.nelig++
	if seq < ev.hint {
		ev.hint = seq
	}
}

// nextElig clears and returns the oldest eligible seq, sweeping the bitmap
// from the ring position of from (at or below every eligible seq) and
// wrapping once: the live span fits the ring, so ring order from there is
// seq order. Requires nelig > 0.
func (ev *eventState) nextElig(from int64) int64 {
	i := from & ev.emask
	w := int(i >> 6)
	word := ev.elig[w] &^ (1<<(i&63) - 1)
	for word == 0 {
		if w++; w == len(ev.elig) {
			w = 0
		}
		word = ev.elig[w]
	}
	b := bits.TrailingZeros64(word)
	ev.elig[w] &^= 1 << b
	ev.nelig--
	return from + (int64(w<<6|b)-i)&ev.emask
}

// fileReady routes an entry whose readiness cycle just became known into the
// select bitmap (readiness arrived), the near calendar, or the far heap.
func (c *Core) fileReady(seq int64, e *eent) {
	ev := &c.ev
	switch d := e.readyAt - c.cycle; {
	case d <= 0:
		c.tal.filedDirect++
		ev.setElig(seq)
	case d < nearBuckets:
		c.tal.filedNear++
		// Strict inequality: dispatch files entries before this cycle's
		// bucket is drained, so readyAt = cycle+nearBuckets would land in
		// the about-to-drain bucket and wake a full rotation early. d <
		// nearBuckets keeps every live bucket entry's readyAt within
		// (cycle, cycle+nearBuckets), distinct mod nearBuckets and never
		// aliasing the current cycle's bucket.
		b := e.readyAt & nearMask
		ev.near[b] = append(ev.near[b], seq)
	default:
		c.tal.filedFar++
		ev.pushFar(farEnt{ready: e.readyAt, seq: seq})
	}
}

// dispatchEvent dispatches n instructions: claim the ring entry for the new
// seq, resolve each source against the completion ring, and either link the
// entry onto the pending producers' consumer lists or, with all sources
// resolved, file it directly into the ready structures. A dispatched entry
// whose readiness cycle has already arrived is eligible in this very cycle's
// select, exactly as the scan (which dispatches before its wakeup+select
// pass) would see it.
func (c *Core) dispatchEvent(stream workload.InstrSource, n int) {
	ev := &c.ev
	for i := 0; i < n; i++ {
		in := stream.Next()
		c.recycleGuard()
		seq := c.seq
		// Entry-ring recycle guard: the entry for seq must not still
		// belong to a live instruction. lo trails the oldest live seq
		// and catches up only here, when the span reaches the ring.
		if seq-ev.lo >= int64(len(ev.ents)) {
			for ev.lo < seq && c.done[ev.lo&c.mask] != pending {
				ev.lo++
			}
			if seq-ev.lo >= int64(len(ev.ents)) {
				ev.rehome(2*len(ev.ents), seq)
			}
		}
		c.seq++
		c.stats.Instrs++
		e := &ev.ents[seq&ev.emask]
		*e = eent{lat: c.instrLat(in)}

		for k := 0; k < 2; k++ {
			p := c.producer(seq, in.Src[k])
			if p < 0 {
				continue
			}
			t, pend := c.lookupDone(p)
			if pend {
				pe := &ev.ents[p&ev.emask]
				e.next[k] = pe.head
				pe.head = int32(seq-p)<<1 | int32(k)
				e.npend++
			} else if t > e.readyAt {
				e.readyAt = t
			}
		}

		c.done[seq&c.mask] = pending
		ev.occ++
		if e.npend == 0 {
			c.fileReady(seq, e)
		}
	}
}

// idleSkip advances the clock directly to the next cycle with scheduled
// readiness, returning how many cycles were skipped (0 when this cycle has —
// or may have — work). Callers invoke it only on cycles with no dispatch
// (full window, or draining): in that state nothing reads the stream, no
// wakeup can fire (wakeups only follow issues), and the select pool is empty,
// so every cycle until the earliest calendar/far readiness is a pure stall —
// the per-cycle loop would do nothing but increment counters. Skipping d
// cycles is therefore exact as long as the caller adds d to the same counters
// the loop would have bumped (Cycles plus WindowFullCy or DrainStalls).
//
// The span invariant survives the jump: live near-bucket entries have readyAt
// in (oldCycle, oldCycle+nearBuckets), the jump lands on the minimum such
// readyAt (or the far minimum, whichever is earlier), so afterwards every
// entry still satisfies cycle <= readyAt < cycle+nearBuckets and this cycle's
// bucket is exactly the entries now due. A non-empty window always has a
// scheduled readiness (eligible, near or far): entries waiting on producers
// chain down to an oldest entry whose sources are all resolved.
func (c *Core) idleSkip() int64 {
	ev := &c.ev
	if ev.nelig > 0 || len(ev.near[c.cycle&nearMask]) > 0 {
		return 0
	}
	if len(ev.far) > 0 && ev.far[0].ready <= c.cycle {
		return 0
	}
	next := int64(-1)
	for d := int64(1); d < nearBuckets; d++ {
		if len(ev.near[(c.cycle+d)&nearMask]) > 0 {
			next = c.cycle + d
			break
		}
	}
	if len(ev.far) > 0 && (next < 0 || ev.far[0].ready < next) {
		next = ev.far[0].ready
	}
	if next < 0 {
		return 0
	}
	d := next - c.cycle
	c.cycle = next
	c.tal.idleSkipped += d
	return d
}

// issueCycleEvent performs one wakeup+select pass at the current cycle.
func (c *Core) issueCycleEvent() {
	ev := &c.ev

	// Cycle-boundary wakeup: entries whose readiness cycle has arrived
	// join the select pool. The calendar bucket for this cycle holds
	// exactly the entries with readyAt == cycle (the span invariant);
	// the far heap surfaces anything longer-latency that is now due.
	if b := c.cycle & nearMask; len(ev.near[b]) > 0 {
		for _, s := range ev.near[b] {
			ev.setElig(s)
		}
		ev.near[b] = ev.near[b][:0]
	}
	for len(ev.far) > 0 && ev.far[0].ready <= c.cycle {
		ev.setElig(ev.popFar().seq)
	}
	if ev.nelig == 0 {
		return
	}

	from := ev.hint
	for issued := 0; issued < c.cfg.IssueWidth && ev.nelig > 0; issued++ {
		s := ev.nextElig(from)
		from = s + 1
		e := &ev.ents[s&ev.emask]
		t := c.cycle + e.lat
		c.done[s&c.mask] = t
		c.stats.Issued++
		ev.occ--

		// Producer-completion wakeup: push t to every consumer that was
		// waiting on this entry. Consumers have larger seqs, so any that
		// become eligible land ahead of the sweep — preserving the scan's
		// same-pass visibility.
		h := e.head
		e.head = nilLink
		for h != nilLink {
			c.tal.wakeups++
			cs := s + int64(h>>1)
			k := h & 1
			ce := &ev.ents[cs&ev.emask]
			h = ce.next[k]
			ce.next[k] = nilLink
			if t > ce.readyAt {
				ce.readyAt = t
			}
			ce.npend--
			if ce.npend == 0 {
				c.fileReady(cs, ce)
			}
		}
	}
	// Entries left eligible were squeezed out by the width limit, so all
	// lie at or after the sweep position.
	ev.hint = from
	if ev.nelig == 0 {
		ev.hint = math.MaxInt64
	}
}

// --- far heap --------------------------------------------------------------
//
// A hand-rolled binary heap with inline keys: sift comparisons stay within
// one contiguous array — no interface box, no callback.

// farLess orders far entries by (ready, seq), the calendar-drain order.
func farLess(a, b farEnt) bool {
	if a.ready != b.ready {
		return a.ready < b.ready
	}
	return a.seq < b.seq
}

func (ev *eventState) pushFar(e farEnt) {
	h := append(ev.far, e)
	ev.far = h
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !farLess(h[i], h[p]) {
			break
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
}

func (ev *eventState) popFar() farEnt {
	h := ev.far
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	ev.far = h[:n]
	h = h[:n]
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && farLess(h[r], h[l]) {
			m = r
		}
		if !farLess(h[m], h[i]) {
			break
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
	return top
}
