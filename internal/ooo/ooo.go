// Package ooo implements the out-of-order issue-queue simulator used for the
// paper's complexity-adaptive instruction queue experiment (Section 5.3).
//
// Following the paper's methodology, the machine model is deliberately
// idealized everywhere except the queue itself: an 8-way fetch/dispatch
// front end with perfect branch prediction, perfect caches, and plentiful
// functional units. IPC is then determined solely by how much of the
// instruction stream's dependence structure the window can expose — which is
// exactly the quantity that trades against the queue's wakeup+select cycle
// time.
//
// The queue is a RAM/CAM structure: dispatched instructions wait in the
// window until their source operands complete (wakeup), ready instructions
// issue oldest-first up to the issue width (select, a tree of priority
// encoders), and entries are freed at issue. Shrinking the queue requires
// draining the entries being disabled (paper Section 5.1); Drain models
// that.
//
// Two issue engines implement those semantics (see engine.go):
//
//   - EngineScan is the direct model: every cycle re-scans the whole window
//     oldest-first, waking and selecting in one pass. Cost O(cycles · W).
//   - EngineEvent (what New builds) is the event-driven equivalent:
//     per-producer consumer lists fire wakeups the moment a producer's
//     completion cycle becomes known, setting the entry's bit in an
//     eligibility bitmap over a seq-indexed entry ring; select is
//     find-first-set from the oldest live seq. Cost is proportional to work
//     issued, not cycles × window. See event.go for the invariants that make
//     it bit-identical to the scan.
package ooo

import (
	"fmt"
	"math"

	"capsim/internal/obs"
	"capsim/internal/workload"
)

// Config describes the simulated machine.
type Config struct {
	// WindowSize is the number of instruction-queue entries.
	WindowSize int
	// IssueWidth is the maximum instructions issued per cycle (and the
	// dispatch width; the paper models an 8-way machine).
	IssueWidth int
}

// PaperConfig returns the paper's 8-way machine with the given window.
func PaperConfig(window int) Config { return Config{WindowSize: window, IssueWidth: 8} }

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.WindowSize < 1 {
		return fmt.Errorf("ooo: window size %d must be >= 1", c.WindowSize)
	}
	if c.IssueWidth < 1 {
		return fmt.Errorf("ooo: issue width %d must be >= 1", c.IssueWidth)
	}
	return nil
}

// maxDist caps usable dependence distances; producers further away are
// treated as retired (their results are trivially available). The paper's
// window sizes top out at 128 entries and every workload profile draws
// dependence distances from geometric mixtures with means below ~30, so a
// 2048-instruction horizon is unreachable in practice (P ≈ e^-68 per
// instruction for the largest mean); and any producer ≥ maxDist dispatches
// old has long completed (in-flight age is bounded by the window plus
// IssueWidth × the maximum completion latency, far below maxDist), so its
// contribution to a consumer's readiness is already in the past and
// classification as "retired" cannot change issue timing.
const maxDist = 1 << 11

// ringSlack is the extra completion-ring headroom beyond WindowSize+maxDist:
// a producer's ring slot must survive until no live consumer can inspect it,
// i.e. for up to maxDist+WindowSize dispatches plus the instructions that can
// dispatch past a still-waiting consumer. The slack covers every realistic
// schedule; pathological ones (enormous RunWithLoads latencies) are caught by
// the recycle guard in dispatch, which grows the ring rather than reuse a
// slot whose instruction has not yet completed.
const ringSlack = 1 << 11

// ringSize returns the completion-ring capacity for a window: the smallest
// power of two covering the window, the tracked dependence horizon and the
// in-flight slack. For the paper's 16–128-entry windows this is 8192 slots
// (64 KB) — 8× smaller than the fixed 512 KB ring it replaces, which matters
// when profiling fans dozens of cores out across sweep workers.
func ringSize(window int) int {
	need := window + maxDist + ringSlack
	r := 1
	for r < need {
		r <<= 1
	}
	return r
}

// pending marks a dispatched-but-not-yet-issued producer in the ring.
const pending = int64(1) << 62

// entry is one occupied window slot (scan engine).
type entry struct {
	seq   int64 // dynamic instruction number (issue priority: oldest first)
	src0  int64 // producer seq, or -1
	src1  int64 // producer seq, or -1
	ready int64 // resolved readiness cycle, or -1 while a source is pending
	lat   int64
}

// Core is the simulator state.
type Core struct {
	cfg    Config
	engine Engine
	cycle  int64
	seq    int64 // next dynamic instruction number to dispatch

	// window is kept in dispatch order (oldest first); the scan engine's
	// select logic walks it in order, matching an oldest-first priority
	// encoder tree. Unused by the event engine.
	window []entry

	// done[seq & mask] is the cycle the instruction's result is available,
	// or `pending` while it sits unissued in the window. The ring is a
	// power of two sized by ringSize for the configured window (it grows,
	// never shrinks, across Resize).
	done []int64
	mask int64

	// ev is the event engine's state (event.go); zero-valued when the scan
	// engine is active.
	ev eventState

	// Load attachment (RunWithLoads): every 1/loadRPI-th dispatched
	// instruction becomes a memory operation whose extra latency is
	// drawn from memLat. Zero-valued = disabled (perfect caches).
	//
	// loadAcc is the fractional-load accumulator. It deliberately
	// persists across RunWithLoads calls: the CombinedMachine runs in
	// intervals, and the deterministic refs-per-instruction spacing must
	// continue across interval boundaries rather than restart (the
	// accumulator carrying, say, 0.7 into the next interval makes its
	// first load arrive one instruction earlier, exactly as if the run
	// had not been split). TestRunWithLoadsCarryOver pins this.
	loadRPI float64
	loadAcc float64
	memLat  func(write bool) int64

	stats Stats

	// Telemetry tallies and publish baselines (obs.go): plain unconditional
	// increments on already-branchy paths, shipped as deltas by PublishObs.
	tal      tallies
	pubStats Stats
	pubTal   tallies
}

// Stats accumulates execution statistics.
type Stats struct {
	Cycles       int64
	Instrs       int64 // dispatched
	Issued       int64
	DrainStalls  int64 // cycles spent draining for downsizing
	WindowFullCy int64 // cycles in which dispatch was blocked by a full window
}

// IPC returns issued instructions per cycle.
func (s Stats) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Issued) / float64(s.Cycles)
}

// Sub returns s - o, the statistics delta between two snapshots.
func (s Stats) Sub(o Stats) Stats {
	return Stats{
		Cycles:       s.Cycles - o.Cycles,
		Instrs:       s.Instrs - o.Instrs,
		Issued:       s.Issued - o.Issued,
		DrainStalls:  s.DrainStalls - o.DrainStalls,
		WindowFullCy: s.WindowFullCy - o.WindowFullCy,
	}
}

// New creates a core on the event-driven issue engine.
func New(cfg Config) (*Core, error) { return NewWithEngine(cfg, EngineEvent) }

// NewWithEngine creates a core with an explicit issue engine. Both engines
// are bit-identical in every statistic; they differ only in asymptotic cost
// (the differential and fuzz tests in this package enforce the equivalence).
func NewWithEngine(cfg Config, e Engine) (*Core, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.WindowSize >= maxDist {
		return nil, fmt.Errorf("ooo: window size %d exceeds supported maximum %d", cfg.WindowSize, maxDist-1)
	}
	r := ringSize(cfg.WindowSize)
	c := &Core{
		cfg:    cfg,
		engine: e,
		done:   make([]int64, r),
		mask:   int64(r - 1),
	}
	if e == EngineEvent {
		c.ev.rehome(entRingSize(cfg.WindowSize), 0)
		c.ev.hint = math.MaxInt64
	} else {
		c.window = make([]entry, 0, cfg.WindowSize)
	}
	return c, nil
}

// MustNew is New but panics on error.
func MustNew(cfg Config) *Core {
	c, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// Config returns the core's configuration.
func (c *Core) Config() Config { return c.cfg }

// Engine returns the issue engine the core runs on.
func (c *Core) Engine() Engine { return c.engine }

// Stats returns accumulated statistics.
func (c *Core) Stats() Stats { return c.stats }

// ResetStats zeroes counters without touching pipeline state (used to
// discard warm-up and to delimit measurement intervals).
func (c *Core) ResetStats() { c.stats, c.pubStats = Stats{}, Stats{} }

// Occupancy returns the current number of window entries in use.
func (c *Core) Occupancy() int {
	if c.engine == EngineEvent {
		return c.ev.occ
	}
	return len(c.window)
}

// Run simulates until n more instructions have been issued, pulling from the
// stream as needed, and returns the statistics delta for this run. Issued
// instructions are the paper's measurement unit (TPI over a fixed
// instruction count).
func (c *Core) Run(stream workload.InstrSource, n int64) Stats {
	before := c.stats
	target := c.stats.Issued + n
	if obs.AssertEnabled() {
		p := c.newProgress()
		for c.stats.Issued < target {
			c.Step(stream)
			c.watch(&p)
		}
	} else {
		for c.stats.Issued < target {
			c.Step(stream)
		}
	}
	c.assertCheck()
	return c.stats.Sub(before)
}

// RunWithLoads is Run with the perfect-cache assumption removed: a
// deterministic rpi fraction of dispatched instructions become memory
// operations whose extra completion latency is supplied by memLat (cycles
// beyond a pipelined L1 hit). The CombinedMachine uses this to couple the
// adaptive queue to the live adaptive cache hierarchy.
//
// The fractional-load accumulator carries over between successive calls (see
// the loadAcc field): splitting a run into intervals yields the identical
// load placement — and therefore identical memLat call sequence and
// statistics — as one unbroken run.
func (c *Core) RunWithLoads(stream workload.InstrSource, n int64, rpi float64, memLat func(write bool) int64) Stats {
	c.attachLoads(rpi, memLat)
	defer c.detachLoads()
	return c.Run(stream, n)
}

// attachLoads enables the deterministic load attachment for subsequent Step
// calls: every 1/rpi-th dispatched instruction draws extra latency from
// memLat. The fractional accumulator is deliberately left untouched so
// interval splits preserve load placement (see loadAcc). MultiCore attaches
// per-core closures around its shared-stream rounds.
func (c *Core) attachLoads(rpi float64, memLat func(write bool) int64) {
	if rpi < 0 {
		rpi = 0
	}
	if rpi > 1 {
		rpi = 1
	}
	c.loadRPI, c.memLat = rpi, memLat
}

// detachLoads restores the perfect-cache assumption (accumulator preserved).
func (c *Core) detachLoads() { c.loadRPI, c.memLat = 0, nil }

// Step advances the machine by one cycle: dispatch up to IssueWidth new
// instructions into free window slots, then wake up and select up to
// IssueWidth ready instructions to issue.
func (c *Core) Step(stream workload.InstrSource) {
	c.cycle++
	c.stats.Cycles++

	// Dispatch. The front end is perfect, so it always has instructions.
	free := c.cfg.WindowSize - c.Occupancy()
	dispatch := c.cfg.IssueWidth
	if dispatch > free {
		dispatch = free
		if free == 0 {
			c.stats.WindowFullCy++
		}
	}
	if c.engine == EngineEvent {
		if dispatch == 0 {
			// Full window: nothing reads the stream this cycle, so when
			// nothing is due either, the machine is mid-stall and the
			// event structures name the next cycle anything happens.
			// Fast-forward straight to it; every skipped cycle would have
			// been another dispatch-blocked no-op (bit-identical stats).
			d := c.idleSkip()
			c.stats.Cycles += d
			c.stats.WindowFullCy += d
		}
		c.dispatchEvent(stream, dispatch)
		c.issueCycleEvent()
	} else {
		c.dispatchScan(stream, dispatch)
		c.issueCycle()
	}
}

// instrLat returns the instruction's completion latency, applying the
// deterministic load attachment when enabled. Called once per dispatched
// instruction in dispatch order by both engines, so the memLat call sequence
// — and any external state it advances (the combined machine's cache
// hierarchy) — is engine-independent.
func (c *Core) instrLat(in workload.Instr) int64 {
	lat := int64(in.Latency)
	if c.loadRPI > 0 {
		c.loadAcc += c.loadRPI
		if c.loadAcc >= 1 {
			c.loadAcc--
			// Memory operation: the hierarchy's stall cycles extend
			// the consumer-visible latency.
			lat += c.memLat(false)
		}
	}
	return lat
}

// recycleGuard grows the completion ring if the slot about to be claimed for
// c.seq still belongs to an instruction that is pending or completes in the
// future (value > current cycle; `pending` is a huge constant, so one compare
// covers both). This is the invariant that makes lookupDone's recycling rule
// exact rather than approximate: a recycled slot always describes an
// instruction whose result was available at or before the current cycle, and
// treating such a producer as retired-with-result-at-0 cannot change any
// `ready <= cycle` issue decision. In practice the guard never fires — it
// takes ring-size dispatches to lap a slot, which at 8-wide dispatch leaves
// ~1000 cycles for the instruction to complete — but it makes the shrunken
// ring safe against arbitrary RunWithLoads latencies by construction.
func (c *Core) recycleGuard() {
	for c.done[c.seq&c.mask] > c.cycle {
		c.growRing(2 * len(c.done))
	}
}

// dispatchScan dispatches n instructions into the scan engine's window.
func (c *Core) dispatchScan(stream workload.InstrSource, n int) {
	for i := 0; i < n; i++ {
		in := stream.Next()
		c.recycleGuard()
		seq := c.seq
		c.seq++
		c.stats.Instrs++
		e := entry{seq: seq, src0: -1, src1: -1, lat: c.instrLat(in)}
		e.src0 = c.producer(seq, in.Src[0])
		e.src1 = c.producer(seq, in.Src[1])
		e.ready = -1
		c.done[seq&c.mask] = pending
		c.window = append(c.window, e)
	}
}

// producer maps a dependence distance to a producer seq, or -1 when the
// producer is retired (distance 0, beyond the tracked horizon, or before
// program start).
func (c *Core) producer(seq int64, dist int32) int64 {
	if dist <= 0 || int64(dist) >= maxDist {
		return -1
	}
	p := seq - int64(dist)
	if p < 0 {
		return -1
	}
	return p
}

// lookupDone returns a producer's completion cycle and whether it is still
// pending. A producer whose ring slot has been recycled (p+len(done) ≤ seq,
// i.e. at least a full ring of instructions dispatched after it) is treated
// as long retired with its result trivially available. recycleGuard makes
// this exact: a slot is only ever recycled once its instruction's completion
// cycle is in the past, and a completion at or before the reader's current
// cycle is behaviorally identical to 0 (readiness is only ever compared via
// ready <= cycle at cycles from the reader's dispatch onward).
func (c *Core) lookupDone(p int64) (int64, bool) {
	if p+int64(len(c.done)) <= c.seq {
		return 0, false
	}
	t := c.done[p&c.mask]
	if t == pending {
		return 0, true
	}
	return t, false
}

// issueCycle performs one wakeup+select pass at the current cycle (scan
// engine): the window is re-scanned oldest first, resolving readiness and
// issuing up to IssueWidth ready entries in one pass.
func (c *Core) issueCycle() {
	issued := 0
	w := c.window[:0]
	for i := range c.window {
		e := c.window[i]
		if e.ready < 0 {
			e.ready = c.resolve(&e)
		}
		if e.ready >= 0 && e.ready <= c.cycle && issued < c.cfg.IssueWidth {
			c.done[e.seq&c.mask] = c.cycle + e.lat
			c.stats.Issued++
			issued++
			continue
		}
		w = append(w, e)
	}
	c.window = w
}

// resolve attempts to compute the entry's readiness cycle; it returns -1
// while any producer is still unissued. Because the window is scanned oldest
// first, a producer issuing this cycle is visible to its consumers in the
// same pass, enabling back-to-back issue of single-cycle dependent pairs.
func (c *Core) resolve(e *entry) int64 {
	ready := int64(0)
	if e.src0 >= 0 {
		t, pend := c.lookupDone(e.src0)
		if pend {
			return -1
		}
		if t > ready {
			ready = t
		}
	}
	if e.src1 >= 0 {
		t, pend := c.lookupDone(e.src1)
		if pend {
			return -1
		}
		if t > ready {
			ready = t
		}
	}
	return ready
}

// Drain forces the core to issue (without dispatching) until the window
// occupancy is at most max, modelling the cleanup required before disabling
// queue entries when downsizing (paper Sections 4.2 and 5.1). The stall
// cycles are recorded in DrainStalls. Entries whose operands are not yet
// ready simply wait; plentiful functional units guarantee forward progress
// (under -obs-assert a progress guard fails a drain that cannot finish).
func (c *Core) Drain(max int) {
	if max < 0 {
		max = 0
	}
	guard := obs.AssertEnabled()
	p := c.newProgress()
	for c.Occupancy() > max {
		c.cycle++
		c.stats.Cycles++
		c.stats.DrainStalls++
		if c.engine == EngineEvent {
			// Draining never dispatches, so stall gaps fast-forward the
			// same way Step's full-window path does.
			d := c.idleSkip()
			c.stats.Cycles += d
			c.stats.DrainStalls += d
			c.issueCycleEvent()
		} else {
			c.issueCycle()
		}
		if guard {
			c.watch(&p)
		}
	}
}

// Resize changes the window size, draining first when shrinking. Growing is
// immediate (newly enabled entries start empty). Returns an error for
// non-positive or unsupported sizes.
//
// All capacity — the scan window's backing slice, the event engine's entry
// ring and bitmap, and the completion ring — is reserved here, up front, so
// the per-cycle dispatch and issue paths run allocation-free afterwards
// (only a recycle guard, on pathological latencies, grows a ring later).
func (c *Core) Resize(newSize int) error {
	if newSize < 1 || newSize >= maxDist {
		return fmt.Errorf("ooo: window size %d out of range", newSize)
	}
	c.tal.resizes++
	if newSize < c.Occupancy() {
		c.Drain(newSize)
	}
	if need := ringSize(newSize); need > len(c.done) {
		c.growRing(need)
	}
	if c.engine == EngineEvent {
		// The entry ring grows with the window and never shrinks (Resize
		// may grow again later and the slack is small).
		if need := entRingSize(newSize); need > len(c.ev.ents) {
			c.ev.rehome(need, c.seq)
		}
	} else if newSize > cap(c.window) {
		w := make([]entry, len(c.window), newSize)
		copy(w, c.window)
		c.window = w
	}
	c.cfg.WindowSize = newSize
	c.assertCheck()
	return nil
}

// growRing rehomes the completion ring into a larger power-of-two array,
// preserving the slots of every sequence number the old ring still covered. Slots older than the old
// ring's span land zeroed, which lookupDone's recycling rule already treats
// as retired-with-result-available.
func (c *Core) growRing(need int) {
	c.tal.ringGrows++
	old, oldMask := c.done, c.mask
	c.done = make([]int64, need)
	c.mask = int64(need - 1)
	lo := c.seq - int64(len(old))
	if lo < 0 {
		lo = 0
	}
	for s := lo; s < c.seq; s++ {
		c.done[s&c.mask] = old[s&oldMask]
	}
}

// Clone returns an independent deep copy of the core: the scan window, the
// completion ring, the event engine's entry ring, eligibility bitmap,
// calendar buckets and far heap, plus statistics, the load fields and the
// telemetry tallies. Every slice keeps its capacity, so the clone runs
// as allocation-free as its parent. Fed the same instructions, a clone and
// its parent produce identical statistics from here on.
//
// The clone's publish baselines are its current values: PublishObs on the
// clone reports only work done after the copy, so forking never
// double-counts the parent's history. An attached memLat source is shared,
// not copied (MultiCore attaches loads only for the span of one round).
func (c *Core) Clone() *Core {
	n := *c
	n.window = cloneCap(c.window)
	n.done = cloneCap(c.done)
	n.ev = c.ev.clone()
	n.pubStats, n.pubTal = n.stats, n.tal
	return &n
}

// cloneCap copies s into a new slice of the same length and capacity
// (nil stays nil).
func cloneCap[T any](s []T) []T {
	if s == nil {
		return nil
	}
	out := make([]T, len(s), cap(s))
	copy(out, s)
	return out
}
