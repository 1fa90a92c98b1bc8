package ooo

import (
	"fmt"

	"capsim/internal/obs"
	"capsim/internal/workload"
)

// MultiCore evaluates several queue configurations in one pass over a single
// instruction stream — the queue analog of cache.MultiHierarchy. Each member
// core is an ordinary *Core (either engine); what MultiCore adds is stream
// sharing: one underlying InstrSource is materialized once into a bounded
// lookahead buffer that every core reads through its own position cursor, so
// an N-configuration profile touches the workload generator (or the shared
// trace store) exactly once instead of N times.
//
// Equivalence: every core observes the instruction sequence starting at
// stream position 0 and consumes it one instruction per dispatch, exactly as
// it would from a private stream — so per-core Stats are bit-identical to N
// independent runs (TestMultiCoreDifferential). The cores advance in rounds
// of refillBatch instructions, keeping them position-locked to within one
// batch; because each RunEach call issues the same n on every core, final
// positions differ only by window-occupancy differences, and the buffer
// prefix below the slowest cursor is recycled each round. Peak buffer memory
// is O(refillBatch + max window), independent of n.
type MultiCore struct {
	cores []*Core
	pos   []int64 // pos[i]: absolute stream index of core i's next instruction
	base  int64   // absolute stream index of buf[0]
	buf   []workload.Instr
	// curs[i] is core i's buffer cursor, boxed into the InstrSource
	// interface once at construction: mcCursor is a two-word struct, so
	// converting it at every Step call would allocate on the hot path.
	curs []workload.InstrSource
}

// refillBatch is the shared-buffer growth quantum: large enough to amortize
// the per-round bookkeeping, small enough to stay cache-resident.
const refillBatch = 1 << 12

// NewMultiCore creates one core per configuration, all on the event-driven
// issue engine.
func NewMultiCore(cfgs []Config) (*MultiCore, error) { return newMultiCore(cfgs, EngineEvent) }

// newMultiCore is NewMultiCore with an explicit issue engine, so the tests
// can hold the shared-buffer logic to independent cores under both engines.
func newMultiCore(cfgs []Config, e Engine) (*MultiCore, error) {
	if len(cfgs) == 0 {
		return nil, fmt.Errorf("ooo: MultiCore needs at least one configuration")
	}
	mc := &MultiCore{
		cores: make([]*Core, len(cfgs)),
		pos:   make([]int64, len(cfgs)),
		buf:   make([]workload.Instr, 0, refillBatch*2),
		curs:  make([]workload.InstrSource, len(cfgs)),
	}
	for i, cfg := range cfgs {
		c, err := NewWithEngine(cfg, e)
		if err != nil {
			return nil, err
		}
		mc.cores[i] = c
		mc.curs[i] = mcCursor{mc: mc, core: i}
	}
	return mc, nil
}

// Cores returns the member cores (index-parallel to the construction
// configs). Callers may inspect Stats or ResetStats between passes, and may
// Resize a member core between RunEach rounds — each core consumes the shared
// buffer through its own cursor, so a resize perturbs only that column
// (core.MultiPolicy's lockstep policy race is built on this, pinned by
// TestMultiPolicyRaceLockstep).
func (mc *MultiCore) Cores() []*Core { return mc.cores }

// Fork appends a clone of member i (Core.Clone) whose cursor starts at
// member i's stream position, and returns the new member's index. From that
// point the two members are independent columns over the same stream: fed
// the same configuration history they stay identical, so a caller may share
// one member among several columns and fork only where their histories
// diverge (core.MultiPolicy.Race). Call between RunEach rounds; any slice
// previously returned by Cores may be stale afterwards.
func (mc *MultiCore) Fork(i int) int {
	j := len(mc.cores)
	mc.cores = append(mc.cores, mc.cores[i].Clone())
	mc.pos = append(mc.pos, mc.pos[i])
	mc.curs = append(mc.curs, mcCursor{mc: mc, core: j})
	return j
}

// mcCursor adapts one core's view of the shared buffer to workload.InstrSource.
type mcCursor struct {
	mc   *MultiCore
	core int
}

// Next returns the core's next instruction from the shared buffer. RunEach
// guarantees at least IssueWidth instructions of lookahead before each Step,
// so the index is always in range.
func (cu mcCursor) Next() workload.Instr {
	mc := cu.mc
	p := mc.pos[cu.core]
	in := mc.buf[p-mc.base]
	mc.pos[cu.core] = p + 1
	return in
}

// RunEach advances every core until it has issued n more instructions,
// pulling the shared stream as needed, and returns the per-core statistics
// deltas (index-parallel to Cores).
func (mc *MultiCore) RunEach(src workload.InstrSource, n int64) []Stats {
	return mc.runEach(src, n)
}

// RunEachWithLoads is RunEach with each core's perfect-cache assumption
// replaced by its own load-latency source: core i draws the extra latency of
// its deterministic rpi-spaced memory operations from memLat[i]. Load
// PLACEMENT is identical across cores (same rpi, and each core's fractional
// accumulator advances once per dispatched instruction), so the i-th load of
// the run lands on the same stream position everywhere — which is what lets
// the joint cache×queue kernel classify each load once per cache row and
// serve every queue column from the same classification sequence. As with
// RunWithLoads, per-core accumulators persist across calls, so interval
// splits keep the exact load spacing.
func (mc *MultiCore) RunEachWithLoads(src workload.InstrSource, n int64, rpi float64, memLat []func(write bool) int64) []Stats {
	if len(memLat) != len(mc.cores) {
		panic(fmt.Sprintf("ooo: %d memLat sources for %d cores", len(memLat), len(mc.cores)))
	}
	for i, c := range mc.cores {
		c.attachLoads(rpi, memLat[i])
	}
	defer func() {
		for _, c := range mc.cores {
			c.detachLoads()
		}
	}()
	return mc.runEach(src, n)
}

// runEach is the shared round loop behind RunEach and RunEachWithLoads.
func (mc *MultiCore) runEach(src workload.InstrSource, n int64) []Stats {
	k := len(mc.cores)
	before := make([]Stats, k)
	target := make([]int64, k)
	for i, c := range mc.cores {
		before[i] = c.stats
		target[i] = c.stats.Issued + n
	}
	var prog []progress // the progress guard, under -obs-assert only
	if obs.AssertEnabled() {
		prog = make([]progress, k)
		for i, c := range mc.cores {
			prog[i] = c.newProgress()
		}
	}
	for {
		done := true
		for i, c := range mc.cores {
			if c.stats.Issued >= target[i] {
				continue
			}
			cur := mc.curs[i]
			// A Step dispatches at most IssueWidth instructions; run
			// until the target is met or the lookahead cannot cover a
			// full dispatch group. A core whose window is full consumes
			// nothing, so it may keep stepping (issuing, or
			// fast-forwarding a stall) regardless of lookahead — without
			// this, one long-stalled core wedges the round-robin into
			// refilling for everyone else until its stall resolves.
			limit := mc.base + int64(len(mc.buf)) - int64(c.cfg.IssueWidth)
			for c.stats.Issued < target[i] {
				if mc.pos[i] > limit && c.Occupancy() < c.cfg.WindowSize {
					break
				}
				c.Step(cur)
				if prog != nil {
					c.watch(&prog[i])
				}
			}
			// Only a core that is still short after draining its lookahead
			// forces a refill; marking done=false up front would append a
			// batch even when every core reached its target from data
			// already buffered, growing the buffer (and materializing
			// trace chunks) ~2x ahead of consumption.
			if c.stats.Issued < target[i] {
				done = false
			}
		}
		if done {
			break
		}
		mc.refill(src)
	}
	out := make([]Stats, k)
	for i, c := range mc.cores {
		out[i] = c.stats.Sub(before[i])
	}
	return out
}

// bulkInstrSource is the optional batched-read fast path a source may offer
// (trace.OpCursor does): fill a prefix of dst, return the count written.
type bulkInstrSource interface {
	CopyNext(dst []workload.Instr) int
}

// refill recycles the consumed buffer prefix (everything below the slowest
// cursor) and appends the next batch from the shared stream — via the
// source's bulk reader when it has one, one Next at a time otherwise.
func (mc *MultiCore) refill(src workload.InstrSource) {
	min := mc.pos[0]
	for _, p := range mc.pos[1:] {
		if p < min {
			min = p
		}
	}
	if drop := int(min - mc.base); drop > 0 {
		kept := copy(mc.buf, mc.buf[drop:])
		mc.buf = mc.buf[:kept]
		mc.base = min
	}
	if bs, ok := src.(bulkInstrSource); ok {
		n := len(mc.buf)
		if cap(mc.buf) < n+refillBatch {
			newCap := 2 * cap(mc.buf)
			if newCap < n+refillBatch {
				newCap = n + refillBatch
			}
			grown := make([]workload.Instr, n, newCap)
			copy(grown, mc.buf)
			mc.buf = grown
		}
		mc.buf = mc.buf[:n+refillBatch]
		for filled := 0; filled < refillBatch; {
			filled += bs.CopyNext(mc.buf[n+filled : n+refillBatch])
		}
		return
	}
	for i := 0; i < refillBatch; i++ {
		mc.buf = append(mc.buf, src.Next())
	}
}
