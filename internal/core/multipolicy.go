package core

import (
	"context"
	"fmt"
	"sync"

	"capsim/internal/clock"
	"capsim/internal/flight"
	"capsim/internal/memo"
	"capsim/internal/obs"
	"capsim/internal/ooo"
	"capsim/internal/palacharla"
	"capsim/internal/sweep"
	"capsim/internal/tech"
	"capsim/internal/trace"
	"capsim/internal/workload"
)

// obsPolicyCells counts (policy column × interval) cells served by the
// one-pass interval engines; obsCoreCells counts the (member core ×
// interval) cells actually simulated to serve them. Their ratio is the work
// the family cache and copy-on-divergence race columns share.
var (
	obsPolicyCells = obs.NewCounter("policy.cells")
	obsCoreCells   = obs.NewCounter("policy.core_cells")
)

// intervalKey identifies one interval family: one queue size's raw core
// outcomes (cycles, issued) per interval of an application's stream chopped
// into n-instruction intervals. The key deliberately EXCLUDES the
// clock-switch penalty, the feature size and the sibling sizes: interval
// outcomes are pure statistics of a fixed-size core — periods and
// penalties are applied at replay time, and a fixed-size core does not
// depend on the other sizes studied beside it — so fig12/fig13, the
// per-interval oracle, every ablation penalty point and the zoo's larger
// size menu share one family per (app, seed, size, n).
type intervalKey struct {
	app  string
	seed uint64
	size int
	n    int64 // instructions per interval
}

// intervalFamily is the memoized computation behind the one-pass interval
// engines: a live core of one queue size advancing through the
// application's shared instruction stream, plus the append-only streams of
// raw interval outcomes it has produced so far. Consumers extend it to the
// interval count they need and replay the prefix; a later consumer needing
// more intervals resumes the same core — the family is a fresh full-length
// run paused at its high-water mark, so prefixes are bit-identical at every
// extension.
type intervalFamily struct {
	mu     sync.Mutex
	core   *ooo.Core
	stream workload.InstrSource
	n      int64
	cycles []int64 // [interval]: core cycles of that interval
	issued []int64 // [interval]: instructions issued (>= n)
}

// families memoizes interval families per key with singleflight semantics;
// the family itself serializes extension under its own mutex.
var families memo.Memo[intervalKey, *intervalFamily]

// ResetPolicyFamilies drops all memoized interval families (tests and
// long-lived processes; one-shot CLI runs never need it).
func ResetPolicyFamilies() { families.Reset() }

// familyFor returns the (possibly already advanced) interval family of one
// queue size.
func familyFor(b workload.Benchmark, seed uint64, size int, n int64) (*intervalFamily, error) {
	key := intervalKey{app: b.Name, seed: seed, size: size, n: n}
	return families.Do(key, func() (*intervalFamily, error) {
		if size < 1 {
			return nil, fmt.Errorf("core: queue size %d invalid", size)
		}
		c, err := ooo.New(ooo.PaperConfig(size))
		if err != nil {
			return nil, err
		}
		return &intervalFamily{core: c, stream: trace.InstrSourceFor(b, seed), n: n}, nil
	})
}

// familyRows returns the per-size outcome prefixes of `intervals` intervals
// for a size list, extending the sizes' families as a sweep under ctx's
// budget (independent cores, so they extend concurrently).
func familyRows(ctx context.Context, b workload.Benchmark, seed uint64, sizes []int, n, intervals int64) (cycles, issued [][]int64, err error) {
	if len(sizes) == 0 {
		return nil, nil, fmt.Errorf("core: no queue sizes")
	}
	type prefix struct{ cycles, issued []int64 }
	rows, err := sweep.RunCtx(ctx, len(sizes), func(i int) (prefix, error) {
		f, err := familyFor(b, seed, sizes[i], n)
		if err != nil {
			return prefix{}, err
		}
		c, is, err := f.rows(ctx, intervals)
		return prefix{c, is}, err
	})
	if err != nil {
		return nil, nil, err
	}
	cycles = make([][]int64, len(sizes))
	issued = make([][]int64, len(sizes))
	for i, r := range rows {
		cycles[i], issued[i] = r.cycles, r.issued
	}
	return cycles, issued, nil
}

// extendTo advances the family to at least `intervals` materialized
// intervals, one Run per interval. Partial progress is kept on
// cancellation — the family stays consistent at whatever interval count it
// reached. Callers must hold f.mu.
func (f *intervalFamily) extendTo(ctx context.Context, intervals int64) error {
	for int64(len(f.cycles)) < intervals {
		if err := ctx.Err(); err != nil {
			return err
		}
		st := f.core.Run(f.stream, f.n)
		f.cycles = append(f.cycles, st.Cycles)
		f.issued = append(f.issued, st.Issued)
		obsPolicyCells.Inc1()
		obsCoreCells.Inc1()
	}
	return nil
}

// rows extends the family to `intervals` and returns copies of the outcome
// prefixes. Copies, not views: another goroutine may extend (and so
// reallocate) the live streams as soon as the lock drops.
func (f *intervalFamily) rows(ctx context.Context, intervals int64) (cycles, issued []int64, err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.extendTo(ctx, intervals); err != nil {
		return nil, nil, err
	}
	cycles = append([]int64(nil), f.cycles[:intervals]...)
	issued = append([]int64(nil), f.issued[:intervals]...)
	f.core.PublishObs()
	return cycles, issued, nil
}

// MultiPolicy races interval policies over one application without
// re-simulating the core per policy. Fixed-configuration policies (the
// paper's baselines, and the columns the per-interval oracle minimizes
// over) replay the memoized interval family — raw (cycles, issued) outcomes
// with the policy's clock arithmetic applied in replay order, bit-identical
// to a private QueueMachine. Stateful policies that actually reconfigure
// run as lockstep columns of one MultiCore over the shared stream, each
// with its own coupled clock, monitor and transition-cost accounting —
// mirroring MultiCombined's row/cell structure with policies as columns.
type MultiPolicy struct {
	b       workload.Benchmark
	seed    uint64
	sizes   []int
	n       int64
	penalty int
	sources []clock.Source
	cycs    []float64
}

// PolicySpec is one column of a Race: a contender and the clock-switch
// penalty it is charged. Policies are stateful; give each spec its own
// instance.
type PolicySpec struct {
	Policy Policy
	// Penalty is the column's switch penalty in cycles; < 0 selects the
	// default, as in NewMultiPolicy. The zero value is a free switch.
	Penalty int
}

// NewMultiPolicy builds the replay engine for one application. The
// parameters mirror NewQueueMachine (initial configuration 0, the
// interval-driver convention); penaltyCycles < 0 selects the default
// clock-switch penalty.
func NewMultiPolicy(b workload.Benchmark, seed uint64, sizes []int, n int64, penaltyCycles int, f tech.FeatureSize) (*MultiPolicy, error) {
	if len(sizes) == 0 {
		return nil, fmt.Errorf("core: no queue sizes")
	}
	tp := tech.ForFeature(f)
	configs := make([]Config, len(sizes))
	sources := make([]clock.Source, len(sizes))
	cycs := make([]float64, len(sizes))
	for i, w := range sizes {
		if w < 1 {
			return nil, fmt.Errorf("core: queue size %d invalid", w)
		}
		cyc := palacharla.CycleTime(palacharla.Queue{Entries: w, IssueWidth: 8}, tp)
		configs[i] = Config{ID: i, Label: fmt.Sprintf("IQ=%d", w), CycleNS: cyc}
		sources[i] = clock.Source{ID: i, PeriodNS: cyc, Label: configs[i].Label}
		cycs[i] = cyc
	}
	if err := validateConfigs(configs); err != nil {
		return nil, err
	}
	return &MultiPolicy{
		b:       b,
		seed:    seed,
		sizes:   sizes,
		n:       n,
		penalty: penaltyCycles,
		sources: sources,
		cycs:    cycs,
	}, nil
}

// Traces returns per-size, per-interval TPI from the memoized family — the
// ProfileQueueTraces product. The expression replicates
// QueueMachine.RunInterval's float operation order (cycles × period, divided
// by issued), so each trace is bit-identical to a private machine.
func (mp *MultiPolicy) Traces(ctx context.Context, intervals int64) ([][]float64, error) {
	cycles, issued, err := familyRows(ctx, mp.b, mp.seed, mp.sizes, mp.n, intervals)
	if err != nil {
		return nil, err
	}
	out := make([][]float64, len(mp.sizes))
	for i := range out {
		out[i] = make([]float64, intervals)
		for iv := int64(0); iv < intervals; iv++ {
			out[i][iv] = float64(cycles[i][iv]) * mp.cycs[i] / float64(issued[i][iv])
		}
	}
	if flight.Active(ctx) {
		mp.publishTraceRuns(ctx, cycles, issued, out, intervals)
	}
	return out, nil
}

// RunFixed replays RunQueue(FixedPolicy{cfg}) from the family: the same
// clock.System performs the same Advance/Select sequence a private
// QueueMachine would, in the same order, over the memoized raw outcomes.
//
// The one reconfiguration a fixed policy performs — interval 0, away from
// the construction default 0 — happens on an EMPTY core, so its drain is
// exactly zero stall cycles and the family's column (a core built at the
// target size) observes the identical instruction stream; the transition
// differential tests pin this against direct simulation.
func (mp *MultiPolicy) RunFixed(ctx context.Context, cfg int, intervals int64) (RunResult, error) {
	if cfg < 0 || cfg >= len(mp.sizes) {
		return RunResult{}, fmt.Errorf("core: fixed config %d outside [0,%d)", cfg, len(mp.sizes))
	}
	cycles, issued, err := familyRows(ctx, mp.b, mp.seed, mp.sizes, mp.n, intervals)
	if err != nil {
		return RunResult{}, err
	}
	clk, err := clock.NewSystem(mp.sources, 0, mp.penalty)
	if err != nil {
		return RunResult{}, err
	}
	rec := flight.Active(ctx)
	var (
		evs      []flight.Event
		oCfg     []int
		oNS      []float64
		regretNS float64
	)
	if rec {
		evs = make([]flight.Event, 0, intervals)
		oCfg, oNS = mp.flightOracle(cycles, intervals)
	}
	var timeNS float64
	var instrs int64
	var pen0 float64 // interval-0 switch penalty (ledger attribution)
	if cfg != 0 {
		// QueueMachine.SetConfig order: drain at the old clock (zero
		// cycles — the core is empty at interval 0), then the switch
		// penalty at the old period.
		timeNS += clk.Advance(0)
		pen, err := clk.Select(cfg)
		if err != nil {
			return RunResult{}, err
		}
		timeNS += pen
		pen0 = pen
	}
	for iv := int64(0); iv < intervals; iv++ {
		dt := clk.Advance(cycles[cfg][iv])
		instrs += issued[cfg][iv]
		timeNS += dt
		if rec {
			var pen float64
			if iv == 0 {
				pen = pen0
			}
			tot := pen + dt
			regret := tot - oNS[iv]
			regretNS += regret
			evs = append(evs, flight.Event{
				Interval:    iv,
				Config:      cfg,
				Size:        mp.sizes[cfg],
				Cycles:      cycles[cfg][iv],
				Issued:      issued[cfg][iv],
				PeriodNS:    mp.cycs[cfg],
				PenaltyNS:   pen,
				AdvNS:       dt,
				CumTimeNS:   timeNS,
				TPI:         dt / float64(issued[cfg][iv]),
				OracleCfg:   oCfg[iv],
				OracleNS:    oNS[iv],
				RegretNS:    regret,
				CumRegretNS: regretNS,
				Switched:    iv == 0 && cfg != 0,
			})
		}
	}
	res := RunResult{Policy: FixedPolicy{Config: cfg}.Name(), Instrs: instrs, TimeNS: timeNS, Switches: clk.Switches()}
	if instrs != 0 {
		res.TPI = timeNS / float64(instrs)
	}
	if rec {
		meta := mp.flightMeta(res.Policy, flight.KindFixed, mp.penalty)
		flight.Publish(ctx, meta, evs, flightEnd(intervals, instrs, res.Switches, timeNS, regretNS))
	}
	return res, nil
}

// Race runs N stateful policies as lockstep columns of ONE MultiCore over
// the shared instruction stream. Each column has its own switch penalty
// (PolicySpec.Penalty), clock, monitor, regret and ledger; what columns
// share is simulated core state. A core's state depends only on the stream
// and its configuration history, so every group of columns whose histories
// match runs on one member core, and a member is copied only on the
// interval where the columns sharing it choose different configurations
// (copy-on-divergence). Per interval:
//
//  1. every column's policy picks its next configuration;
//  2. for each member, in member order, its columns are grouped by wanted
//     configuration in column order: the first group keeps the member and
//     every further group gets a fork of it (MultiCore.Fork), taken before
//     the member is resized;
//  3. each member is resized once and its drain measured once;
//  4. each switching column charges that drain at its own clock, then its
//     own switch penalty (QueueMachine.SetConfig's order);
//  5. one RunEach round advances every member, and each column reads its
//     member's delta.
//
// Per-column results are bit-identical to a private QueueMachine at the
// column's penalty, for any policy — including one whose decisions depend
// on the penalty, which simply forks (TestMultiPolicyRaceLockstep,
// TestRaceForkEveryInterval). The engine's own penalty (NewMultiPolicy)
// does not apply to race columns.
func (mp *MultiPolicy) Race(ctx context.Context, specs []PolicySpec, intervals int64) ([]RunResult, error) {
	out, _, err := mp.race(ctx, specs, intervals)
	return out, err
}

// race is Race, also returning how many member cores the race ended with.
func (mp *MultiPolicy) race(ctx context.Context, specs []PolicySpec, intervals int64) ([]RunResult, int, error) {
	if len(specs) == 0 {
		return nil, 0, fmt.Errorf("core: no policies to race")
	}
	mc, err := ooo.NewMultiCore([]ooo.Config{ooo.PaperConfig(mp.sizes[0])})
	if err != nil {
		return nil, 0, err
	}
	rc := &raceCores{mc: mc, cfg: []int{0}, member: make([]int, len(specs))}
	stream := trace.InstrSourceFor(mp.b, mp.seed)

	// Flight recording: the oracle reference comes from the memoized interval
	// family (materialized here if no other consumer has yet — the same pass
	// Traces replays). Per-interval drain/penalty attribution is captured into
	// slices the RunEach loop reads; all simulated arithmetic below is
	// unchanged whether or not rec is set.
	rec := flight.Active(ctx)
	var (
		recEvs     [][]flight.Event
		recRegret  []float64
		oCfg       []int
		oNS        []float64
		ivDrainCyc []int64
		ivDrainNS  []float64
		ivPenNS    []float64
		ivSwitched []bool
	)
	if rec {
		famCycles, _, err := familyRows(ctx, mp.b, mp.seed, mp.sizes, mp.n, intervals)
		if err != nil {
			return nil, 0, err
		}
		oCfg, oNS = mp.flightOracle(famCycles, intervals)
		recEvs = make([][]flight.Event, len(specs))
		for j := range recEvs {
			recEvs[j] = make([]flight.Event, 0, intervals)
		}
		recRegret = make([]float64, len(specs))
		ivDrainCyc = make([]int64, len(specs))
		ivDrainNS = make([]float64, len(specs))
		ivPenNS = make([]float64, len(specs))
		ivSwitched = make([]bool, len(specs))
	}

	clks := make([]*clock.System, len(specs))
	mons := make([]*Monitor, len(specs))
	cur := make([]int, len(specs))
	want := make([]int, len(specs))
	timeNS := make([]float64, len(specs))
	instrs := make([]int64, len(specs))
	for j, spec := range specs {
		clks[j], err = clock.NewSystem(mp.sources, 0, spec.Penalty)
		if err != nil {
			return nil, 0, err
		}
		mons[j] = NewMonitor(64)
		mons[j].Current = 0
	}
	for iv := int64(0); iv < intervals; iv++ {
		if err := ctx.Err(); err != nil {
			return nil, 0, err
		}
		for j, spec := range specs {
			w := spec.Policy.Next(mons[j])
			if w != cur[j] && (w < 0 || w >= len(mp.sizes)) {
				return nil, 0, fmt.Errorf("core: policy %q selected config %d outside [0,%d)", spec.Policy.Name(), w, len(mp.sizes))
			}
			want[j] = w
		}
		rc.split(want)
		if err := rc.resize(mp.sizes); err != nil {
			return nil, 0, err
		}
		for j := range specs {
			if rec {
				ivDrainCyc[j], ivDrainNS[j], ivPenNS[j], ivSwitched[j] = 0, 0, 0, false
			}
			if want[j] == cur[j] {
				continue
			}
			drain := rc.drain[rc.member[j]]
			dd := clks[j].Advance(drain)
			timeNS[j] += dd
			pen, err := clks[j].Select(want[j])
			if err != nil {
				return nil, 0, err
			}
			timeNS[j] += pen
			cur[j] = want[j]
			if rec {
				ivDrainCyc[j], ivDrainNS[j], ivPenNS[j], ivSwitched[j] = drain, dd, pen, true
			}
		}
		if obs.AssertEnabled() {
			if err := rc.checkColumns(mp.sizes, cur); err != nil {
				obs.Fail(err)
			}
		}
		sts := mc.RunEach(stream, mp.n)
		for j := range specs {
			st := sts[rc.member[j]]
			dt := clks[j].Advance(st.Cycles)
			instrs[j] += st.Issued
			timeNS[j] += dt
			mons[j].Record(Sample{
				Interval: iv,
				Config:   cur[j],
				TPI:      dt / float64(st.Issued),
				IPC:      st.IPC(),
			})
			if rec {
				tot := ivDrainNS[j] + ivPenNS[j] + dt
				// Live race columns diverge from the family columns after a
				// resize, so an interval can occasionally beat every family
				// column; regret vs the family oracle is floored at zero to
				// keep the ledger's monotonicity invariant meaningful.
				regret := tot - oNS[iv]
				if regret < 0 {
					regret = 0
				}
				recRegret[j] += regret
				recEvs[j] = append(recEvs[j], flight.Event{
					Interval:    iv,
					Config:      cur[j],
					Size:        mp.sizes[cur[j]],
					Cycles:      st.Cycles,
					Issued:      st.Issued,
					PeriodNS:    mp.cycs[cur[j]],
					DrainCycles: ivDrainCyc[j],
					DrainNS:     ivDrainNS[j],
					PenaltyNS:   ivPenNS[j],
					AdvNS:       dt,
					CumTimeNS:   timeNS[j],
					TPI:         dt / float64(st.Issued),
					OracleCfg:   oCfg[iv],
					OracleNS:    oNS[iv],
					RegretNS:    regret,
					CumRegretNS: recRegret[j],
					Switched:    ivSwitched[j],
				})
			}
		}
		obsPolicyCells.Add1(int64(len(specs)))
		obsCoreCells.Add1(int64(len(sts)))
	}
	mc.PublishObs()
	out := make([]RunResult, len(specs))
	for j, spec := range specs {
		out[j] = RunResult{Policy: spec.Policy.Name(), Instrs: instrs[j], TimeNS: timeNS[j], Switches: clks[j].Switches()}
		if instrs[j] != 0 {
			out[j].TPI = timeNS[j] / float64(instrs[j])
		}
		if rec {
			meta := mp.flightMeta(out[j].Policy, flight.KindRace, spec.Penalty)
			flight.Publish(ctx, meta, recEvs[j], flightEnd(intervals, instrs[j], out[j].Switches, timeNS[j], recRegret[j]))
		}
	}
	return out, len(rc.cfg), nil
}

// raceCores is Race's copy-on-divergence bookkeeping: the member cores, the
// configuration each member holds, and the member each column runs on.
// Every member always carries at least one column.
type raceCores struct {
	mc     *ooo.MultiCore
	cfg    []int   // member -> configuration it holds
	member []int   // column -> member core
	want   []int   // member -> configuration its columns want this interval
	drain  []int64 // member -> drain stall cycles of this interval's resize
}

// split regroups the columns by wanted configuration: for each member, in
// member order, its columns are grouped in column order; the first group
// keeps the member and every further group moves to a fork of it. All
// forks are taken before any member is resized, so a fork starts from the
// exact state its columns shared.
func (rc *raceCores) split(want []int) {
	n := len(rc.cfg)
	rc.want = rc.want[:0]
	for m := 0; m < n; m++ {
		rc.want = append(rc.want, -1)
	}
	for m := 0; m < n; m++ {
		first := len(rc.cfg) // this member's forks are [first, len(rc.cfg))
		for j, jm := range rc.member {
			if jm != m {
				continue
			}
			w := want[j]
			if rc.want[m] < 0 || rc.want[m] == w {
				rc.want[m] = w
				continue
			}
			f := first
			for f < len(rc.cfg) && rc.want[f] != w {
				f++
			}
			if f == len(rc.cfg) {
				f = rc.mc.Fork(m)
				rc.cfg = append(rc.cfg, rc.cfg[m])
				rc.want = append(rc.want, w)
				if obs.AssertEnabled() {
					cores := rc.mc.Cores()
					if err := checkFork(cores[m], cores[f]); err != nil {
						obs.Fail(err)
					}
				}
			}
			rc.member[j] = f
		}
	}
}

// resize moves every member to its wanted configuration — once per member,
// however many columns share it — and records the drain stall cycles each
// resize cost (zero for members that stay put).
func (rc *raceCores) resize(sizes []int) error {
	rc.drain = rc.drain[:0]
	for m, c := range rc.mc.Cores() {
		var drain int64
		if w := rc.want[m]; w != rc.cfg[m] {
			before := c.Stats().DrainStalls
			if err := c.Resize(sizes[w]); err != nil {
				return err
			}
			drain = c.Stats().DrainStalls - before
			rc.cfg[m] = w
		}
		rc.drain = append(rc.drain, drain)
	}
	return nil
}

// checkColumns is the -obs-assert check after the resize step: every
// column's configuration size equals its member core's window size.
func (rc *raceCores) checkColumns(sizes, cur []int) error {
	cores := rc.mc.Cores()
	for j, m := range rc.member {
		if got := cores[m].Config().WindowSize; got != sizes[cur[j]] {
			return fmt.Errorf("core: race column %d holds size %d but its member core %d has window %d", j, sizes[cur[j]], m, got)
		}
	}
	return nil
}

// checkFork is the -obs-assert check on a fresh fork: it must match its
// parent's statistics and window occupancy.
func checkFork(parent, fork *ooo.Core) error {
	if ps, fs := parent.Stats(), fork.Stats(); ps != fs {
		return fmt.Errorf("core: fork stats %+v differ from parent %+v", fs, ps)
	}
	if po, fo := parent.Occupancy(), fork.Occupancy(); po != fo {
		return fmt.Errorf("core: fork occupancy %d differs from parent %d", fo, po)
	}
	return nil
}

// RunPolicyStudy is the interval drivers' entry point: one policy-driven run
// of `intervals` intervals of `n` instructions at initial configuration 0.
// Fixed policies replay the memoized interval family and stateful policies
// run through the lockstep Race engine; either way the result is
// bit-identical to RunQueue over a private QueueMachine
// (TestMultiPolicyTransitionCosts).
func RunPolicyStudy(ctx context.Context, b workload.Benchmark, seed uint64, sizes []int, p Policy, intervals, n int64, penaltyCycles int, f tech.FeatureSize) (RunResult, error) {
	if err := ctx.Err(); err != nil {
		return RunResult{}, err
	}
	mp, err := NewMultiPolicy(b, seed, sizes, n, penaltyCycles, f)
	if err != nil {
		return RunResult{}, err
	}
	if fp, ok := p.(FixedPolicy); ok {
		return mp.RunFixed(ctx, fp.Config, intervals)
	}
	res, err := mp.Race(ctx, []PolicySpec{{Policy: p, Penalty: penaltyCycles}}, intervals)
	if err != nil {
		return RunResult{}, err
	}
	return res[0], nil
}
