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
	"capsim/internal/tech"
	"capsim/internal/trace"
	"capsim/internal/workload"
)

// obsPolicyCells counts (policy column × interval) simulation cells computed
// by the one-pass interval engines — the unit of work the family cache and
// the lockstep race amortize.
var obsPolicyCells = obs.NewCounter("policy.cells")

// intervalKey identifies one interval family: the per-size, per-interval raw
// core outcomes (cycles, issued) of an application's stream chopped into
// n-instruction intervals. The key deliberately EXCLUDES the clock-switch
// penalty and the feature size: interval outcomes are pure core statistics —
// periods and penalties are applied at replay time — so fig12/fig13, the
// per-interval oracle, and every ablation penalty point share one family.
type intervalKey struct {
	app   string
	seed  uint64
	sizes string // fmt.Sprint of the size list (order matters)
	n     int64  // instructions per interval
}

// intervalFamily is the memoized computation behind the one-pass interval
// engines: a live MultiCore (one member per queue size) advancing through
// the shared instruction stream, plus the per-size append-only streams of
// raw interval outcomes it has produced so far. Consumers extend it to the
// interval count they need and replay the prefix; a later consumer needing
// more intervals resumes the same cores — the family is a fresh full-length
// run paused at its high-water mark, so prefixes are bit-identical at every
// extension.
type intervalFamily struct {
	mu     sync.Mutex
	mc     *ooo.MultiCore
	stream workload.InstrSource
	n      int64
	done   int64
	cycles [][]int64 // [size][interval]: core cycles of that interval
	issued [][]int64 // [size][interval]: instructions issued (>= n)
}

// families memoizes interval families per key with singleflight semantics;
// the family itself serializes extension under its own mutex.
var families memo.Memo[intervalKey, *intervalFamily]

// ResetPolicyFamilies drops all memoized interval families (tests and
// long-lived processes; one-shot CLI runs never need it).
func ResetPolicyFamilies() { families.Reset() }

// familyFor returns the (possibly already advanced) interval family for the
// given application and size list.
func familyFor(b workload.Benchmark, seed uint64, sizes []int, n int64) (*intervalFamily, error) {
	key := intervalKey{app: b.Name, seed: seed, sizes: fmt.Sprint(sizes), n: n}
	return families.Do(key, func() (*intervalFamily, error) {
		if len(sizes) == 0 {
			return nil, fmt.Errorf("core: no queue sizes")
		}
		cfgs := make([]ooo.Config, len(sizes))
		for i, w := range sizes {
			if w < 1 {
				return nil, fmt.Errorf("core: queue size %d invalid", w)
			}
			cfgs[i] = ooo.PaperConfig(w)
		}
		mc, err := ooo.NewMultiCore(cfgs)
		if err != nil {
			return nil, err
		}
		return &intervalFamily{
			mc:     mc,
			stream: trace.InstrSourceFor(b, seed),
			n:      n,
			cycles: make([][]int64, len(sizes)),
			issued: make([][]int64, len(sizes)),
		}, nil
	})
}

// extendTo advances the family to at least `intervals` materialized
// intervals, one lockstep RunEach round per interval. Partial progress is
// kept on cancellation — the family stays consistent at whatever interval
// count it reached. Callers must hold f.mu.
func (f *intervalFamily) extendTo(ctx context.Context, intervals int64) error {
	for f.done < intervals {
		if err := ctx.Err(); err != nil {
			return err
		}
		for i, st := range f.mc.RunEach(f.stream, f.n) {
			f.cycles[i] = append(f.cycles[i], st.Cycles)
			f.issued[i] = append(f.issued[i], st.Issued)
		}
		f.done++
		obsPolicyCells.Add1(int64(len(f.cycles)))
	}
	return nil
}

// rows extends the family to `intervals` and returns copies of the
// per-size outcome prefixes. Copies, not views: another goroutine may
// extend (and so reallocate) the live streams as soon as the lock drops.
func (f *intervalFamily) rows(ctx context.Context, intervals int64) (cycles, issued [][]int64, err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.extendTo(ctx, intervals); err != nil {
		return nil, nil, err
	}
	cycles = make([][]int64, len(f.cycles))
	issued = make([][]int64, len(f.issued))
	for i := range f.cycles {
		cycles[i] = append([]int64(nil), f.cycles[i][:intervals]...)
		issued[i] = append([]int64(nil), f.issued[i][:intervals]...)
	}
	f.mc.PublishObs()
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

// PolicySpec is one contender in a Race. Policies are stateful; give each
// spec its own instance.
type PolicySpec struct {
	Policy Policy
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
	fam, err := familyFor(mp.b, mp.seed, mp.sizes, mp.n)
	if err != nil {
		return nil, err
	}
	cycles, issued, err := fam.rows(ctx, intervals)
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
	fam, err := familyFor(mp.b, mp.seed, mp.sizes, mp.n)
	if err != nil {
		return RunResult{}, err
	}
	cycles, issued, err := fam.rows(ctx, intervals)
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
		meta := mp.flightMeta(res.Policy, flight.KindFixed)
		flight.Publish(ctx, meta, evs, flightEnd(intervals, instrs, res.Switches, timeNS, regretNS))
	}
	return res, nil
}

// Race runs N stateful policies as lockstep columns of ONE MultiCore over
// the shared instruction stream: per interval, each column consults its
// policy, performs its own reconfiguration (drain at the old clock + switch
// penalty, QueueMachine.SetConfig's exact order), then a single RunEach
// round advances every column together. Per-column results are bit-identical
// to private QueueMachine runs: member cores consume the stream exactly as
// they would privately, and resizes between rounds reproduce private-machine
// behaviour (see ooo.MultiCore.Cores).
func (mp *MultiPolicy) Race(ctx context.Context, specs []PolicySpec, intervals int64) ([]RunResult, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("core: no policies to race")
	}
	cfgs := make([]ooo.Config, len(specs))
	for j := range specs {
		cfgs[j] = ooo.PaperConfig(mp.sizes[0])
	}
	mc, err := ooo.NewMultiCore(cfgs)
	if err != nil {
		return nil, err
	}
	cores := mc.Cores()
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
		fam, err := familyFor(mp.b, mp.seed, mp.sizes, mp.n)
		if err != nil {
			return nil, err
		}
		famCycles, _, err := fam.rows(ctx, intervals)
		if err != nil {
			return nil, err
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
	timeNS := make([]float64, len(specs))
	instrs := make([]int64, len(specs))
	for j := range specs {
		clks[j], err = clock.NewSystem(mp.sources, 0, mp.penalty)
		if err != nil {
			return nil, err
		}
		mons[j] = NewMonitor(64)
		mons[j].Current = 0
	}
	for iv := int64(0); iv < intervals; iv++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if rec {
			for j := range specs {
				ivDrainCyc[j], ivDrainNS[j], ivPenNS[j], ivSwitched[j] = 0, 0, 0, false
			}
		}
		for j, spec := range specs {
			want := spec.Policy.Next(mons[j])
			if want == cur[j] {
				continue
			}
			if want < 0 || want >= len(mp.sizes) {
				return nil, fmt.Errorf("core: policy %q selected config %d outside [0,%d)", spec.Policy.Name(), want, len(mp.sizes))
			}
			before := cores[j].Stats().DrainStalls
			if err := cores[j].Resize(mp.sizes[want]); err != nil {
				return nil, err
			}
			drain := cores[j].Stats().DrainStalls - before
			dd := clks[j].Advance(drain)
			timeNS[j] += dd
			pen, err := clks[j].Select(want)
			if err != nil {
				return nil, err
			}
			timeNS[j] += pen
			cur[j] = want
			if rec {
				ivDrainCyc[j], ivDrainNS[j], ivPenNS[j], ivSwitched[j] = drain, dd, pen, true
			}
		}
		for j, st := range mc.RunEach(stream, mp.n) {
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
	}
	mc.PublishObs()
	out := make([]RunResult, len(specs))
	for j, spec := range specs {
		out[j] = RunResult{Policy: spec.Policy.Name(), Instrs: instrs[j], TimeNS: timeNS[j], Switches: clks[j].Switches()}
		if instrs[j] != 0 {
			out[j].TPI = timeNS[j] / float64(instrs[j])
		}
		if rec {
			meta := mp.flightMeta(out[j].Policy, flight.KindRace)
			flight.Publish(ctx, meta, recEvs[j], flightEnd(intervals, instrs[j], out[j].Switches, timeNS[j], recRegret[j]))
		}
	}
	return out, nil
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
	res, err := mp.Race(ctx, []PolicySpec{{Policy: p}}, intervals)
	if err != nil {
		return RunResult{}, err
	}
	return res[0], nil
}
