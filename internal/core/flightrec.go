package core

import (
	"context"

	"capsim/internal/flight"
)

// This file is the flight-recorder emission layer of the one-pass interval
// engines (multipolicy.go). The recorder obeys the obs publication contract:
// Traces/RunFixed/Race check flight.Active(ctx) ONCE per run, assemble
// events in private slices stamped FROM the engines' own accumulators (the
// exact float operation order — which is what makes flight.CheckRun's
// invariants exact), and publish whole run columns at the end of the run.
// Nothing here feeds back into a simulated value; renders are byte-identical
// recorder-on/off.
//
// The per-interval oracle reference is the TIME-domain minimum over the
// interval family's columns (min over i of cycles[i][iv] × period[i]), not
// the min-TPI column the ablation driver prints. Minimizing in the same unit
// the columns accumulate is what makes trace/fixed regret exactly
// non-negative and the oracle column's regret exactly zero; the two minima
// pick the same column except on sub-ulp ties, so policy orderings agree.
//
// Note on coverage: the study-row tier (internal/experiments) memoizes
// trace/policy passes persistently, and a warm -study-cache elides the
// compute entirely — along with its ledger events. Record complete ledgers
// from a fresh process without -study-cache (EXPERIMENTS.md, "Reading the
// flight ledger").

// flightOracle computes the per-interval oracle reference over the family's
// raw outcome rows: for each interval, the column index minimizing
// float64(cycles) × period (strict <, first column wins ties) and that
// minimal time.
func (mp *MultiPolicy) flightOracle(cycles [][]int64, intervals int64) (cfg []int, ns []float64) {
	cfg = make([]int, intervals)
	ns = make([]float64, intervals)
	for iv := int64(0); iv < intervals; iv++ {
		best := 0
		bestNS := float64(cycles[0][iv]) * mp.cycs[0]
		for i := 1; i < len(mp.cycs); i++ {
			if t := float64(cycles[i][iv]) * mp.cycs[i]; t < bestNS {
				best, bestNS = i, t
			}
		}
		cfg[iv] = best
		ns[iv] = bestNS
	}
	return cfg, ns
}

// flightMeta stamps the engine's shared run identity at a column's penalty.
func (mp *MultiPolicy) flightMeta(policy, kind string, penalty int) flight.RunMeta {
	return flight.RunMeta{
		App:     mp.b.Name,
		Seed:    mp.seed,
		Sizes:   append([]int(nil), mp.sizes...),
		N:       mp.n,
		Penalty: penalty,
		Policy:  policy,
		Kind:    kind,
	}
}

// flightEnd summarizes a completed column with RunResult's TPI convention.
func flightEnd(intervals, instrs, switches int64, timeNS, regretNS float64) flight.RunEnd {
	end := flight.RunEnd{
		Intervals:   intervals,
		Instrs:      instrs,
		TimeNS:      timeNS,
		Switches:    switches,
		CumRegretNS: regretNS,
	}
	if instrs != 0 {
		end.TPI = timeNS / float64(instrs)
	}
	return end
}

// publishTraceRuns emits the fixed-configuration replay columns of Traces —
// one run per family column plus the synthesized oracle column (which
// switches free of charge: the oracle bounds achievable time, it does not
// model a realizable controller).
func (mp *MultiPolicy) publishTraceRuns(ctx context.Context, cycles, issued [][]int64, tpi [][]float64, intervals int64) {
	oCfg, oNS := mp.flightOracle(cycles, intervals)
	for i := range mp.sizes {
		var (
			timeNS   float64
			regretNS float64
			instrs   int64
		)
		evs := make([]flight.Event, intervals)
		for iv := int64(0); iv < intervals; iv++ {
			adv := float64(cycles[i][iv]) * mp.cycs[i]
			timeNS += adv
			regret := adv - oNS[iv]
			regretNS += regret
			instrs += issued[i][iv]
			evs[iv] = flight.Event{
				Interval:    iv,
				Config:      i,
				Size:        mp.sizes[i],
				Cycles:      cycles[i][iv],
				Issued:      issued[i][iv],
				PeriodNS:    mp.cycs[i],
				AdvNS:       adv,
				CumTimeNS:   timeNS,
				TPI:         tpi[i][iv],
				OracleCfg:   oCfg[iv],
				OracleNS:    oNS[iv],
				RegretNS:    regret,
				CumRegretNS: regretNS,
			}
		}
		meta := mp.flightMeta("trace:"+mp.sources[i].Label, flight.KindTrace, mp.penalty)
		flight.Publish(ctx, meta, evs, flightEnd(intervals, instrs, 0, timeNS, regretNS))
	}
	evs, instrs, switches, timeNS := mp.oracleColumn(cycles, issued, oCfg, oNS, intervals, true)
	meta := mp.flightMeta("oracle", flight.KindOracle, mp.penalty)
	flight.Publish(ctx, meta, evs, flightEnd(intervals, instrs, switches, timeNS, 0))
}

// oracleColumn assembles the synthesized oracle run from the family's raw
// outcome rows: every interval advances by the oracle's minimal time on the
// oracle's config, switches are free of charge (the oracle bounds achievable
// time, it does not model a realizable controller), and regret is zero by
// construction. Events are built only when rec; the accumulators always are,
// in the same float operation order either way.
func (mp *MultiPolicy) oracleColumn(cycles, issued [][]int64, oCfg []int, oNS []float64, intervals int64, rec bool) (evs []flight.Event, instrs, switches int64, timeNS float64) {
	if rec {
		evs = make([]flight.Event, intervals)
	}
	for iv := int64(0); iv < intervals; iv++ {
		c := oCfg[iv]
		adv := oNS[iv]
		timeNS += adv
		instrs += issued[c][iv]
		switched := iv > 0 && c != oCfg[iv-1]
		if switched {
			switches++
		}
		if rec {
			evs[iv] = flight.Event{
				Interval:  iv,
				Config:    c,
				Size:      mp.sizes[c],
				Cycles:    cycles[c][iv],
				Issued:    issued[c][iv],
				PeriodNS:  mp.cycs[c],
				AdvNS:     adv,
				CumTimeNS: timeNS,
				TPI:       adv / float64(issued[c][iv]),
				OracleCfg: c,
				OracleNS:  adv,
				Switched:  switched,
			}
		}
	}
	return evs, instrs, switches, timeNS
}

// RunOracle synthesizes the per-interval oracle as a first-class run: the
// TIME-domain minimum over the interval family at every interval, charged no
// reconfiguration costs. It is the zero line every regret column is measured
// against; the zoo experiment races it alongside the real contenders so the
// league table carries its own reference. When the recorder is active the
// column is published under kind "oracle" with cumulative regret exactly 0.
func (mp *MultiPolicy) RunOracle(ctx context.Context, intervals int64) (RunResult, error) {
	cycles, issued, err := familyRows(ctx, mp.b, mp.seed, mp.sizes, mp.n, intervals)
	if err != nil {
		return RunResult{}, err
	}
	oCfg, oNS := mp.flightOracle(cycles, intervals)
	rec := flight.Active(ctx)
	evs, instrs, switches, timeNS := mp.oracleColumn(cycles, issued, oCfg, oNS, intervals, rec)
	res := RunResult{Policy: "oracle", Instrs: instrs, TimeNS: timeNS, Switches: switches}
	if instrs != 0 {
		res.TPI = timeNS / float64(instrs)
	}
	if rec {
		flight.Publish(ctx, mp.flightMeta("oracle", flight.KindOracle, mp.penalty), evs, flightEnd(intervals, instrs, switches, timeNS, 0))
	}
	return res, nil
}
