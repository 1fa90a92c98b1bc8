package experiments

import (
	"context"
	"strings"

	"capsim/internal/core"
	"capsim/internal/flight"
	"capsim/internal/sweep"
	"capsim/internal/workload"
)

func init() {
	register("zoo", "Policy zoo: adaptive contenders raced against fixed baselines and the per-interval oracle", zoo)
}

// The zoo experiment runs one study row per application: the oracle column
// and the fixed-configuration baselines at every penalty point, plus ONE
// Race of every adaptive contender at every penalty, and renders the
// league/dwell/summary tables from the engines' own flight accumulators
// (flight.LeagueReport — the same rendering path behind `capsim -report`).
// Racing the penalty axis in one call is what lets copy-on-divergence pay:
// a contender makes the same decisions at every penalty, so its columns
// share one simulated core. Because the tables are built from published run
// columns in the league's total order, re-running `capsim -report` over a
// ledger the experiment emitted (-ledger-out) reproduces them
// byte-for-byte, whatever the row shape.

// zooApps pairs the phase-modulated synthetic profiles (which reward
// adaptation: each phase prefers a different window size) with two paper
// applications as stationarity controls.
func zooApps() []string { return []string{"flutter", "squall", "turb3d", "vortex"} }

// zooSizes is the three-point configuration menu: the fast-clock small
// window, the paper's adaptive midpoint, and the full window.
var zooSizes = []int{16, 64, 128}

// zooPenalties sweeps the clock-switch cost from free through punitive —
// the axis that separates eager switchers from dwellers.
var zooPenalties = []int{0, 50, 200}

// zooContenders builds one fresh stateful instance of every adaptive policy,
// charged the given switch penalty. All tunables are zero — the documented
// defaults (internal/core's negative-sentinel convention), so the league
// measures the out-of-the-box controllers. Deliberately NOT penalty-tuned:
// stretching dwell floors and exploration cadences with the switch cost was
// tried and is fragile — it trades the punitive-penalty switch tax for
// response lag whose regret cost varies per policy and per workload (it
// regressed more cells than it fixed). The punitive-penalty column is where
// the league is supposed to separate eager switchers from dwellers; tuning
// it away would blunt the instrument.
func zooContenders(pen int) []core.PolicySpec {
	menu := []int{0, 1, 2}
	return []core.PolicySpec{
		{Policy: &core.IntervalPolicy{Configs: menu}, Penalty: pen},
		{Policy: &core.HysteresisPolicy{Configs: menu}, Penalty: pen},
		{Policy: &core.PIDPolicy{Configs: menu}, Penalty: pen},
		{Policy: &core.SlopeBanditPolicy{Configs: menu}, Penalty: pen},
		{Policy: &core.ProfileThenCommitPolicy{Configs: menu}, Penalty: pen},
	}
}

// zooPolicyNames canonicalizes the contender list for the study-row key:
// a changed roster must miss the persistent cache.
func zooPolicyNames() string {
	var names []string
	for _, s := range zooContenders(0) {
		names = append(names, s.Policy.Name())
	}
	return strings.Join(names, ",")
}

// zooIntervals scales the race length with the queue budget so the smoke
// configurations stay cheap, with a floor long enough for every contender to
// leave its bootstrap phase.
func zooIntervals(cfg Config) int64 {
	n := cfg.QueueInstrs / 250
	if n < 60 {
		n = 60
	}
	return n
}

// zooPass runs one application's row: the oracle column and the three
// fixed baselines at every penalty (one MultiPolicy per penalty, each a
// cheap replay of the shared interval family), then a single Race of every
// contender at every penalty. A private Capture collector reduces every
// published column to its league summary; the fan-out in flight.Publish
// means a process-wide ledger (-ledger-out) records the identical columns.
func zooPass(ctx context.Context, cfg Config, app string, intervals int64) ([]flight.RunSummary, error) {
	b, err := workload.ByName(app)
	if err != nil {
		return nil, err
	}
	sink := flight.NewCapture()
	cctx := flight.WithCollector(ctx, flight.NewCollector(sink))
	var (
		mp    *core.MultiPolicy
		specs []core.PolicySpec
	)
	for _, pen := range zooPenalties {
		mp, err = core.NewMultiPolicy(b, cfg.Seed, zooSizes, cfg.IntervalInstrs, pen, cfg.Feature)
		if err != nil {
			return nil, err
		}
		if _, err := mp.RunOracle(cctx, intervals); err != nil {
			return nil, err
		}
		for c := range zooSizes {
			if _, err := mp.RunFixed(cctx, c, intervals); err != nil {
				return nil, err
			}
		}
		specs = append(specs, zooContenders(pen)...)
	}
	// Race columns carry their own penalties; any of the engines serves.
	if _, err := mp.Race(cctx, specs, intervals); err != nil {
		return nil, err
	}
	return sink.Summaries(), nil
}

// zoo is the driver: fan the applications across the sweep pool (each one
// persistable study row), dedup the summaries, and render the three league
// tables. No notes — the rendered body is exactly the tables, which is what
// lets `capsim -report` reproduce it.
func zoo(ctx context.Context, cfg Config) (Result, error) {
	apps := zooApps()
	intervals := zooIntervals(cfg)
	rows, err := sweep.RunCtx(ctx, len(apps), func(a int) ([]flight.RunSummary, error) {
		return zooRow(cfg, apps[a], intervals, func() ([]flight.RunSummary, error) {
			return zooPass(ctx, cfg, apps[a], intervals)
		})
	})
	if err != nil {
		return Result{}, err
	}
	seen := map[string]bool{}
	var runs []flight.RunSummary
	for _, row := range rows {
		for _, s := range row {
			k := flight.SummaryKey(s)
			if seen[k] {
				continue
			}
			seen[k] = true
			runs = append(runs, s)
		}
	}
	return Result{
		ID:     "zoo",
		Title:  "policy zoo league: adaptive contenders vs fixed baselines vs oracle",
		Tables: flight.LeagueReport(runs),
	}, nil
}
