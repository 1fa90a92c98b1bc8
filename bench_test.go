package capsim

import (
	"context"
	"testing"

	"capsim/internal/cache"
	"capsim/internal/core"
	"capsim/internal/experiments"
	"capsim/internal/obs"
	"capsim/internal/sweep"
	"capsim/internal/tech"
	"capsim/internal/trace"
	"capsim/internal/workload"
)

// benchConfig returns reduced budgets so the full `go test -bench=.` sweep
// regenerates every figure in minutes on one core. Raise the budgets (or use
// cmd/capsim with -cache-refs / -queue-instrs) for full-fidelity runs.
func benchConfig() experiments.Config {
	cfg := experiments.DefaultConfig()
	cfg.CacheWarmRefs = 20_000
	cfg.CacheRefs = 100_000
	cfg.QueueInstrs = 30_000
	return cfg
}

// benchExperiment runs one of the paper's figures/tables per benchmark
// iteration and reports its aggregate text size (to keep the work observable
// and defeat dead-code elimination).
func benchExperiment(b *testing.B, id string) {
	cfg := benchConfig()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Run(id, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Figures)+len(res.Tables) == 0 {
			b.Fatal("empty result")
		}
	}
}

// Figure 1(a): cache address-bus wire delay vs number of 2KB subarrays.
func BenchmarkFig1a(b *testing.B) { benchExperiment(b, "fig1a") }

// Figure 1(b): cache address-bus wire delay vs number of 4KB subarrays.
func BenchmarkFig1b(b *testing.B) { benchExperiment(b, "fig1b") }

// Figure 2: integer-queue wire delay vs entry count.
func BenchmarkFig2(b *testing.B) { benchExperiment(b, "fig2") }

// Figure 7: per-application TPI vs L1 Dcache size (fixed boundaries).
func BenchmarkFig7(b *testing.B) { benchExperiment(b, "fig7") }

// Figure 8: TPImiss, best conventional vs process-level adaptive hierarchy.
func BenchmarkFig8(b *testing.B) { benchExperiment(b, "fig8") }

// Figure 9: TPI, best conventional vs process-level adaptive hierarchy.
func BenchmarkFig9(b *testing.B) { benchExperiment(b, "fig9") }

// Figure 10: per-application TPI vs instruction-queue size.
func BenchmarkFig10(b *testing.B) { benchExperiment(b, "fig10") }

// Figure 11: TPI, best conventional vs process-level adaptive queue.
func BenchmarkFig11(b *testing.B) { benchExperiment(b, "fig11") }

// Figure 12: turb3d per-interval snapshots, 64- vs 128-entry queue.
func BenchmarkFig12(b *testing.B) { benchExperiment(b, "fig12") }

// Figure 13: vortex per-interval snapshots, 16- vs 64-entry queue.
func BenchmarkFig13(b *testing.B) { benchExperiment(b, "fig13") }

// Ablation: Section 6 interval predictor vs process-level vs oracle.
func BenchmarkAblationInterval(b *testing.B) { benchExperiment(b, "ablation-interval") }

// Ablation: clock-switch penalty sweep.
func BenchmarkAblationSwitchPenalty(b *testing.B) { benchExperiment(b, "ablation-switch") }

// Ablation: increment granularity (paper Section 5.2.1's design choice).
func BenchmarkAblationIncrement(b *testing.B) { benchExperiment(b, "ablation-increment") }

// Ablation: Section 4.1 low-power mode.
func BenchmarkAblationPower(b *testing.B) { benchExperiment(b, "ablation-power") }

// Extension: adaptive TLB with the Section 4.2 backup strategy.
func BenchmarkAblationTLB(b *testing.B) { benchExperiment(b, "ablation-tlb") }

// Extension: adaptive branch-predictor table sizing.
func BenchmarkAblationBpred(b *testing.B) { benchExperiment(b, "ablation-bpred") }

// Extension: the full Figure 5 processor — joint cache+queue adaptation.
func BenchmarkAblationCombined(b *testing.B) { benchExperiment(b, "ablation-combined") }

// Extension: the policy-zoo league race (contenders + baselines + oracle).
func BenchmarkZoo(b *testing.B) { benchExperiment(b, "zoo") }

// --- Micro-benchmarks of the simulation substrates -----------------------

func BenchmarkCacheAccess(b *testing.B) {
	bm, err := BenchmarkByName("gcc")
	if err != nil {
		b.Fatal(err)
	}
	m, err := NewCacheMachine(bm, 1, PaperCacheParams(), 2, -1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	const chunk = 1 << 12
	for i := 0; i < b.N; i += chunk {
		m.RunInterval(chunk)
	}
}

func BenchmarkQueueIssue(b *testing.B) {
	bm, err := BenchmarkByName("gcc")
	if err != nil {
		b.Fatal(err)
	}
	m, err := NewQueueMachine(bm, 1, PaperQueueSizes(), 3, -1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	const chunk = 1 << 12
	for i := 0; i < b.N; i += chunk {
		m.RunInterval(chunk)
	}
}

// --- Profiling passes ----------------------------------------------------
//
// trace.Reset() inside the loop keeps every iteration cold, so the one-pass
// kernels pay their trace materialization cost honestly.

// BenchmarkCacheProfile profiles all 8 paper boundaries for one application
// via the one-pass MultiHierarchy engine.
func BenchmarkCacheProfile(b *testing.B) {
	bm := workload.MustByName("gcc")
	defer trace.Reset()
	p := cache.PaperParams()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		trace.Reset()
		tpi, _, err := core.ProfileCacheTPI(bm, 1998, p, core.PaperMaxBoundary, 20_000, 100_000)
		if err != nil {
			b.Fatal(err)
		}
		if len(tpi) != core.PaperMaxBoundary+1 {
			b.Fatal("short table")
		}
	}
}

// BenchmarkQueueProfile profiles all 8 queue sizes in one event-driven
// MultiCore pass over the shared materialized instruction stream.
func BenchmarkQueueProfile(b *testing.B) {
	bm := workload.MustByName("gcc")
	defer trace.Reset()
	sizes := core.PaperQueueSizes()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		trace.Reset()
		tpi, err := core.ProfileQueueTPI(bm, 1998, sizes, 30_000, tech.Micron018)
		if err != nil {
			b.Fatal(err)
		}
		if len(tpi) != len(sizes) {
			b.Fatal("short table")
		}
	}
}

// --- Policy studies: direct machines vs family replay (make bench-policy) --
//
// Both benchmarks run the same Section 6 cells — each interval-study
// application with its candidate size pair × {fixed(0), fixed(1),
// interval-adaptive} × switch penalty {0, 50, 200} — and reset the trace
// stores and interval families every iteration, so each iteration is a cold
// study. Direct simulates every cell on its own QueueMachine. Replay runs
// them the way the zoo and ablation-switch do: fixed cells replay one
// shared interval family per (application, size) (the family key excludes
// the penalty), and the three penalties' adaptive cells race as columns of
// one Race, sharing a core while their decisions agree. Both legs run on one
// sweep worker. scripts/bench_policy.sh gates Direct/Replay against the
// 1.5x floor.

var policyStudyApps = []struct {
	app   string
	sizes []int
}{{"turb3d", []int{64, 128}}, {"vortex", []int{16, 64}}}

var policyStudyPenalties = []int{0, 50, 200}

const policyStudyIntervals, policyStudyN = 500, 2000

// policyStudyCells runs every application's cells with run, which returns
// one result per (penalty, policy) cell, and checks each covered the study.
func policyStudyCells(tb testing.TB, intervals int64, run func(bm workload.Benchmark, sizes []int, intervals int64) ([]core.RunResult, error)) {
	for _, a := range policyStudyApps {
		res, err := run(workload.MustByName(a.app), a.sizes, intervals)
		if err != nil {
			tb.Fatal(err)
		}
		if len(res) != 3*len(policyStudyPenalties) {
			tb.Fatalf("%s: %d results", a.app, len(res))
		}
		for _, r := range res {
			if r.Instrs < intervals*policyStudyN {
				tb.Fatalf("%s/%s: %d instructions", a.app, r.Policy, r.Instrs)
			}
		}
	}
}

// policyStudyDirect simulates every cell on a private QueueMachine.
func policyStudyDirect(bm workload.Benchmark, sizes []int, intervals int64) ([]core.RunResult, error) {
	var out []core.RunResult
	for _, pen := range policyStudyPenalties {
		for _, p := range []core.Policy{
			core.FixedPolicy{Config: 0},
			core.FixedPolicy{Config: 1},
			&core.IntervalPolicy{Configs: []int{0, 1}},
		} {
			m, err := core.NewQueueMachine(bm, 1998, sizes, 0, pen, tech.Micron018)
			if err != nil {
				return nil, err
			}
			out = append(out, core.RunQueue(m, p, intervals, policyStudyN, false))
		}
	}
	return out, nil
}

// policyStudyReplay replays the fixed cells from the interval families and
// races the adaptive cells of every penalty as columns of one Race.
func policyStudyReplay(bm workload.Benchmark, sizes []int, intervals int64) ([]core.RunResult, error) {
	ctx := context.Background()
	var (
		out   []core.RunResult
		specs []core.PolicySpec
		mp    *core.MultiPolicy
		err   error
	)
	for _, pen := range policyStudyPenalties {
		if mp, err = core.NewMultiPolicy(bm, 1998, sizes, policyStudyN, pen, tech.Micron018); err != nil {
			return nil, err
		}
		for cfg := range 2 {
			r, err := mp.RunFixed(ctx, cfg, intervals)
			if err != nil {
				return nil, err
			}
			out = append(out, r)
		}
		specs = append(specs, core.PolicySpec{Policy: &core.IntervalPolicy{Configs: []int{0, 1}}, Penalty: pen})
	}
	// Race columns carry their own penalties; any of the engines serves.
	raced, err := mp.Race(ctx, specs, intervals)
	return append(out, raced...), err
}

func benchPolicyStudy(b *testing.B, run func(bm workload.Benchmark, sizes []int, intervals int64) ([]core.RunResult, error)) {
	// One worker: the gate compares the algorithms, and Direct is serial.
	defer sweep.SetDefaultWorkers(sweep.DefaultWorkers())
	sweep.SetDefaultWorkers(1)
	defer func() { core.ResetPolicyFamilies(); trace.Reset() }()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		core.ResetPolicyFamilies()
		trace.Reset()
		policyStudyCells(b, policyStudyIntervals, run)
	}
}

// BenchmarkPolicyStudyDirect runs every cell as RunQueue over a private
// QueueMachine.
func BenchmarkPolicyStudyDirect(b *testing.B) { benchPolicyStudy(b, policyStudyDirect) }

// BenchmarkPolicyStudyReplay runs the cells through the family replay and
// one penalty-column Race per application.
func BenchmarkPolicyStudyReplay(b *testing.B) { benchPolicyStudy(b, policyStudyReplay) }

// TestPolicyStudyReplayShares is the deterministic companion of `make
// bench-policy`: for the benchmark's cells, the replay path's simulated
// core-intervals per served policy-interval (policy.core_cells /
// policy.cells) must not grow. Per application and interval the replay
// serves 5 policy cells — 2 family columns and 3 race columns — from 3
// simulated cores: the 2 family cores and the one core the race columns
// share, since interval-adaptive's decisions do not depend on the penalty.
func TestPolicyStudyReplayShares(t *testing.T) {
	prev := obs.Enabled()
	obs.SetEnabled(true)
	defer obs.SetEnabled(prev)
	core.ResetPolicyFamilies()
	defer core.ResetPolicyFamilies()
	before := obs.TakeSnapshot()
	const intervals = 40
	policyStudyCells(t, intervals, policyStudyReplay)
	d := obs.TakeSnapshot().DiffCounters(before)
	cells, coreCells := d["policy.cells"], d["policy.core_cells"]
	want := int64(len(policyStudyApps)) * 5 * intervals
	if cells != want {
		t.Fatalf("policy.cells %d, want %d", cells, want)
	}
	if 5*coreCells > 3*cells {
		t.Fatalf("policy.core_cells/policy.cells = %d/%d, above 3/5", coreCells, cells)
	}
}
