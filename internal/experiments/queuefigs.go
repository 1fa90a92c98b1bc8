package experiments

import (
	"context"
	"fmt"

	"capsim/internal/core"
	"capsim/internal/memo"
	"capsim/internal/metrics"
	"capsim/internal/sweep"
	"capsim/internal/workload"
)

func init() {
	register("fig10", "Average TPI vs instruction queue size per application (Figure 10)", fig10)
	register("fig11", "Average TPI: conventional vs process-level adaptive queue (Figure 11)", fig11)
}

// queueStudy is the shared profiling pass behind Figures 10-11.
type queueStudy struct {
	apps     []workload.Benchmark
	sizes    []int
	tpi      map[string][]float64 // by app, dense by config index
	convBest int                  // config index with smallest average TPI
}

// queueStudies memoizes the profiling pass per configuration key
// (singleflight per key, like cacheStudies): fig10 and fig11 — and the
// interval/combined studies that reuse the table — share one pass instead of
// repeating it.
var queueStudies memo.Memo[string, *queueStudy]

func queueStudyKey(cfg Config) string {
	return fmt.Sprintf("%d/%d/%v", cfg.Seed, cfg.QueueInstrs, cfg.Feature)
}

// runQueueStudy profiles every application at every queue size. Applications
// — 22 for the paper's setup — fan out across the sweep pool; within each,
// core.ProfileQueueTPI evaluates all 8 window sizes in one ooo.MultiCore
// pass over the application's shared instruction stream. Results are
// collected by index, never by completion order, so output is byte-identical
// at any worker count.
func runQueueStudy(ctx context.Context, cfg Config) (*queueStudy, error) {
	return studyDo(ctx, &queueStudies, queueStudyKey(cfg), func(j *sweep.Joint) (*queueStudy, error) {
		s := &queueStudy{
			apps:  workload.QueueApps(),
			sizes: core.PaperQueueSizes(),
			tpi:   map[string][]float64{},
		}
		rows, err := sweep.RunJoint(ctx, j, len(s.apps), func(a int) ([]float64, error) {
			return queueProfileRow(s.apps[a], cfg.Seed, s.sizes, cfg.QueueInstrs, cfg.Feature)
		})
		if err != nil {
			return nil, err
		}
		for a, b := range s.apps {
			s.tpi[b.Name] = rows[a]
		}
		bestI, bestAvg := -1, 0.0
		for i := range s.sizes {
			var sum float64
			for _, b := range s.apps {
				sum += s.tpi[b.Name][i]
			}
			avg := sum / float64(len(s.apps))
			if bestI < 0 || avg < bestAvg {
				bestI, bestAvg = i, avg
			}
		}
		s.convBest = bestI
		return s, nil
	})
}

// fig10 renders per-application TPI vs queue size, split into the paper's
// integer (a) and floating-point (b) panels.
func fig10(ctx context.Context, cfg Config) (Result, error) {
	s, err := runQueueStudy(ctx, cfg)
	if err != nil {
		return Result{}, err
	}
	mk := func(id, title string, fp bool) metrics.Figure {
		fig := metrics.Figure{
			ID:     id,
			Title:  title,
			XLabel: "instruction queue size (entries)",
			YLabel: "Avg TPI (ns)",
		}
		for _, b := range s.apps {
			if b.FloatingPoint != fp {
				continue
			}
			var xs, ys []float64
			for i, w := range s.sizes {
				xs = append(xs, float64(w))
				ys = append(ys, s.tpi[b.Name][i])
			}
			fig.Series = append(fig.Series, metrics.Series{Name: b.Name, X: xs, Y: ys})
		}
		return fig
	}
	return Result{
		ID:    "fig10",
		Title: "Variation of average TPI with instruction queue size",
		Figures: []metrics.Figure{
			mk("fig10a", "Integer benchmarks", false),
			mk("fig10b", "Floating-point benchmarks", true),
		},
		Notes: []string{fmt.Sprintf("best conventional configuration: %d entries", s.sizes[s.convBest])},
	}, nil
}

func fig11(ctx context.Context, cfg Config) (Result, error) {
	s, err := runQueueStudy(ctx, cfg)
	if err != nil {
		return Result{}, err
	}
	t := metrics.Table{
		ID:      "fig11",
		Title:   "Average TPI (ns): conventional vs process-level adaptive queue",
		Columns: []string{"benchmark", "best conventional", "process-level adaptive", "adaptive queue", "reduction"},
	}
	var convSum, adptSum float64
	for _, b := range s.apps {
		bestI := core.SelectBestIndex(s.tpi[b.Name])
		conv := s.tpi[b.Name][s.convBest]
		adpt := s.tpi[b.Name][bestI]
		convSum += conv
		adptSum += adpt
		t.Rows = append(t.Rows, []string{
			b.Name, metrics.F(conv), metrics.F(adpt),
			fmt.Sprintf("%d entries", s.sizes[bestI]),
			metrics.Pct(metrics.Reduction(conv, adpt)),
		})
	}
	n := float64(len(s.apps))
	t.Rows = append(t.Rows, []string{
		"average", metrics.F(convSum / n), metrics.F(adptSum / n), "",
		metrics.Pct(metrics.Reduction(convSum/n, adptSum/n)),
	})
	return Result{
		ID: "fig11", Title: t.Title, Tables: []metrics.Table{t},
		Notes: []string{fmt.Sprintf("conventional baseline: %d entries", s.sizes[s.convBest])},
	}, nil
}
