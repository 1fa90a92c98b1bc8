package experiments

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"capsim/internal/flight"
	"capsim/internal/sweep"
)

// The two id lists capbench's cold workloads run: every id outside Section
// 6, and the Section 6 set with its policy race and ledger.
var (
	processColdIDs = strings.Split("fig1a,fig1b,fig2,fig7,fig8,fig9,fig10,fig11,ablation-bpred,"+
		"ablation-combined,ablation-increment,ablation-power,ablation-tlb", ",")
	intervalColdIDs = strings.Split("fig12,fig13,ablation-interval,ablation-switch,zoo", ",")
)

// listConfig is TestParallelDeterminism's trimmed budget.
func listConfig() Config {
	cfg := fastConfig()
	cfg.CacheWarmRefs = 5_000
	cfg.CacheRefs = 20_000
	cfg.QueueInstrs = 10_000
	cfg.IntervalInstrs = 400
	return cfg
}

// ledgerSink records each published run column in ledger line format with
// the run id zeroed, in publication order.
type ledgerSink struct {
	mu   sync.Mutex
	runs []string
}

func (s *ledgerSink) WriteRun(_ int64, meta flight.RunMeta, events []flight.Event, end flight.RunEnd) error {
	var b bytes.Buffer
	if err := flight.EncodeRun(&b, 0, meta, events, end); err != nil {
		return err
	}
	s.mu.Lock()
	s.runs = append(s.runs, b.String())
	s.mu.Unlock()
	return nil
}

func (s *ledgerSink) WriteProgress(flight.Progress) error { return nil }

// listOutput is what a list run prints — each render and its footer, the
// wall time left out — and the ledger it records.
type listOutput struct {
	stdout string
	ledger []string
}

// serialList is the loop capsim ran before RunList: one id after another,
// each with serial sweeps, from cold caches.
func serialList(t *testing.T, ids []string, cfg Config) (out listOutput, blocks []int) {
	t.Helper()
	ResetCaches()
	sink := &ledgerSink{}
	flight.SetCollector(flight.NewCollector(sink))
	defer flight.SetCollector(nil)
	ctx := sweep.WithWorkers(context.Background(), 1)
	var b strings.Builder
	for _, id := range ids {
		res, err := RunCtx(ctx, id, cfg)
		if err != nil {
			t.Fatalf("serial %s: %v", id, err)
		}
		fmt.Fprintf(&b, "%s(%s)\n\n", res.Render(), id)
		blocks = append(blocks, len(sink.runs))
	}
	return listOutput{b.String(), sink.runs}, blocks
}

// runList runs ids through RunList under a budget of workers, from cold
// caches, recording the ledger through the process-wide collector as
// capsim's -ledger-out does.
func runList(ctx context.Context, ids []string, cfg Config, workers int) (listOutput, error) {
	ResetCaches()
	sink := &ledgerSink{}
	flight.SetCollector(flight.NewCollector(sink))
	defer flight.SetCollector(nil)
	ctx = sweep.WithWorkers(ctx, workers)
	var b strings.Builder
	err := RunList(ctx, ids, cfg, nil, func(i int, res Result, _ time.Duration) {
		fmt.Fprintf(&b, "%s(%s)\n\n", res.Render(), ids[i])
	})
	return listOutput{b.String(), sink.runs}, err
}

// sorted returns a sorted copy of runs: the ledger as a multiset.
func sorted(runs []string) []string {
	out := append([]string(nil), runs...)
	sort.Strings(out)
	return out
}

// TestRunListMatchesSerialLoop: the capbench cold id lists, computed
// concurrently under budgets of 1, 2 and 4, print exactly what the serial
// loop prints, and record the same ledger — as a multiset overall and
// experiment by experiment in list order.
func TestRunListMatchesSerialLoop(t *testing.T) {
	if testing.Short() {
		t.Skip("runs both cold id lists four times")
	}
	cfg := listConfig()
	for _, list := range []struct {
		name string
		ids  []string
	}{{"interval-cold", intervalColdIDs}, {"process-cold", processColdIDs}} {
		ref, blocks := serialList(t, list.ids, cfg)
		if list.name == "interval-cold" && len(ref.ledger) == 0 {
			t.Fatal("interval-cold recorded no ledger runs")
		}
		for _, workers := range []int{1, 2, 4} {
			if raceEnabled && workers == 1 {
				continue // no concurrency for the race detector to see
			}
			got, err := runList(context.Background(), list.ids, cfg, workers)
			if err != nil {
				t.Fatalf("%s at %d workers: %v", list.name, workers, err)
			}
			if got.stdout != ref.stdout {
				t.Errorf("%s at %d workers: stdout differs from the serial loop", list.name, workers)
			}
			if len(got.ledger) != len(ref.ledger) {
				t.Fatalf("%s at %d workers: %d ledger runs, serial loop %d", list.name, workers, len(got.ledger), len(ref.ledger))
			}
			lo := 0
			for i, hi := range blocks {
				if a, b := sorted(got.ledger[lo:hi]), sorted(ref.ledger[lo:hi]); strings.Join(a, "") != strings.Join(b, "") {
					t.Errorf("%s at %d workers: ledger runs %d..%d differ from %s's", list.name, workers, lo, hi, list.ids[i])
				}
				lo = hi
			}
		}
	}
}

// TestRunListLowestIndexErrorWins: with two failing ids, RunList returns
// the lower one's error after emitting exactly the ids before it, however
// the budget schedules them — a later id failing first changes nothing.
func TestRunListLowestIndexErrorWins(t *testing.T) {
	cfg := listConfig()
	ids := []string{"fig1a", "fig7", "no-such-a", "fig1b", "no-such-b"}
	for _, workers := range []int{1, 2, 4} {
		got, err := runList(context.Background(), ids, cfg, workers)
		if err == nil || !strings.Contains(err.Error(), `"no-such-a"`) {
			t.Fatalf("%d workers: error %v, want no-such-a's", workers, err)
		}
		if n := strings.Count(got.stdout, "\n=== "); n != 1 || !strings.HasSuffix(got.stdout, "(fig7)\n\n") {
			t.Fatalf("%d workers: emitted %d renders ending %q, want exactly fig1a and fig7", workers, n+1, got.stdout[max(0, len(got.stdout)-40):])
		}
	}
}

// TestRunListCancel: cancelling the context stops the list; RunList
// returns the context's error and emits no id after the cancellation.
func TestRunListCancel(t *testing.T) {
	cfg := listConfig()
	for _, workers := range []int{1, 2} {
		ctx, cancel := context.WithCancel(context.Background())
		ResetCaches()
		emitted := 0
		err := RunList(sweep.WithWorkers(ctx, workers), []string{"fig1a", "fig7", "fig10"}, cfg, nil, func(int, Result, time.Duration) {
			emitted++
			cancel()
		})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%d workers: error %v, want context.Canceled", workers, err)
		}
		if emitted != 1 {
			t.Fatalf("%d workers: %d ids emitted after cancelling at the first", workers, emitted)
		}
	}
}
