package main

import (
	"compress/gzip"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestSplitRendersStripsFooters(t *testing.T) {
	out := "=== a: A ===\nrow 1\n\n(a in 0.3s)\n\n=== b: B ===\nrow 2\n\n(b in 12.0s)\n\n"
	got, err := SplitRenders(out, []string{"a", "b"})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{"a": "=== a: A ===\nrow 1\n\n", "b": "=== b: B ===\nrow 2\n\n"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("got %q, want %q", got, want)
	}
	// The footer's time is the only varying part: digests ignore it.
	again, _ := SplitRenders(strings.Replace(out, "0.3s", "9.9s", 1), []string{"a", "b"})
	if d := SameDigests(Digests(got), Digests(again)); d != "" {
		t.Error(d)
	}
	for _, bad := range []string{
		"=== a ===\n(b in 0.1s)\n\n",              // wrong id
		"=== a ===\n(a in 0.1s)\n\n",              // missing b
		out + "trailing\n",                        // extra output
		"=== a ===\n(a in 0.1s)\n\n(b in 0.1s)\n", // footer without its blank line
	} {
		if _, err := SplitRenders(bad, []string{"a", "b"}); err == nil {
			t.Errorf("SplitRenders(%q) accepted", bad)
		}
	}
}

func TestReportMatchesZoo(t *testing.T) {
	zoo := "=== zoo: Z ===\nleague: t\nh\n-\nr1\nr2\n\ndwell: d\nx\n\n"
	report := "capsim flight report (capsim/ledger/v1)\n  ledger   z: 2 runs (2 new)\n\nleague: t\nh\n-\nr1\nr2\n\ndwell: d\nx\n"
	if err := ReportMatchesZoo(report, zoo); err != nil {
		t.Error(err)
	}
	if err := ReportMatchesZoo(strings.Replace(report, "r2", "r3", 1), zoo); err == nil {
		t.Error("a differing league row was accepted")
	}
	if n := zooRows(zoo); n != 2 {
		t.Errorf("zooRows = %d, want 2", n)
	}
}

func writeLedger(t *testing.T, path string, lines []string) {
	t.Helper()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	zw := gzip.NewWriter(f)
	zw.Write([]byte(strings.Join(lines, "\n") + "\n"))
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestLedgerDigestIgnoresRunOrder: parallel workers publish runs in
// scheduling order, so two ledgers with the same runs in another order and
// numbering must digest alike, and a changed event must not.
func TestLedgerDigestIgnoresRunOrder(t *testing.T) {
	dir := t.TempDir()
	a, b, c := filepath.Join(dir, "a.gz"), filepath.Join(dir, "b.gz"), filepath.Join(dir, "c.gz")
	writeLedger(t, a, []string{
		`{"t":"ledger","generated":"T1"}`,
		`{"t":"run","run":1,"policy":"p"}`, `{"t":"iv","run":1,"iv":0,"cycles":5}`,
		`{"t":"run","run":2,"policy":"q"}`, `{"t":"iv","run":2,"iv":0,"cycles":7}`,
	})
	writeLedger(t, b, []string{
		`{"t":"ledger","generated":"T2"}`,
		`{"t":"run","run":1,"policy":"q"}`, `{"t":"iv","run":1,"iv":0,"cycles":7}`,
		`{"t":"run","run":2,"policy":"p"}`, `{"t":"iv","run":2,"iv":0,"cycles":5}`,
	})
	writeLedger(t, c, []string{
		`{"t":"ledger","generated":"T1"}`,
		`{"t":"run","run":1,"policy":"p"}`, `{"t":"iv","run":1,"iv":0,"cycles":6}`,
		`{"t":"run","run":2,"policy":"q"}`, `{"t":"iv","run":2,"iv":0,"cycles":7}`,
	})
	da, runs, err := LedgerDigest(a)
	if err != nil {
		t.Fatal(err)
	}
	db, _, _ := LedgerDigest(b)
	dc, _, _ := LedgerDigest(c)
	if da != db {
		t.Error("reordered ledger digests differently")
	}
	if da == dc {
		t.Error("changed event digests alike")
	}
	if !reflect.DeepEqual(runs, []int64{1, 2}) {
		t.Errorf("runs = %v", runs)
	}

	sub := filepath.Join(dir, "sub.ledger")
	if err := WriteLedgerSubset(a, sub, map[int64]bool{2: true}); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(sub)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"t":"ledger","generated":"T1"}` + "\n" + `{"t":"run","run":2,"policy":"q"}` + "\n" + `{"t":"iv","run":2,"iv":0,"cycles":7}` + "\n"
	if string(raw) != want {
		t.Errorf("subset = %q, want %q", raw, want)
	}
}

// TestBenchmarkJSONMatchesCode keeps BENCHMARK.json, the metrics the code
// reports and predictions.json in step.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bj.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %s is not implemented", w.Name)
		}
		names = append(names, w.Name)
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json lists workloads %v; the code has %d", names, len(workloads))
	}
	if len(bj.EndToEnd) != len(e2eMetrics) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, code reports %d", len(bj.EndToEnd), len(e2eMetrics))
	}
	for i, m := range bj.EndToEnd {
		if d := e2eMetrics[i]; m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("end_to_end[%d] = %+v, code reports %+v", i, m, d)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if !reflect.DeepEqual(bj.PerLayer, layerMetrics) {
		t.Errorf("per_layer differs from layerMetrics:\n got %v\nwant %v", bj.PerLayer, layerMetrics)
	}

	known := map[string]bool{}
	for _, ms := range [][]metricDef{e2eMetrics, summaryOnly, layerMetrics} {
		for _, m := range ms {
			known[m.Name] = true
		}
	}
	raw, err = os.ReadFile("predictions.json")
	if err != nil {
		t.Fatal(err)
	}
	var preds struct {
		Predictions []map[string][]string `json:"predictions"`
	}
	if err := json.Unmarshal(raw, &preds); err != nil {
		t.Fatal(err)
	}
	for i, p := range preds.Predictions {
		for _, key := range []string{"layer", "moves"} {
			for _, name := range p[key] {
				if !known[name] {
					t.Errorf("prediction %d names unknown metric %s", i, name)
				}
			}
		}
		for _, key := range []string{"on", "not_on"} {
			for _, w := range p[key] {
				if _, ok := workloads[w]; !ok {
					t.Errorf("prediction %d names unknown workload %s", i, w)
				}
			}
		}
		if len(p["layer"]) == 0 || len(p["moves"]) == 0 || len(p["on"]) == 0 {
			t.Errorf("prediction %d is incomplete: %v", i, p)
		}
	}
}
