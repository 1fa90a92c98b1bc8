package flight

import (
	"bytes"
	"compress/gzip"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// truncatedGzLedger is a four-run gzip ledger cut at 3/5 of its bytes,
// mid-record.
func truncatedGzLedger(tb testing.TB) []byte {
	tb.Helper()
	full := filepath.Join(tb.TempDir(), "full.ndjson.gz")
	lw, err := CreateLedger(full)
	if err != nil {
		tb.Fatal(err)
	}
	c := NewCollector(lw)
	for _, p := range []string{"oracle", "fixed(0)", "fixed(1)", "adaptive"} {
		kind := KindFixed
		if p == "oracle" {
			kind = KindOracle
		}
		m, e, d := mkRun(p, kind, 30, 2)
		c.PublishRun(m, e, d)
	}
	if err := lw.Close(); err != nil {
		tb.Fatal(err)
	}
	buf, err := os.ReadFile(full)
	if err != nil {
		tb.Fatal(err)
	}
	return buf[:len(buf)*3/5]
}

// TestReportTruncatedGzLedger is the hardening gate: a .gz ledger cut at an
// arbitrary byte mid-record (killed writer, mid-stream disconnect) must
// warn and analyze the complete prefix instead of failing the report.
func TestReportTruncatedGzLedger(t *testing.T) {
	cut := filepath.Join(t.TempDir(), "cut.ndjson.gz")
	if err := os.WriteFile(cut, truncatedGzLedger(t), 0o644); err != nil {
		t.Fatal(err)
	}

	in, err := ReadReportInput(cut)
	if err != nil {
		t.Fatalf("truncated .gz ledger failed instead of degrading: %v", err)
	}
	if in.Ledger == nil {
		t.Fatal("truncated ledger not recognized as a ledger")
	}
	if len(in.Ledger.Warnings) == 0 {
		t.Fatal("no truncation warning recorded")
	}
	if n := len(in.Ledger.Runs); n == 0 || n >= 4 {
		t.Fatalf("complete prefix has %d runs, want between 1 and 3", n)
	}
	out := Report([]ReportInput{in})
	if !strings.Contains(out, "warning") || !strings.Contains(out, "league:") {
		t.Fatalf("report over truncated ledger missing warning or league table:\n%s", out)
	}
}

// TestReportTruncatedPlainLedger: a plain NDJSON ledger with a partial
// final line parses its complete prefix with a warning.
func TestReportTruncatedPlainLedger(t *testing.T) {
	dir := t.TempDir()
	full := filepath.Join(dir, "full.ndjson")
	lw, err := CreateLedger(full)
	if err != nil {
		t.Fatal(err)
	}
	c := NewCollector(lw)
	m, e, d := mkRun("fixed(0)", KindFixed, 10, 0)
	c.PublishRun(m, e, d)
	m2, e2, d2 := mkRun("fixed(1)", KindFixed, 10, 3)
	c.PublishRun(m2, e2, d2)
	if err := lw.Close(); err != nil {
		t.Fatal(err)
	}
	buf, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}
	// Cut mid-way through the final line: strip the newline and a few bytes.
	cutBytes := buf[:len(buf)-7]
	cut := filepath.Join(dir, "cut.ndjson")
	if err := os.WriteFile(cut, cutBytes, 0o644); err != nil {
		t.Fatal(err)
	}
	in, err := ReadReportInput(cut)
	if err != nil {
		t.Fatalf("partial final line failed instead of degrading: %v", err)
	}
	l := in.Ledger
	if l == nil || len(l.Warnings) == 0 {
		t.Fatalf("want warnings on partial final line, got %+v", l)
	}
	if len(l.Runs) != 1 || l.Runs[0].Meta.Policy != "fixed(0)" {
		t.Fatalf("complete prefix wrong: %d runs", len(l.Runs))
	}
}

// midFileGarbageLedger is a complete one-run ledger whose run line (not the
// last line) is cut in half.
func midFileGarbageLedger(tb testing.TB) string {
	tb.Helper()
	var b strings.Builder
	if err := EncodeHeader(&b, ""); err != nil {
		tb.Fatal(err)
	}
	meta, evs, end := mkRun("p", KindTrace, 3, 0)
	if err := EncodeRun(&b, 1, meta, evs, end); err != nil {
		tb.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(b.String(), "\n"), "\n")
	lines[1] = lines[1][:len(lines[1])/2]
	return strings.Join(lines, "\n") + "\n"
}

// TestParseLedgerMidFileGarbageStillFails: damage followed by intact lines
// is corruption, not truncation — the parser must refuse.
func TestParseLedgerMidFileGarbageStillFails(t *testing.T) {
	if _, err := ParseLedger(strings.NewReader(midFileGarbageLedger(t))); err == nil {
		t.Fatal("mid-file garbage accepted")
	}
}

// TestCaptureSummarize: the in-memory sink reduces runs to the same
// summaries Report builds from a ledger round-trip.
func TestCaptureSummarize(t *testing.T) {
	sink := NewCapture()
	c := NewCollector(sink)
	m, e, d := mkRun("adaptive", KindRace, 30, 2)
	c.PublishRun(m, e, d)
	got := sink.Summaries()
	if len(got) != 1 {
		t.Fatalf("%d summaries", len(got))
	}
	s := got[0]
	if s.Meta.Policy != "adaptive" || s.End != d {
		t.Fatalf("summary mismatch: %+v", s)
	}
	var wantMax float64
	res := map[int]int64{}
	for _, ev := range e {
		res[ev.Config]++
		if ev.RegretNS > wantMax {
			wantMax = ev.RegretNS
		}
	}
	if s.MaxRegretNS != wantMax {
		t.Errorf("MaxRegretNS %v, want %v", s.MaxRegretNS, wantMax)
	}
	for cfg, n := range res {
		if s.Residency[cfg] != n {
			t.Errorf("residency[%d] = %d, want %d", cfg, s.Residency[cfg], n)
		}
		if s.SizeOf[cfg] != m.Sizes[cfg] {
			t.Errorf("sizeOf[%d] = %d, want %d", cfg, s.SizeOf[cfg], m.Sizes[cfg])
		}
	}
}

// TestSortRunSummariesTotalOrder: any input permutation sorts to the same
// sequence — the property byte-identical renders at any worker count rest
// on.
func TestSortRunSummariesTotalOrder(t *testing.T) {
	mk := func(app, policy, kind string, pen int, regret float64) RunSummary {
		return RunSummary{
			Meta: RunMeta{App: app, Policy: policy, Kind: kind, Penalty: pen},
			End:  RunEnd{Intervals: 10, CumRegretNS: regret},
		}
	}
	base := []RunSummary{
		mk("a", "oracle", KindOracle, 0, 0),
		mk("a", "oracle", KindOracle, 50, 0),
		mk("a", "fixed(0)", KindFixed, 0, 5),
		mk("a", "pid-tpi", KindRace, 0, 5),
		mk("b", "oracle", KindOracle, 0, 0),
	}
	perm := []RunSummary{base[3], base[4], base[0], base[2], base[1]}
	SortRunSummaries(base)
	SortRunSummaries(perm)
	for i := range base {
		if SummaryKey(base[i]) != SummaryKey(perm[i]) {
			t.Fatalf("row %d differs across permutations: %+v vs %+v", i, base[i], perm[i])
		}
	}
	// Ties on regret resolve by penalty, then kind sorts race after fixed.
	if base[0].Meta.Penalty != 0 || base[1].Meta.Penalty != 50 {
		t.Errorf("oracle penalty tie-break wrong: %+v", base[:2])
	}
	if base[2].Meta.Kind != KindFixed || base[3].Meta.Kind != KindRace {
		t.Errorf("kind tie-break wrong: %+v", base[2:4])
	}
}

// FuzzParseLedger feeds arbitrary bytes to the -report path three ways: to
// ParseLedger as plain text, through ReadReportInput as a file (gzip seeds
// take the decompressing branch), and gzip-compressed through
// ReadReportInput. Each leg must return an error or a ledger whose Report
// renders; none may panic.
func FuzzParseLedger(f *testing.F) {
	f.Add([]byte(truncatedLedger(f)))
	f.Add(truncatedGzLedger(f))
	f.Add([]byte(midFileGarbageLedger(f)))
	f.Fuzz(func(t *testing.T, raw []byte) {
		report := func(in ReportInput) {
			if out := Report([]ReportInput{in}); !strings.HasPrefix(out, "capsim flight report") {
				t.Fatalf("report lacks its header:\n%s", out)
			}
		}
		if l, err := ParseLedger(bytes.NewReader(raw)); err == nil {
			report(ReportInput{Path: "plain", Ledger: &l})
		}
		var gz bytes.Buffer
		zw := gzip.NewWriter(&gz)
		zw.Write(raw)
		zw.Close()
		dir := t.TempDir()
		for name, data := range map[string][]byte{"raw": raw, "gz": gz.Bytes()} {
			p := filepath.Join(dir, name)
			if err := os.WriteFile(p, data, 0o644); err != nil {
				t.Fatal(err)
			}
			if in, err := ReadReportInput(p); err == nil {
				report(in)
			}
		}
	})
}
