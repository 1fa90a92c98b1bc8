package flight

import (
	"context"
	"fmt"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"capsim/internal/obs"
)

// mkRun builds a valid synthetic run column: per-interval cycles around a
// base, a penalty charged on each config change, and all derived fields
// computed by the same replay order CheckRun verifies.
func mkRun(policy, kind string, intervals int, penNS float64) (RunMeta, []Event, RunEnd) {
	meta := RunMeta{App: "synap", Seed: 7, Sizes: []int{16, 64}, N: 100, Penalty: 10, Policy: policy, Kind: kind}
	if kind == KindOracle {
		penNS = 0 // the oracle switches free of charge
	}
	var (
		timeNS   float64
		regretNS float64
		instrs   int64
		switches int64
	)
	evs := make([]Event, intervals)
	cur := 0
	for iv := 0; iv < intervals; iv++ {
		cfg := (iv / 3) % 2
		var pen float64
		switched := false
		if cfg != cur {
			pen = penNS
			switched = true
			switches++
			cur = cfg
		}
		cycles := int64(100 + iv%5)
		period := 0.5 + 0.25*float64(cfg)
		adv := float64(cycles) * period
		oracle := adv // synthetic oracle tracks the column's own advance
		if kind != KindOracle {
			oracle = adv - float64(iv%3) // regret = pen + iv%3
		}
		timeNS += 0
		timeNS += pen
		timeNS += adv
		tot := 0 + pen + adv
		regret := tot - oracle
		regretNS += regret
		issued := int64(100)
		instrs += issued
		evs[iv] = Event{
			Interval:    int64(iv),
			Config:      cfg,
			Size:        meta.Sizes[cfg],
			Cycles:      cycles,
			Issued:      issued,
			PeriodNS:    period,
			PenaltyNS:   pen,
			AdvNS:       adv,
			CumTimeNS:   timeNS,
			TPI:         adv / float64(issued),
			OracleCfg:   cfg,
			OracleNS:    oracle,
			RegretNS:    regret,
			CumRegretNS: regretNS,
			Switched:    switched,
		}
	}
	end := RunEnd{
		Intervals:   int64(intervals),
		Instrs:      instrs,
		TimeNS:      timeNS,
		TPI:         timeNS / float64(instrs),
		Switches:    switches,
		CumRegretNS: regretNS,
	}
	return meta, evs, end
}

func TestCheckRunValid(t *testing.T) {
	for _, kind := range []string{KindTrace, KindOracle, KindFixed, KindRace} {
		meta, evs, end := mkRun("p", kind, 20, 3.5)
		if err := CheckRun(meta, evs, end); err != nil {
			t.Fatalf("valid %s run tripped: %v", kind, err)
		}
	}
}

// Trip test 1: cumulative regret must be monotone non-decreasing — a
// negative instantaneous regret trips the checker.
func TestCheckRunTripsNegativeRegret(t *testing.T) {
	meta, evs, end := mkRun("p", KindFixed, 10, 0)
	evs[4].RegretNS = -1
	evs[4].CumRegretNS = evs[3].CumRegretNS - 1
	if err := CheckRun(meta, evs, end); err == nil || !strings.Contains(err.Error(), "negative regret") {
		t.Fatalf("want negative-regret trip, got %v", err)
	}
}

// Trip test 2: the oracle column's regret is identically zero.
func TestCheckRunTripsOracleRegret(t *testing.T) {
	meta, evs, end := mkRun("oracle", KindOracle, 10, 0)
	evs[2].RegretNS = 0.5
	// Keep the running sum self-consistent so the zero-regret invariant is
	// what trips, not the sum replay.
	for iv := 2; iv < len(evs); iv++ {
		evs[iv].CumRegretNS += 0.5
	}
	end.CumRegretNS += 0.5
	if err := CheckRun(meta, evs, end); err == nil || !strings.Contains(err.Error(), "oracle") {
		t.Fatalf("want oracle-regret trip, got %v", err)
	}
}

// Trip test 3: per-interval cycles × period must reproduce the run's total
// time — corrupting one advance breaks both the per-event product check and
// the end-time replay.
func TestCheckRunTripsTimeSum(t *testing.T) {
	meta, evs, end := mkRun("p", KindTrace, 10, 0)
	evs[7].AdvNS += 1
	if err := CheckRun(meta, evs, end); err == nil || !strings.Contains(err.Error(), "cycles×period") {
		t.Fatalf("want cycles×period trip, got %v", err)
	}
	meta, evs, end = mkRun("p", KindTrace, 10, 0)
	end.TimeNS += 1
	if err := CheckRun(meta, evs, end); err == nil || !strings.Contains(err.Error(), "end time_ns") {
		t.Fatalf("want end-time trip, got %v", err)
	}
}

func TestCheckRunTripsSequenceAndTotals(t *testing.T) {
	meta, evs, end := mkRun("p", KindRace, 10, 2)
	evs[5].Interval = 9
	if err := CheckRun(meta, evs, end); err == nil {
		t.Fatal("want interval-sequence trip")
	}
	meta, evs, end = mkRun("p", KindRace, 10, 2)
	end.Switches++
	if err := CheckRun(meta, evs, end); err == nil {
		t.Fatal("want switches trip")
	}
	meta, evs, end = mkRun("p", KindRace, 10, 2)
	end.Instrs--
	if err := CheckRun(meta, evs, end); err == nil {
		t.Fatal("want instrs trip")
	}
}

// PublishRun under -obs-assert funnels a corrupt run into obs.Fail (panic).
func TestCollectorAssertTrips(t *testing.T) {
	obs.SetAssert(true)
	defer obs.SetAssert(false)
	meta, evs, end := mkRun("p", KindFixed, 5, 0)
	end.TimeNS++
	c := NewCollector(&memSink{})
	defer func() {
		if recover() == nil {
			t.Fatal("want obs.Fail panic")
		}
	}()
	c.PublishRun(meta, evs, end)
}

// memSink accumulates runs in memory.
type memSink struct {
	mu    sync.Mutex
	runs  []int64
	metas []RunMeta
	evs   [][]Event
	ends  []RunEnd
	progs []Progress
	err   error
}

func (s *memSink) WriteRun(run int64, meta RunMeta, events []Event, end RunEnd) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return s.err
	}
	s.runs = append(s.runs, run)
	s.metas = append(s.metas, meta)
	s.evs = append(s.evs, append([]Event(nil), events...))
	s.ends = append(s.ends, end)
	return nil
}

func (s *memSink) WriteProgress(p Progress) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return s.err
	}
	s.progs = append(s.progs, p)
	return nil
}

func TestPublishFanOut(t *testing.T) {
	procSink, ctxSink := &memSink{}, &memSink{}
	SetCollector(NewCollector(procSink))
	defer SetCollector(nil)
	ctx := WithCollector(context.Background(), NewCollector(ctxSink))

	if !Active(ctx) || !Active(context.Background()) {
		t.Fatal("collectors installed but Active is false")
	}
	meta, evs, end := mkRun("p", KindTrace, 5, 0)
	Publish(ctx, meta, evs, end)
	PublishProgress(ctx, Progress{Done: 1, Total: 2})
	if len(procSink.runs) != 1 || len(ctxSink.runs) != 1 {
		t.Fatalf("fan-out missed: proc=%d ctx=%d", len(procSink.runs), len(ctxSink.runs))
	}
	if len(procSink.progs) != 1 || len(ctxSink.progs) != 1 {
		t.Fatal("progress fan-out missed")
	}

	SetCollector(nil)
	if Active(context.Background()) {
		t.Fatal("Active true with no collectors")
	}
}

func TestCollectorSinkErrorGoesQuiet(t *testing.T) {
	s := &memSink{err: fmt.Errorf("disk full")}
	c := NewCollector(s)
	meta, evs, end := mkRun("p", KindTrace, 3, 0)
	c.PublishRun(meta, evs, end)
	c.PublishRun(meta, evs, end)
	if c.Err() == nil {
		t.Fatal("sink error not surfaced")
	}
	if len(s.runs) != 0 {
		t.Fatal("runs recorded despite sink error")
	}
}

// Concurrent publication through one collector must be race-free and assign
// unique run ids (the ci-race lane exercises this under -race).
func TestCollectorConcurrentPublish(t *testing.T) {
	s := &memSink{}
	c := NewCollector(s)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			meta, evs, end := mkRun("p", KindTrace, 4, 0)
			for i := 0; i < 25; i++ {
				c.PublishRun(meta, evs, end)
			}
		}()
	}
	wg.Wait()
	if len(s.runs) != 200 {
		t.Fatalf("got %d runs, want 200", len(s.runs))
	}
	seen := map[int64]bool{}
	for _, id := range s.runs {
		if seen[id] {
			t.Fatalf("duplicate run id %d", id)
		}
		seen[id] = true
	}
}

func TestLedgerRoundTrip(t *testing.T) {
	for _, name := range []string{"run.ndjson", "run.ndjson.gz"} {
		path := filepath.Join(t.TempDir(), name)
		lw, err := CreateLedger(path)
		if err != nil {
			t.Fatal(err)
		}
		c := NewCollector(lw)
		m1, e1, d1 := mkRun("fixed(0)", KindFixed, 12, 0)
		m2, e2, d2 := mkRun("oracle", KindOracle, 12, 0)
		c.PublishRun(m1, e1, d1)
		c.PublishRun(m2, e2, d2)
		c.PublishProgress(Progress{Done: 1, Total: 2}) // file sink drops these
		if err := lw.Close(); err != nil {
			t.Fatal(err)
		}

		l, err := ReadLedger(path)
		if err != nil {
			t.Fatal(err)
		}
		if l.Schema != Schema {
			t.Fatalf("schema %q", l.Schema)
		}
		if len(l.Runs) != 2 {
			t.Fatalf("%s: got %d runs, want 2", name, len(l.Runs))
		}
		if !reflect.DeepEqual(l.Runs[0].Meta, m1) || l.Runs[1].Meta.Policy != "oracle" {
			t.Fatalf("%s: meta mismatch: %+v", name, l.Runs[0].Meta)
		}
		if len(l.Runs[0].Events) != 12 || l.Runs[0].End != d1 || l.Runs[1].End != d2 {
			t.Fatalf("%s: run payload mismatch", name)
		}
		// Everything that came back must still satisfy the invariants.
		for _, r := range l.Runs {
			if err := CheckRun(r.Meta, r.Events, r.End); err != nil {
				t.Fatalf("%s: round-tripped run trips: %v", name, err)
			}
		}
	}
}

// truncatedLedger is a plain ledger cut mid-run: header, run line and
// events, but no end line.
func truncatedLedger(tb testing.TB) string {
	tb.Helper()
	var b strings.Builder
	if err := EncodeHeader(&b, ""); err != nil {
		tb.Fatal(err)
	}
	meta, evs, _ := mkRun("p", KindTrace, 3, 0)
	if err := EncodeRun(&b, 1, meta, evs, RunEnd{}); err != nil {
		tb.Fatal(err)
	}
	cut := b.String()
	return cut[:strings.LastIndex(strings.TrimRight(cut, "\n"), "\n")+1]
}

func TestParseLedgerTruncated(t *testing.T) {
	l, err := ParseLedger(strings.NewReader(truncatedLedger(t)))
	if err != nil {
		t.Fatalf("mid-run cut must degrade to a warning, got error: %v", err)
	}
	if len(l.Runs) != 0 {
		t.Fatalf("endless run kept: %d runs", len(l.Runs))
	}
	if len(l.Warnings) == 0 || !strings.Contains(l.Warnings[0], "no end line") {
		t.Fatalf("want no-end-line warning, got %v", l.Warnings)
	}
}

func TestParseLedgerRejectsGarbage(t *testing.T) {
	if _, err := ParseLedger(strings.NewReader("{\"t\":\"iv\",\"run\":1}\n")); err == nil {
		t.Fatal("want error for event before run line")
	}
	if _, err := ParseLedger(strings.NewReader("not json\n")); err == nil {
		t.Fatal("want error for non-JSON input")
	}
	if _, err := ParseLedger(strings.NewReader("{\"t\":\"other\"}\n")); err == nil {
		t.Fatal("want error for missing header")
	}
}

// TestSequenceListOrder: runs published under later sections wait for the
// head; Done releases them in section order, and a collector installed
// inside a section receives its runs at once.
func TestSequenceListOrder(t *testing.T) {
	procSink, outerSink, innerSink := &memSink{}, &memSink{}, &memSink{}
	SetCollector(NewCollector(procSink))
	defer SetCollector(nil)
	base := WithCollector(context.Background(), NewCollector(outerSink))
	q := NewSequence()
	sec := func(i int) context.Context { return q.Section(base, i) }
	pub := func(ctx context.Context, app string) { Publish(ctx, RunMeta{App: app}, nil, RunEnd{}) }
	apps := func(s *memSink) string {
		s.mu.Lock()
		defer s.mu.Unlock()
		var out []string
		for _, m := range s.metas {
			out = append(out, m.App)
		}
		return strings.Join(out, ",")
	}

	pub(sec(2), "c1")
	pub(sec(1), "b1")
	inner := WithCollector(sec(1), NewCollector(innerSink))
	pub(inner, "b2")
	pub(sec(0), "a1")
	if got := apps(procSink); got != "a1" {
		t.Fatalf("before Done: process collector saw %q, want only the head's run", got)
	}
	if got := apps(innerSink); got != "b2" {
		t.Fatalf("inner collector saw %q, want its run at once", got)
	}
	q.Done(0)
	pub(sec(1), "b3")
	q.Done(1)
	q.Done(2)
	pub(sec(3), "d1")
	if got, want := apps(procSink), "a1,b1,b2,b3,c1,d1"; got != want {
		t.Fatalf("process collector order %q, want %q", got, want)
	}
	if got, want := apps(outerSink), "a1,b1,b3,c1,d1"; got != want {
		t.Fatalf("outer collector order %q, want %q (the inner one replaced it for b2)", got, want)
	}
}
