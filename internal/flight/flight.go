// Package flight is capsim's adaptation flight recorder: a structured,
// per-interval decision ledger for the Section 6 interval engines. Where
// internal/obs answers "how much work did the process do", flight answers
// "what did the adaptation manager decide at interval 812, what did the
// decision cost, and how far did it trail the oracle" — one event per
// (run, policy column, interval), with exact clock/penalty accounting and
// regret bookkeeping against the per-interval oracle column.
//
// The recorder follows the internal/obs publication contract (DESIGN.md,
// "Observability"):
//
//   - Zero overhead when disabled. The whole package sits behind collector
//     pointers (one process-wide atomic, one context key). The engines check
//     Active(ctx) ONCE per run — never per interval — and only assemble
//     events when a collector is installed. A run without -ledger-out and
//     without a streaming request pays one atomic load and one ctx.Value per
//     policy run.
//   - Plain tallies on hot paths, publication at coarse boundaries. Engines
//     append events to a private slice while simulating and publish the whole
//     run column in one PublishRun call at the end, so concurrent sweep
//     workers never contend mid-run and every run's lines are contiguous in
//     the ledger.
//   - Byte-identical renders ledger-on/off. No simulated value ever depends
//     on recorder state; the events are stamped FROM the exact accumulators
//     the engines already maintain (the same float operation order), which is
//     what makes the ledger invariants in check.go exact rather than
//     approximate.
//
// The persisted artifact is versioned NDJSON (`capsim/ledger/v1`, one JSON
// object per line, gzip when the path ends ".gz"): a header line, then per
// run a "run" metadata line, its "iv" interval events, and an "end" summary.
// `capsim -report` (report.go) turns ledgers back into regret summaries,
// switch/dwell tables and a policy league table; the experiment API server
// streams the same lines live over POST /v1/run {"stream":true}.
package flight

import (
	"bufio"
	"compress/gzip"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"capsim/internal/obs"
)

// Schema versions the ledger artifact. Bump on breaking shape changes (same
// convention as obs.ManifestSchema and server.ResponseSchema).
const Schema = "capsim/ledger/v1"

// Telemetry (internal/obs): recorder volume and failure visibility.
var (
	obsRuns    = obs.NewCounter("flight.runs")         // run columns published
	obsEvents  = obs.NewCounter("flight.events")       // interval events published
	obsDropped = obs.NewCounter("flight.dropped_runs") // runs dropped after a sink error
)

// Run kinds: how the column was produced.
const (
	// KindTrace is a fixed-configuration replay column of an interval family
	// (core.MultiPolicy.Traces) — the raw material of fig12/fig13.
	KindTrace = "trace"
	// KindOracle is the synthesized per-interval oracle column: the
	// time-minimal family column at every interval, switching free of charge.
	KindOracle = "oracle"
	// KindFixed is a fixed-policy replay run (core.MultiPolicy.RunFixed),
	// including its interval-0 transition penalty.
	KindFixed = "fixed"
	// KindRace is a live stateful-policy column of a lockstep race
	// (core.MultiPolicy.Race).
	KindRace = "race"
)

// RunMeta identifies one run column: which application/stream it consumed,
// which configuration menu it adapted over, and which policy drove it.
type RunMeta struct {
	App     string `json:"app"`
	Seed    uint64 `json:"seed"`
	Sizes   []int  `json:"sizes"`
	N       int64  `json:"n"` // instructions per interval
	Penalty int    `json:"penalty_cycles"`
	Policy  string `json:"policy"`
	Kind    string `json:"kind"`
}

// Event is one per-interval adaptation decision record. The float fields are
// stamped from the engines' own accumulators in their exact operation order,
// so the ledger invariants (CheckRun) hold with float equality, not
// tolerance:
//
//	AdvNS       = float64(Cycles) × PeriodNS
//	CumTimeNS   = running ( += DrainNS; += PenaltyNS; += AdvNS )
//	RegretNS    = DrainNS + PenaltyNS + AdvNS − OracleNS  (0 for the oracle)
//	CumRegretNS = running ( += RegretNS )
//
// OracleNS is the per-interval oracle's time for this interval: the minimum
// cycles×period over the run's interval-family columns — the time-domain
// minimum, chosen over the min-TPI oracle the drivers print, because exact
// non-negative regret needs minima in the same unit the columns accumulate
// (see DESIGN.md "Flight recorder").
type Event struct {
	Interval    int64   `json:"iv"`
	Config      int     `json:"cfg"`
	Size        int     `json:"size"` // queue entries of Config
	Cycles      int64   `json:"cycles"`
	Issued      int64   `json:"issued"`
	PeriodNS    float64 `json:"period_ns"`
	DrainCycles int64   `json:"drain_cycles,omitempty"`
	DrainNS     float64 `json:"drain_ns"`
	PenaltyNS   float64 `json:"pen_ns"`
	AdvNS       float64 `json:"adv_ns"`
	CumTimeNS   float64 `json:"cum_time_ns"`
	TPI         float64 `json:"tpi_ns"` // AdvNS / Issued, the monitor's sample
	OracleCfg   int     `json:"oracle_cfg"`
	OracleNS    float64 `json:"oracle_ns"`
	RegretNS    float64 `json:"regret_ns"`
	CumRegretNS float64 `json:"cum_regret_ns"`
	Switched    bool    `json:"switched,omitempty"`
}

// RunEnd summarizes a completed run column; its totals must reproduce the
// event stream's running sums exactly (CheckRun).
type RunEnd struct {
	Intervals   int64   `json:"intervals"`
	Instrs      int64   `json:"instrs"`
	TimeNS      float64 `json:"time_ns"`
	TPI         float64 `json:"tpi_ns"`
	Switches    int64   `json:"switches"`
	CumRegretNS float64 `json:"cum_regret_ns"`
}

// Progress is a transient sweep-progress pulse (jobs completed out of total
// in the currently executing sweep pass). Streaming sinks forward it so a
// live client sees movement between run publications; the file sink drops it
// — the persisted ledger records decisions, not liveness.
type Progress struct {
	Done  int    `json:"done"`
	Total int    `json:"total"`
	Label string `json:"label,omitempty"`
}

// Sink consumes recorder output. WriteRun receives one complete run column
// atomically (the collector serializes calls); WriteProgress receives
// transient pulses and may ignore them.
type Sink interface {
	WriteRun(run int64, meta RunMeta, events []Event, end RunEnd) error
	WriteProgress(p Progress) error
}

// Collector assigns run ids and serializes publication into a Sink. A
// collector is installed process-wide (SetCollector, the CLI's -ledger-out)
// or per-context (WithCollector, the server's streaming requests); engines
// publish through the package-level Publish*, which fans out to both.
type Collector struct {
	mu   sync.Mutex
	sink Sink
	seq  int64
	err  error
}

// NewCollector wraps sink in a collector.
func NewCollector(sink Sink) *Collector { return &Collector{sink: sink} }

// PublishRun validates (under -obs-assert) and writes one complete run
// column. After the first sink error the collector goes quiet and drops
// subsequent runs — a dead client or full disk must not fail the simulation;
// Err surfaces the failure to whoever owns the sink.
func (c *Collector) PublishRun(meta RunMeta, events []Event, end RunEnd) {
	if obs.AssertEnabled() {
		if err := CheckRun(meta, events, end); err != nil {
			obs.Fail(err)
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err != nil {
		obsDropped.Inc1()
		return
	}
	c.seq++
	if err := c.sink.WriteRun(c.seq, meta, events, end); err != nil {
		c.err = err
		obsDropped.Inc1()
		return
	}
	obsRuns.Inc1()
	obsEvents.Add1(int64(len(events)))
}

// PublishProgress forwards a progress pulse; errors are terminal like
// PublishRun's.
func (c *Collector) PublishProgress(p Progress) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err != nil {
		return
	}
	if err := c.sink.WriteProgress(p); err != nil {
		c.err = err
	}
}

// Err returns the first sink error, if any.
func (c *Collector) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

// --- installation ----------------------------------------------------------

// proc is the process-wide collector (-ledger-out), nil when disabled.
var proc atomic.Pointer[Collector]

// SetCollector installs (or, with nil, removes) the process-wide collector.
func SetCollector(c *Collector) { proc.Store(c) }

// ctxKey carries a per-context collector (streaming requests).
type ctxKey struct{}

// WithCollector returns a context whose Publish* calls also reach c. The
// experiment API server installs one per streaming request, so concurrent
// requests record into their own streams without racing a process global.
func WithCollector(ctx context.Context, c *Collector) context.Context {
	return context.WithValue(ctx, ctxKey{}, c)
}

// fromCtx returns the context-scoped collector, or nil.
func fromCtx(ctx context.Context) *Collector {
	c, _ := ctx.Value(ctxKey{}).(*Collector)
	return c
}

// Active reports whether any collector would receive a publication under
// ctx. Engines call it once per run and skip all event assembly when false —
// this check IS the zero-overhead-when-disabled gate.
func Active(ctx context.Context) bool {
	return proc.Load() != nil || fromCtx(ctx) != nil
}

// Publish fans one complete run column out to the process-wide and
// context-scoped collectors (each assigns its own run id). The events slice
// is handed off to the sinks (which may retain it for deferred encoding) and
// must never be mutated afterward; engines satisfy this for free by
// publishing a freshly built private slice and dropping their reference.
func Publish(ctx context.Context, meta RunMeta, events []Event, end RunEnd) {
	c := fromCtx(ctx)
	if s, ok := ctx.Value(seqKey{}).(seqSection); ok {
		if c != nil && c != s.outer {
			// A collector installed inside the section (the zoo's own
			// league sink) replaces the outer one and sees its runs at
			// once; only the process-wide collector waits for the head.
			c.PublishRun(meta, events, end)
			c = nil
		}
		s.q.publish(s.sec, heldRun{c, meta, events, end})
		return
	}
	deliver(c, meta, events, end)
}

// deliver publishes to the process-wide collector and c (if any).
func deliver(c *Collector, meta RunMeta, events []Event, end RunEnd) {
	if p := proc.Load(); p != nil {
		p.PublishRun(meta, events, end)
	}
	if c != nil {
		c.PublishRun(meta, events, end)
	}
}

// Sequence keeps a list run's ledger in list order. Experiments of one
// `capsim -experiment a,b,c` run are computed concurrently, but a run
// published under section i (Section) reaches the collectors the section
// was opened under — the process-wide one and the context's — only after
// every run of the sections before it: runs of a section that is not yet
// the head are held until Done moves the head to it. Within a section,
// runs keep publication order, as they always have at parallel > 1. A
// collector installed inside a section replaces the context's, as
// WithCollector always does, and receives its runs at once.
type Sequence struct {
	mu   sync.Mutex
	head int
	held map[int][]heldRun
}

// heldRun is one run column waiting for its section to become the head,
// with the context collector it goes to.
type heldRun struct {
	c      *Collector
	meta   RunMeta
	events []Event
	end    RunEnd
}

// NewSequence returns a sequence whose head is section 0.
func NewSequence() *Sequence { return &Sequence{held: map[int][]heldRun{}} }

// seqKey carries a run's sequence and section.
type seqKey struct{}

type seqSection struct {
	q     *Sequence
	sec   int
	outer *Collector // the context collector when the section opened
}

// Section returns a context whose publications belong to section i of q.
func (q *Sequence) Section(ctx context.Context, i int) context.Context {
	return context.WithValue(ctx, seqKey{}, seqSection{q, i, fromCtx(ctx)})
}

// publish delivers r now if its section is the head (or before it), and
// holds it otherwise.
func (q *Sequence) publish(sec int, r heldRun) {
	q.mu.Lock()
	if sec > q.head {
		q.held[sec] = append(q.held[sec], r)
		q.mu.Unlock()
		return
	}
	q.mu.Unlock()
	deliver(r.c, r.meta, r.events, r.end)
}

// Done marks section i — the head — complete, makes section i+1 the head
// and publishes the runs it held. Call it once per section, in order.
func (q *Sequence) Done(i int) {
	q.mu.Lock()
	if i != q.head {
		q.mu.Unlock()
		panic(fmt.Sprintf("flight: sequence section %d done while the head is %d", i, q.head))
	}
	q.head++
	runs := q.held[q.head]
	delete(q.held, q.head)
	q.mu.Unlock()
	for _, r := range runs {
		deliver(r.c, r.meta, r.events, r.end)
	}
}

// PublishProgress fans a sweep-progress pulse out to the active collectors.
func PublishProgress(ctx context.Context, p Progress) {
	if c := proc.Load(); c != nil {
		c.PublishProgress(p)
	}
	if c := fromCtx(ctx); c != nil {
		c.PublishProgress(p)
	}
}

// --- NDJSON line shapes ----------------------------------------------------

// Line discriminators ("t" field) of the NDJSON stream.
const (
	LineHeader   = "ledger"
	LineRun      = "run"
	LineEvent    = "iv"
	LineEnd      = "end"
	LineProgress = "progress"
)

type headerLine struct {
	T         string `json:"t"`
	Schema    string `json:"schema"`
	Generated string `json:"generated,omitempty"`
}

type runLine struct {
	T   string `json:"t"`
	Run int64  `json:"run"`
	RunMeta
}

type eventLine struct {
	T   string `json:"t"`
	Run int64  `json:"run"`
	Event
}

type endLine struct {
	T   string `json:"t"`
	Run int64  `json:"run"`
	RunEnd
}

type progressLine struct {
	T string `json:"t"`
	Progress
}

// EncodeRun writes one run column in ledger line format to w: the "run"
// metadata line, one "iv" line per event, and the "end" summary. Shared by
// the file sink and the server's streaming sink so both emit identical
// bytes.
func EncodeRun(w io.Writer, run int64, meta RunMeta, events []Event, end RunEnd) error {
	enc := json.NewEncoder(w)
	if err := enc.Encode(runLine{T: LineRun, Run: run, RunMeta: meta}); err != nil {
		return err
	}
	for _, ev := range events {
		if err := enc.Encode(eventLine{T: LineEvent, Run: run, Event: ev}); err != nil {
			return err
		}
	}
	return enc.Encode(endLine{T: LineEnd, Run: run, RunEnd: end})
}

// EncodeProgress writes one progress pulse in ledger line format.
func EncodeProgress(w io.Writer, p Progress) error {
	return json.NewEncoder(w).Encode(progressLine{T: LineProgress, Progress: p})
}

// EncodeHeader writes the versioned header line.
func EncodeHeader(w io.Writer, generated string) error {
	return json.NewEncoder(w).Encode(headerLine{T: LineHeader, Schema: Schema, Generated: generated})
}

// --- file sink -------------------------------------------------------------

// LedgerWriter is the persistent NDJSON sink behind `capsim -ledger-out`:
// buffered, optionally gzipped (path ends ".gz"), header-first. WriteRun
// only enqueues; a single background goroutine does the JSON encoding and
// compression, so recording adds queue-handoff cost — not encode+gzip cost —
// to the simulated run's wall time. Run columns are written in publication
// order (one channel, one consumer), which keeps the on-disk ledger
// byte-identical to what a synchronous writer would produce.
type LedgerWriter struct {
	f    *os.File
	gz   *gzip.Writer
	bw   *bufio.Writer
	dst  io.Writer
	ch   chan ledgerRec
	done chan struct{}
	werr atomic.Pointer[error] // first encode error, set by the write loop
}

// ledgerRec is one queued run column awaiting encoding.
type ledgerRec struct {
	run    int64
	meta   RunMeta
	events []Event
	end    RunEnd
}

// CreateLedger creates (truncates) the ledger file at path, writes the
// schema header, and starts the background write loop. Close (exactly once)
// drains the queue, flushes and closes every layer.
func CreateLedger(path string) (*LedgerWriter, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	l := &LedgerWriter{f: f, bw: bufio.NewWriterSize(f, 1<<16)}
	l.dst = l.bw
	if strings.HasSuffix(path, ".gz") {
		// BestSpeed: the ledger is NDJSON with heavily repeated keys, so even
		// the fastest level compresses ~10x; deeper levels only add CPU to
		// the recording run's wall time.
		l.gz, _ = gzip.NewWriterLevel(l.bw, gzip.BestSpeed)
		l.dst = l.gz
	}
	if err := EncodeHeader(l.dst, time.Now().UTC().Format(time.RFC3339)); err != nil {
		f.Close()
		return nil, err
	}
	l.ch = make(chan ledgerRec, 64)
	l.done = make(chan struct{})
	go l.writeLoop()
	return l, nil
}

// writeLoop drains the queue on a dedicated goroutine. After the first
// encode error it keeps draining (so producers never block on a dead sink)
// but stops writing; the error surfaces through WriteRun and Close.
func (l *LedgerWriter) writeLoop() {
	defer close(l.done)
	for rec := range l.ch {
		if l.werr.Load() != nil {
			continue
		}
		if err := EncodeRun(l.dst, rec.run, rec.meta, rec.events, rec.end); err != nil {
			l.werr.Store(&err)
		}
	}
}

// WriteRun implements Sink: it enqueues the run column for the write loop,
// blocking only when the queue is full (backpressure, not loss). The events
// slice is retained until encoded and must not be mutated by the caller.
func (l *LedgerWriter) WriteRun(run int64, meta RunMeta, events []Event, end RunEnd) error {
	if ep := l.werr.Load(); ep != nil {
		return *ep
	}
	l.ch <- ledgerRec{run: run, meta: meta, events: events, end: end}
	return nil
}

// WriteProgress implements Sink: the persisted ledger records decisions, not
// liveness — progress pulses are dropped.
func (l *LedgerWriter) WriteProgress(Progress) error { return nil }

// Close drains the write queue, flushes the gzip and buffer layers and
// closes the file, reporting the first error (including deferred encode
// errors) so a truncated ledger is visible instead of shipping silently.
func (l *LedgerWriter) Close() error {
	close(l.ch)
	<-l.done
	var first error
	if ep := l.werr.Load(); ep != nil {
		first = *ep
	}
	if l.gz != nil {
		if err := l.gz.Close(); err != nil && first == nil {
			first = err
		}
	}
	if err := l.bw.Flush(); err != nil && first == nil {
		first = err
	}
	if err := l.f.Close(); err != nil && first == nil {
		first = err
	}
	return first
}

// openLedgerReader opens path for reading, transparently ungzipping by
// content (magic bytes, not extension — a renamed ledger still reads).
func openLedgerReader(path string) (io.ReadCloser, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	br := bufio.NewReaderSize(f, 1<<16)
	magic, err := br.Peek(2)
	if err == nil && len(magic) == 2 && magic[0] == 0x1f && magic[1] == 0x8b {
		gz, err := gzip.NewReader(br)
		if err != nil {
			f.Close()
			return nil, fmt.Errorf("flight: %s: %w", path, err)
		}
		return struct {
			io.Reader
			io.Closer
		}{gz, f}, nil
	}
	return struct {
		io.Reader
		io.Closer
	}{br, f}, nil
}
