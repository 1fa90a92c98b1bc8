package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"

	"capsim/internal/obs"
)

// metricDef names one reported metric.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// e2eMetrics are the end-to-end metrics every workload reports with
// --trace 0. Each is defined on every workload (see README.md):
//   - setup_s: median of the run's set-up repetitions;
//   - wall_s: median host wall of one pass of the workload — the fresh
//     simulating process (cold workloads) or one seeded walk of all 18 ids
//     through the API by both clients (api-warm);
//   - report_s: median host wall of the fresh process that reads the pass's
//     persisted output back — capsim -report over the ledger
//     (interval-cold), a warm re-render from the study cache (process-cold,
//     api-warm);
//   - peak_rss_mb: maximum resident set of the simulating process (the
//     benchmark process itself on api-warm, which hosts the server).
var e2eMetrics = []metricDef{
	{"setup_s", "s", "lower"},
	{"wall_s", "s", "lower"},
	{"report_s", "s", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

// summaryOnly are printed by name and unit where a workload defines them,
// but are not result-line metrics: the request metrics exist only on
// api-warm, and error_frac is 0 on a correct tree (the result line's
// attempted and failed carry it).
var summaryOnly = []metricDef{
	{"req_p50_ms", "ms", "lower"},
	{"req_p99_ms", "ms", "lower"},
	{"req_per_s", "1/s", "higher"},
	{"error_frac", "ratio", "lower"},
}

// trackedExperiments get per-experiment wall and allocation metrics: the
// heaviest ids of each cold workload.
var trackedExperiments = []string{
	"fig7", "fig10", "ablation-combined", "ablation-increment",
	"zoo", "ablation-interval", "ablation-switch",
}

// layerMetrics are the per-layer metrics every workload reports with
// --trace 1. A layer the workload does not exercise reports 0.
var layerMetrics = func() []metricDef {
	var ms []metricDef
	for _, l := range Layers {
		ms = append(ms, metricDef{l + ".self_s", "s", "lower"})
	}
	ms = append(ms,
		metricDef{"profile.total_s", "s", "lower"},
		metricDef{"trace.gen_s", "s", "lower"},
		metricDef{"trace.mb", "MB", "lower"},
		metricDef{"trace.ratio", "ratio", "lower"},
		metricDef{"trace.chunks", "count", "lower"},
		metricDef{"classify.gen_s", "s", "lower"},
		metricDef{"classify.kb", "KB", "lower"},
		metricDef{"classify.replays", "count", "lower"},
		metricDef{"cache.refs", "count", "lower"},
		metricDef{"cache.fast_frac", "ratio", "higher"},
		metricDef{"cache.ns_per_ref", "ns", "lower"},
		metricDef{"ooo.instrs", "count", "lower"},
		metricDef{"ooo.cycles", "count", "lower"},
		metricDef{"ooo.ns_per_instr", "ns", "lower"},
		metricDef{"ooo.idle_skip_frac", "ratio", "higher"},
		metricDef{"ooo.far_frac", "ratio", "lower"},
		metricDef{"core.race_s", "s", "lower"},
		metricDef{"core.oracle_s", "s", "lower"},
		metricDef{"core.policy_cells", "count", "lower"},
		metricDef{"core.combined_s", "s", "lower"},
		metricDef{"flight.events", "count", "lower"},
		metricDef{"flight.ledger_mb", "MB", "lower"},
		metricDef{"flight.write_s", "s", "lower"},
		metricDef{"flight.parse_s", "s", "lower"},
		metricDef{"memo.read_s", "s", "lower"},
		metricDef{"memo.write_s", "s", "lower"},
		metricDef{"memo.persist_hits", "count", "higher"},
		metricDef{"memo.persist_writes", "count", "lower"},
		metricDef{"memo.persist_misses", "count", "lower"},
		metricDef{"memo.wait_s", "s", "lower"},
		metricDef{"memo.store_mb", "MB", "lower"},
		metricDef{"sweep.jobs", "count", "lower"},
		metricDef{"sweep.busy_s", "s", "lower"},
		metricDef{"sweep.util", "ratio", "higher"},
	)
	for _, id := range trackedExperiments {
		ms = append(ms,
			metricDef{"experiments." + id + ".wall_s", "s", "lower"},
			metricDef{"experiments." + id + ".alloc_mb", "MB", "lower"})
	}
	ms = append(ms,
		metricDef{"metrics.render_s", "s", "lower"},
		metricDef{"server.p50_ms", "ms", "lower"},
		metricDef{"server.p99_ms", "ms", "lower"},
		metricDef{"server.encode_s", "s", "lower"},
		metricDef{"server.cache_hits", "count", "higher"},
		metricDef{"server.rejected", "count", "lower"},
		metricDef{"runtime.alloc_mb", "MB", "lower"},
		metricDef{"runtime.gc_frac", "ratio", "lower"},
		metricDef{"bench.trace_overhead_frac", "ratio", "lower"},
	)
	return ms
}()

// traced is what one traced run measured, from outside the program: the
// obs counter snapshot, per-experiment records (cold workloads), the CPU
// profile, and the benchmark's own measurements.
type traced struct {
	snap        obs.Snapshot
	experiments []obs.ExperimentRecord
	prof        *Profile
	mainLayer   string  // layer of package main's frames in prof
	wallS       float64 // traced wall of the measured program
	allocMB     float64
	ledgerMB    float64
	storeMB     float64
	parseS      float64
	overhead    float64 // traced wall over the untraced median, minus one
}

// layerValues computes every layerMetrics value from one traced run.
func layerValues(t traced) map[string]float64 {
	c := func(name string) float64 { return float64(t.snap.Counters[name]) }
	g := func(name string) float64 { return float64(t.snap.Gauges[name]) }
	histS := func(name string) float64 { return float64(t.snap.Histograms[name].Sum) / 1e9 }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	m := map[string]float64{}
	self := t.prof.SelfSeconds(t.mainLayer)
	for l, s := range self {
		m[l+".self_s"] = s
	}
	m["profile.total_s"] = float64(t.prof.TotalNS()) / 1e9

	m["trace.gen_s"] = histS("trace.gen_ns")
	m["trace.mb"] = c("trace.bytes") / 1e6
	m["trace.ratio"] = ratio(c("trace.bytes"), c("trace.bytes_raw"))
	m["trace.chunks"] = c("trace.op_chunks") + c("trace.ref_chunks")

	m["classify.gen_s"] = histS("classify.gen_ns")
	m["classify.kb"] = g("classify.bytes") / 1e3
	m["classify.replays"] = c("classify.replays")

	refs := c("cache.refs") + c("cache.multi.refs")
	m["cache.refs"] = refs
	m["cache.fast_frac"] = ratio(c("cache.multi.fast_hits"), c("cache.multi.refs"))
	m["cache.ns_per_ref"] = ratio(self["cache"]*1e9, refs)

	m["ooo.instrs"] = c("ooo.instrs")
	m["ooo.cycles"] = c("ooo.cycles")
	m["ooo.ns_per_instr"] = ratio(self["ooo"]*1e9, c("ooo.instrs"))
	m["ooo.idle_skip_frac"] = ratio(c("ooo.idle_skipped"), c("ooo.cycles"))
	m["ooo.far_frac"] = ratio(c("ooo.filed_far"), c("ooo.filed_far")+c("ooo.filed_near")+c("ooo.filed_direct"))

	m["core.race_s"] = t.prof.CumulativeS("capsim/internal/core.(*MultiPolicy).Race")
	m["core.oracle_s"] = t.prof.CumulativeS("capsim/internal/core.(*MultiPolicy).RunOracle",
		"capsim/internal/core.(*MultiPolicy).flightOracle")
	m["core.policy_cells"] = c("policy.cells")
	m["core.combined_s"] = t.prof.CumulativeS("capsim/internal/core.ProfileCombined")

	m["flight.events"] = c("flight.events")
	m["flight.ledger_mb"] = t.ledgerMB
	m["flight.write_s"] = t.prof.CumulativeS("capsim/internal/flight.EncodeRun",
		"capsim/internal/flight.(*LedgerWriter)")
	m["flight.parse_s"] = t.parseS

	m["memo.read_s"], m["memo.write_s"] = t.prof.memoIO()
	m["memo.persist_hits"] = c("memo.persist_hits")
	m["memo.persist_writes"] = c("memo.persist_writes")
	m["memo.persist_misses"] = c("memo.persist_misses")
	m["memo.wait_s"] = histS("memo.wait_ns")
	m["memo.store_mb"] = t.storeMB

	m["sweep.jobs"] = c("sweep.jobs")
	m["sweep.busy_s"] = c("sweep.busy_ns") / 1e9
	m["sweep.util"] = ratio(c("sweep.busy_ns")/1e9, t.wallS*parallel)

	for _, id := range trackedExperiments {
		m["experiments."+id+".wall_s"] = 0
		m["experiments."+id+".alloc_mb"] = 0
	}
	for _, e := range t.experiments {
		m["experiments."+e.ID+".wall_s"] = float64(e.WallNS) / 1e9
		m["experiments."+e.ID+".alloc_mb"] = float64(e.AllocBytes) / 1e6
	}

	m["metrics.render_s"] = t.prof.CumulativeS("capsim/internal/experiments.Result.Render",
		"capsim/internal/metrics.Table.Render", "capsim/internal/metrics.Figure.Render")
	lat := t.snap.Histograms["server.latency_ns"]
	m["server.p50_ms"] = float64(lat.P50) / 1e6
	m["server.p99_ms"] = float64(lat.P99) / 1e6
	m["server.encode_s"] = t.prof.CumulativeS("capsim/internal/server.writeJSON")
	m["server.cache_hits"] = c("server.cache_hits")
	m["server.rejected"] = c("server.rejected_busy") + c("server.rejected_draining")

	m["runtime.alloc_mb"] = t.allocMB
	var gcNS int64
	for _, s := range t.prof.Samples {
		if s.hasFrame(gcFrames...) {
			gcNS += s.NS
		}
	}
	m["runtime.gc_frac"] = ratio(float64(gcNS), float64(t.prof.TotalNS()))
	m["bench.trace_overhead_frac"] = t.overhead

	// Only the defined metrics: experiments outside trackedExperiments are
	// in the record, not the result line.
	out := make(map[string]float64, len(layerMetrics))
	for _, d := range layerMetrics {
		out[d.Name] = m[d.Name]
	}
	return out
}

// Spans are the benchmark's own trace of a traced run: one span around
// each call it makes into the program (each capsim process, each -report,
// each POST), kept in memory and written when the run ends.
type Spans struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

type span struct {
	ID      int            `json:"id"`
	Parent  int            `json:"parent,omitempty"`
	Name    string         `json:"name"`
	StartUS float64        `json:"start_us"`
	EndUS   float64        `json:"end_us"`
	Attrs   map[string]any `json:"attrs,omitempty"`
}

func newSpans() *Spans { return &Spans{t0: time.Now()} }

// Start opens a span under parent (0 for none) and returns its id.
func (s *Spans) Start(name string, parent int) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	id := len(s.spans) + 1
	s.spans = append(s.spans, span{ID: id, Parent: parent, Name: name,
		StartUS: float64(time.Since(s.t0).Nanoseconds()) / 1e3})
	return id
}

// End closes span id with optional attributes.
func (s *Spans) End(id int, attrs map[string]any) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sp := &s.spans[id-1]
	sp.EndUS = float64(time.Since(s.t0).Nanoseconds()) / 1e3
	sp.Attrs = attrs
}

// Add records a finished capsim process as a span under parent.
func (s *Spans) Add(name string, parent int, p Proc, attrs map[string]any) {
	s.mu.Lock()
	defer s.mu.Unlock()
	start := float64(p.Start.Sub(s.t0).Nanoseconds()) / 1e3
	s.spans = append(s.spans, span{ID: len(s.spans) + 1, Parent: parent, Name: name,
		StartUS: start, EndUS: start + float64(p.Wall.Nanoseconds())/1e3, Attrs: attrs})
}

// WriteFile writes the spans as JSON.
func (s *Spans) WriteFile(path string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	raw, err := json.MarshalIndent(s.spans, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}
