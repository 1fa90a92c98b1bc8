package obs

import (
	"encoding/json"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"time"
)

// ManifestSchema versions the -metrics-out document. Bump on breaking shape
// changes.
const ManifestSchema = "capsim/run-manifest/v2"

// BuildInfo is the toolchain and VCS provenance of the running binary,
// captured from runtime/debug.ReadBuildInfo. Fields are empty when the
// binary was built outside a VCS checkout (e.g. `go test` archives).
type BuildInfo struct {
	GoVersion   string `json:"go_version"`
	GOOS        string `json:"goos"`
	GOARCH      string `json:"goarch"`
	Main        string `json:"module,omitempty"`
	VCSRevision string `json:"vcs_revision,omitempty"`
	VCSTime     string `json:"vcs_time,omitempty"`
	VCSModified bool   `json:"vcs_modified,omitempty"`
}

// ReadBuildInfo captures the current binary's build provenance.
func ReadBuildInfo() BuildInfo {
	b := BuildInfo{
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		b.Main = bi.Main.Path
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				b.VCSRevision = s.Value
			case "vcs.time":
				b.VCSTime = s.Value
			case "vcs.modified":
				b.VCSModified = s.Value == "true"
			}
		}
	}
	return b
}

// ExperimentRecord is one experiment's measured cost inside a manifest: wall
// time, process-wide allocation deltas, and — when metric recording was on —
// the non-zero counter deltas, all taken over the experiment's own span.
// The experiments of an id list run concurrently, so their spans and deltas
// overlap: a delta includes whatever the other experiments did meanwhile,
// and the records do not sum to the run (Manifest.TotalWallNS is the list's
// wall time).
type ExperimentRecord struct {
	ID     string `json:"id"`
	Title  string `json:"title"`
	WallNS int64  `json:"wall_ns"`
	// Allocs and AllocBytes are process-wide deltas over the experiment's
	// span (runtime.ReadMemStats): every allocation made meanwhile, by its
	// sweep workers and by any experiment overlapping it.
	Allocs     uint64           `json:"allocs"`
	AllocBytes uint64           `json:"alloc_bytes"`
	Counters   map[string]int64 `json:"counters,omitempty"`
}

// Manifest is the -metrics-out run document, capsim's one run report:
// invocation, build provenance, the full flag map, host parallelism,
// per-experiment wall/alloc/counter deltas, and the final metric snapshot.
type Manifest struct {
	Schema      string            `json:"schema"`
	Generated   string            `json:"generated"`
	Command     string            `json:"command"`
	Build       BuildInfo         `json:"build"`
	Flags       map[string]string `json:"flags,omitempty"`
	Parallel    int               `json:"parallel"`
	ObsEnabled  bool              `json:"obs_enabled"`
	GOMAXPROCS  int               `json:"gomaxprocs"`
	NumCPU      int               `json:"num_cpu"`
	Seed        uint64            `json:"seed"`
	CacheRefs   int64             `json:"cache_refs"`
	QueueInstrs int64             `json:"queue_instrs"`

	Experiments []ExperimentRecord `json:"experiments"`
	TotalWallNS int64              `json:"total_wall_ns"`

	// Final is the cumulative end-of-run metric snapshot (counters, gauges,
	// histogram summaries) from the Default registry.
	Final Snapshot `json:"final,omitempty"`
}

// NewManifest returns a manifest stamped with the current time, command line
// and build provenance.
func NewManifest() Manifest {
	return Manifest{
		Schema:     ManifestSchema,
		Generated:  time.Now().UTC().Format(time.RFC3339),
		Command:    commandLine(),
		Build:      ReadBuildInfo(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
	}
}

// commandLine reconstructs the invocation for the manifest header.
func commandLine() string {
	out := ""
	for i, a := range os.Args {
		if i > 0 {
			out += " "
		}
		out += a
	}
	return out
}

// WriteJSON writes the manifest as indented JSON with a trailing newline.
func (m Manifest) WriteJSON(w io.Writer) error {
	buf, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	_, err = w.Write(buf)
	return err
}

// WriteFile writes the manifest to path (0644).
func (m Manifest) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := m.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
