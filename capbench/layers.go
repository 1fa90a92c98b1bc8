package main

import "strings"

// Layers are the buckets CPU samples fold into. The first twelve are the
// repository's modules the benchmark attributes time to; "models" holds the
// analytic delay and structure models the engines consult, "obs" the
// telemetry layer, "cli" the capsim command itself and "bench" this
// benchmark's own client code (api-warm profiles the benchmark process).
// "runtime" is Go runtime work no capsim frame asked for (background GC,
// scheduler) and "other" is everything else, so the buckets always sum to
// the profile total.
var Layers = []string{
	"workload", "trace", "classify", "cache", "ooo", "core", "flight",
	"memo", "sweep", "experiments", "metrics", "server",
	"models", "obs", "cli", "bench", "runtime", "other",
}

// packageLayer maps every capsim/internal package to its layer. A test keeps
// it in step with `go list ./internal/...`. The capsim command's own frames
// are package main (see layerOf).
var packageLayer = map[string]string{
	"capsim/internal/workload":    "workload",
	"capsim/internal/rng":         "workload", // seeded streams behind the generators
	"capsim/internal/trace":       "trace",
	"capsim/internal/classify":    "classify",
	"capsim/internal/cache":       "cache",
	"capsim/internal/ooo":         "ooo",
	"capsim/internal/core":        "core",
	"capsim/internal/flight":      "flight",
	"capsim/internal/memo":        "memo",
	"capsim/internal/sweep":       "sweep",
	"capsim/internal/experiments": "experiments",
	"capsim/internal/metrics":     "metrics",
	"capsim/internal/server":      "server",
	"capsim/internal/bpred":       "models",
	"capsim/internal/tlb":         "models",
	"capsim/internal/cacti":       "models",
	"capsim/internal/palacharla":  "models",
	"capsim/internal/wire":        "models",
	"capsim/internal/clock":       "models",
	"capsim/internal/tech":        "models",
	"capsim/internal/obs":         "obs",
}

// layerOf returns the layer of one function symbol, or "" for code outside
// capsim (standard library, runtime). Symbols of package main belong to
// mainLayer: "cli" in a capsim profile, "bench" in the benchmark's own.
func layerOf(fn, mainLayer string) string {
	pkg := funcPackage(fn)
	if pkg == "main" {
		return mainLayer
	}
	return packageLayer[pkg]
}

// sampleLayer charges a sample to the nearest capsim frame from the leaf:
// library and runtime code called by a layer (gob decoding under memo,
// malloc under ooo) is that layer's self time. A stack with no capsim frame
// is "runtime" when it runs runtime code and "other" otherwise.
func sampleLayer(s Sample, mainLayer string) string {
	rt := false
	for _, f := range s.Stack {
		if l := layerOf(f, mainLayer); l != "" {
			return l
		}
		if strings.HasPrefix(f, "runtime.") {
			rt = true
		}
	}
	if rt {
		return "runtime"
	}
	return "other"
}

// SelfSeconds folds the profile into Layers; the values sum to TotalNS.
func (p *Profile) SelfSeconds(mainLayer string) map[string]float64 {
	ns := make(map[string]int64, len(Layers))
	for _, s := range p.Samples {
		ns[sampleLayer(s, mainLayer)] += s.NS
	}
	out := make(map[string]float64, len(Layers))
	for _, l := range Layers {
		out[l] = float64(ns[l]) / 1e9
	}
	return out
}

// gcFrames are the runtime functions whose time is garbage collection:
// marking (background workers and allocation assists) and sweeping.
var gcFrames = []string{
	"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.gcDrain",
	"runtime.markroot", "runtime.scanobject", "runtime.bgsweep",
	"runtime.sweepone", "runtime.(*sweepLocked).sweep",
}

// memoIO splits memo's persisted-read and persisted-write CPU seconds: time
// under Store.GetBytes/PutBytes (file I/O, envelope codec, pruning) plus the
// gob payload codec PersistDo runs directly.
func (p *Profile) memoIO() (readS, writeS float64) {
	const persistDo = "capsim/internal/memo.PersistDo"
	var r, w int64
	for _, s := range p.Samples {
		switch {
		case s.hasFrame("capsim/internal/memo.(*Store).GetBytes", "capsim/internal/memo.(*Store).Has"):
			r += s.NS
		case s.hasFrame("capsim/internal/memo.(*Store).PutBytes", "capsim/internal/memo.(*Store).prune"):
			w += s.NS
		default:
			// gob frames below (leafward of) the nearest capsim frame,
			// when that frame is PersistDo itself.
			dec, enc := false, false
			for _, f := range s.Stack {
				if funcPackage(f) == "encoding/gob" {
					dec = dec || strings.Contains(f, "Decoder")
					enc = enc || strings.Contains(f, "Encoder")
					continue
				}
				if layerOf(f, "") != "" {
					if strings.HasPrefix(f, persistDo) {
						if dec {
							r += s.NS
						} else if enc {
							w += s.NS
						}
					}
					break
				}
			}
		}
	}
	return float64(r) / 1e9, float64(w) / 1e9
}
