package main

import (
	"bytes"
	"math"
	"os"
	"os/exec"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

// TestEveryPackageMapsToALayer keeps packageLayer in step with the tree:
// every capsim/internal package `go list` reports has a layer, every layer is one of
// Layers, and the table names no package that no longer exists.
func TestEveryPackageMapsToALayer(t *testing.T) {
	cmd := exec.Command("go", "list", "./internal/...")
	cmd.Dir = ".."
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	known := map[string]bool{}
	for _, l := range Layers {
		known[l] = true
	}
	listed := map[string]bool{}
	for _, pkg := range strings.Fields(string(out)) {
		listed[pkg] = true
		l, ok := packageLayer[pkg]
		if !ok {
			t.Errorf("package %s maps to no layer", pkg)
		} else if !known[l] {
			t.Errorf("package %s maps to unknown layer %q", pkg, l)
		}
	}
	if !listed["capsim/internal/ooo"] {
		t.Fatalf("go list output lacks capsim/internal/ooo:\n%s", out)
	}
	for pkg := range packageLayer {
		if !listed[pkg] {
			t.Errorf("packageLayer names %s, which go list does not report", pkg)
		}
	}
}

func TestFuncPackage(t *testing.T) {
	for in, want := range map[string]string{
		"capsim/internal/ooo.(*Core).issueCycleEvent":                          "capsim/internal/ooo",
		"capsim/internal/memo.PersistDo[go.shape.*capsim/internal/classify.S]": "capsim/internal/memo",
		"capsim/internal/sweep.Run.func1":                                      "capsim/internal/sweep",
		"encoding/gob.(*Decoder).Decode":                                       "encoding/gob",
		"runtime.mallocgc":                                                     "runtime",
		"main.run":                                                             "main",
		"capsim.NewQueueMachine":                                               "capsim",
	} {
		if got := funcPackage(in); got != want {
			t.Errorf("funcPackage(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestSelfSecondsAttribution checks the folding rules on hand-made stacks
// and that the buckets sum to the profile total.
func TestSelfSecondsAttribution(t *testing.T) {
	p := &Profile{Samples: []Sample{
		{NS: 1e9, Stack: []string{"capsim/internal/ooo.(*Core).Step", "capsim/internal/core.(*MultiPolicy).Race"}},
		{NS: 2e9, Stack: []string{"runtime.mallocgc", "capsim/internal/ooo.(*Core).Step"}},
		{NS: 3e9, Stack: []string{"encoding/gob.(*Decoder).Decode", "capsim/internal/memo.PersistDo[go.shape.int]", "capsim/internal/experiments.studyRow"}},
		{NS: 4e9, Stack: []string{"runtime.scanobject", "runtime.gcBgMarkWorker"}},
		{NS: 5e9, Stack: []string{"syscall.Syscall", "os.(*File).Read"}},
		{NS: 6e9, Stack: []string{"main.run"}},
		{NS: 7e9, Stack: []string{"capsim/internal/memo.(*Store).PutBytes", "capsim/internal/memo.PersistDo[go.shape.int]"}},
	}}
	got := p.SelfSeconds("cli")
	want := map[string]float64{"ooo": 3, "memo": 10, "runtime": 4, "other": 5, "cli": 6}
	var sum float64
	for _, l := range Layers {
		if got[l] != want[l] {
			t.Errorf("%s.self_s = %v, want %v", l, got[l], want[l])
		}
		sum += got[l]
	}
	if total := float64(p.TotalNS()) / 1e9; sum != total {
		t.Errorf("layers sum to %v, profile total %v", sum, total)
	}
	if r, w := p.memoIO(); r != 3 || w != 7 {
		t.Errorf("memoIO = %v, %v; want 3, 7", r, w)
	}
	if got := p.CumulativeS("capsim/internal/core.(*MultiPolicy).Race"); got != 1 {
		t.Errorf("race cumulative = %v, want 1", got)
	}
}

// TestReadProfile decodes a real runtime/pprof CPU profile of this test
// and checks that its layer buckets account for its whole total.
func TestReadProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profiling unavailable: %v", err)
	}
	spinUntil(time.Now().Add(300 * time.Millisecond))
	pprof.StopCPUProfile()
	path := t.TempDir() + "/cpu.pprof"
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	p, err := ReadProfile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Samples) == 0 || p.TotalNS() <= 0 {
		t.Fatalf("no samples decoded (%d bytes of profile)", buf.Len())
	}
	var spin int64
	for _, s := range p.Samples {
		for _, f := range s.Stack {
			if strings.HasSuffix(f, ".spinUntil") {
				spin += s.NS
				break
			}
		}
	}
	if spin <= 0 {
		t.Errorf("no time under spinUntil; first stack %v", p.Samples[0].Stack)
	}
	var sum float64
	for _, s := range p.SelfSeconds("bench") {
		sum += s
	}
	if total := float64(p.TotalNS()) / 1e9; math.Abs(sum-total) > 1e-9 {
		t.Errorf("layers sum to %v, profile total %v", sum, total)
	}
}

var spinSink float64

func spinUntil(deadline time.Time) {
	x := 1.0
	for time.Now().Before(deadline) {
		for i := 0; i < 1000; i++ {
			x = math.Sqrt(x + float64(i))
		}
	}
	spinSink = x
}
