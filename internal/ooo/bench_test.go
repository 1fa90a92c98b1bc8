package ooo

import (
	"testing"

	"capsim/internal/obs"
	"capsim/internal/workload"
)

// sliceSource replays a pre-generated instruction slice, so the benchmark
// below times the issue engine rather than the workload generator.
type sliceSource struct {
	ins []workload.Instr
	i   int
}

func (s *sliceSource) Next() workload.Instr {
	in := s.ins[s.i]
	if s.i++; s.i == len(s.ins) {
		s.i = 0
	}
	return in
}

// BenchmarkEventEngine runs eight queue sizes (16..128) through one
// MultiCore over a fixed gcc instruction stream, with -obs-assert off as in
// production; ns/op is per instruction issued by every core.
func BenchmarkEventEngine(b *testing.B) {
	defer obs.SetAssert(obs.AssertEnabled())
	obs.SetAssert(false)
	gen := workload.NewInstrStream(workload.MustByName("gcc"), 1998)
	src := &sliceSource{ins: make([]workload.Instr, 1<<16)}
	for i := range src.ins {
		src.ins[i] = gen.Next()
	}
	var cfgs []Config
	for w := 16; w <= 128; w += 16 {
		cfgs = append(cfgs, PaperConfig(w))
	}
	mc, err := NewMultiCore(cfgs)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	const chunk = 1 << 12
	for i := 0; i < b.N; i += chunk {
		mc.RunEach(src, chunk)
	}
}
