package trace

import (
	"sync"
	"testing"
)

// TestEnabledResetRace exercises the lifecycle contract under the race
// detector: goroutines replay ref/op/decoded cursors while another thread
// calls Reset and toggles the byte budget. The contract (see the package
// doc) says a cursor taken before a Reset keeps replaying its orphaned store
// consistently, and an evicted store regenerates identical chunks — so every
// replayed value must stay consistent with its source, no matter how the
// lifecycle calls interleave.
func TestEnabledResetRace(t *testing.T) {
	defer func() { SetBudget(0); Reset() }()
	Reset()

	b := bench(t, "gcc")
	g := Geometry{BlockBytes: 32, Sets: 128}
	const perCursor = ChunkLen + ChunkLen/2

	var wg sync.WaitGroup
	start := make(chan struct{})

	// Replayers: each takes fresh stores/cursors (racing with Reset means
	// some get memo hits, some get fresh stores) and checks content.
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			<-start
			refs := RefSourceFor(b, seed)
			for i := 0; i < perCursor; i++ {
				refs.Next()
			}
			ops := InstrSourceFor(b, seed)
			for i := 0; i < perCursor; i++ {
				ops.Next()
			}
			s := RefsFor(b, seed)
			dec := DecodedFor(s, g).Cursor()
			ref := s.Cursor()
			for i := 0; i < perCursor; i++ {
				r := ref.Next()
				set, tag, write := dec.NextDecoded()
				wantSet, wantTag := DecodedFor(s, g).Decode(r.Addr)
				if set != wantSet || tag != wantTag || write != r.Write {
					t.Errorf("decoded ref %d inconsistent with its source", i)
					return
				}
			}
		}(uint64(100 + w))
	}

	// Lifecycle churn: Reset, budget squeeze.
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-start
		for i := 0; i < 200; i++ {
			if i%10 == 0 {
				Reset()
			}
			if i%3 == 0 {
				SetBudget(int64(1 + i*1024))
			} else {
				SetBudget(0)
			}
			_ = TotalBytes()
			_ = TotalRawBytes()
		}
	}()

	close(start)
	wg.Wait()
}
