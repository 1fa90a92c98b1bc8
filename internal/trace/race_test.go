package trace

import (
	"sync"
	"testing"

	"capsim/internal/workload"
)

// TestResetRegeneratesIdentical pins the lifecycle contract without
// concurrency: a cursor taken before a Reset keeps replaying its orphaned
// store unchanged, and the fresh store built after the Reset replays the
// identical stream from the start.
func TestResetRegeneratesIdentical(t *testing.T) {
	defer Reset()
	Reset()
	b := bench(t, "gcc")

	const n = ChunkLen*2 + 77
	want := make([]workload.Ref, n)
	gen := workload.NewAddressTrace(b, 4)
	for i := range want {
		want[i] = gen.Next()
	}

	s := RefsFor(b, 4)
	cur := s.Cursor()
	for i := 0; i < ChunkLen+10; i++ { // leave the cursor mid-replay in chunk 1
		if got := cur.Next(); got != want[i] {
			t.Fatalf("pre-Reset ref %d diverged", i)
		}
	}
	Reset()
	if TotalBytes() != 0 {
		t.Fatalf("Reset left %d live bytes", TotalBytes())
	}
	for i := ChunkLen + 10; i < n; i++ {
		if got := cur.Next(); got != want[i] {
			t.Fatalf("orphaned cursor ref %d diverged", i)
		}
	}
	fresh := RefsFor(b, 4)
	if fresh == s {
		t.Fatal("Reset kept the memoized store")
	}
	fc := fresh.Cursor()
	for i := 0; i < n; i++ {
		if got := fc.Next(); got != want[i] {
			t.Fatalf("regenerated ref %d diverged", i)
		}
	}
}

// TestBudgetUnboundedByDefault: the tier has no byte budget, so a
// materialized store keeps its bytes until Reset — touching a second store
// never frees the first — and TotalBytes is the sum of the stores' own
// live-byte counts.
func TestBudgetUnboundedByDefault(t *testing.T) {
	defer Reset()
	Reset()
	a := RefsFor(bench(t, "gcc"), 21)
	b := RefsFor(bench(t, "swim"), 21)
	a.Cursor().Next()
	b.Cursor().Next()
	if a.liveBytes() == 0 || b.liveBytes() == 0 {
		t.Error("store freed without a Reset")
	}
	if TotalBytes() != a.liveBytes()+b.liveBytes() {
		t.Errorf("TotalBytes %d != %d + %d", TotalBytes(), a.liveBytes(), b.liveBytes())
	}
}

// TestEnabledResetRace exercises the lifecycle contract under the race
// detector: goroutines replay ref/op/decoded cursors while another thread
// calls Reset and reads the byte totals. The contract (see the package doc)
// says a cursor taken before a Reset keeps replaying its orphaned store
// consistently, so every replayed value must stay consistent with its
// source, no matter how the calls interleave.
func TestEnabledResetRace(t *testing.T) {
	defer Reset()
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

	// Lifecycle churn: Reset and the registry readers.
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-start
		for i := 0; i < 200; i++ {
			if i%10 == 0 {
				Reset()
			}
			_ = TotalBytes()
			_ = TotalRawBytes()
		}
	}()

	close(start)
	wg.Wait()
}
