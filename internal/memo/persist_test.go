package memo

import (
	"bytes"
	"encoding/gob"
	"errors"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
)

// testStoreAt opens a store at dir for tests and fuzz set-up.
func testStoreAt(tb testing.TB, dir string) *Store {
	tb.Helper()
	s, err := OpenStore(dir)
	if err != nil {
		tb.Fatalf("OpenStore: %v", err)
	}
	return s
}

func testStore(t *testing.T) *Store {
	t.Helper()
	return testStoreAt(t, t.TempDir())
}

func TestOpenStoreRequiresDir(t *testing.T) {
	if _, err := OpenStore(""); err == nil {
		t.Fatal("OpenStore(\"\") should fail")
	}
}

func TestStoreRoundtrip(t *testing.T) {
	s := testStore(t)
	if _, ok := s.GetBytes("k"); ok {
		t.Fatal("empty store reported a hit")
	}
	want := []byte("payload bytes")
	if err := s.PutBytes("k", want); err != nil {
		t.Fatalf("PutBytes: %v", err)
	}
	got, ok := s.GetBytes("k")
	if !ok || !bytes.Equal(got, want) {
		t.Fatalf("GetBytes: %q ok=%v, want %q", got, ok, want)
	}
	if _, ok := s.GetBytes("other"); ok {
		t.Error("absent key reported a hit")
	}
}

// TestPersistDoReusesAcrossInstances is the cross-process contract in
// miniature: a second Store opened on the same directory serves the entry
// without calling fn — what lets shard workers and repeated CLI runs share
// studies.
func TestPersistDoReusesAcrossInstances(t *testing.T) {
	dir := t.TempDir()
	var calls atomic.Int32
	fn := func() ([]float64, error) { calls.Add(1); return []float64{1, 2, 3}, nil }

	s1, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	v1, err := PersistDo(s1, "study|a", fn)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := OpenStore(dir) // fresh handle = "new process"
	if err != nil {
		t.Fatal(err)
	}
	v2, err := PersistDo(s2, "study|a", fn)
	if err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 1 {
		t.Errorf("fn called %d times across two store handles, want 1", calls.Load())
	}
	if len(v1) != 3 || len(v2) != 3 || v1[1] != v2[1] {
		t.Errorf("values diverge: %v vs %v", v1, v2)
	}
}

func TestPersistDoNilStoreDegrades(t *testing.T) {
	var calls atomic.Int32
	for i := 0; i < 2; i++ {
		v, err := PersistDo(nil, "k", func() (int, error) { calls.Add(1); return 5, nil })
		if err != nil || v != 5 {
			t.Fatalf("nil-store PersistDo: %d %v", v, err)
		}
	}
	if calls.Load() != 2 {
		t.Errorf("nil store must compute every time (calls=%d)", calls.Load())
	}
}

// TestPersistDoRoundTripsInf locks the reason the codec is gob, not JSON:
// study rows carry ±Inf padding (ProfileCacheTPI's tpi[0]) and the
// byte-identical-render contract needs float64 round-tripped bit-exactly.
func TestPersistDoRoundTripsInf(t *testing.T) {
	s := testStore(t)
	want := []float64{math.Inf(1), 1.25, math.Inf(-1), 0.1 + 0.2}
	fn := func() ([]float64, error) { return append([]float64(nil), want...), nil }
	if _, err := PersistDo(s, "inf", fn); err != nil {
		t.Fatal(err)
	}
	got, err := PersistDo(s, "inf", func() ([]float64, error) {
		t.Error("fn called despite a persisted entry")
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("len %d, want %d", len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Errorf("slot %d: %x != %x (not bit-exact)", i,
				math.Float64bits(got[i]), math.Float64bits(want[i]))
		}
	}
}

func TestPersistDoNeverPersistsErrors(t *testing.T) {
	s := testStore(t)
	boom := errors.New("transient")
	var calls atomic.Int32
	for i := 0; i < 2; i++ {
		_, err := PersistDo(s, "bad", func() (int, error) { calls.Add(1); return 0, boom })
		if !errors.Is(err, boom) {
			t.Fatalf("err %v", err)
		}
	}
	if calls.Load() != 2 {
		t.Errorf("error was persisted: fn called %d times, want 2", calls.Load())
	}
	if _, ok := s.GetBytes("bad"); ok {
		t.Error("failed computation left an entry on disk")
	}
}

// TestCorruptEntryIsMissAndRepaired: truncation, garbage, wrong key and
// wrong schema all degrade to a miss, remove the bad file, and the next
// compute republishes a good entry.
func TestCorruptEntryIsMissAndRepaired(t *testing.T) {
	corruptions := map[string]func(s *Store, p string){
		"truncated": func(s *Store, p string) {
			raw, _ := os.ReadFile(p)
			os.WriteFile(p, raw[:len(raw)/2], 0o644)
		},
		"garbage": func(s *Store, p string) {
			os.WriteFile(p, []byte("not a gob stream"), 0o644)
		},
		"wrong-key": func(s *Store, p string) {
			var buf bytes.Buffer
			e := storeEntry{Schema: storeSchema, Key: "other", Sum: 0, Payload: nil}
			gob.NewEncoder(&buf).Encode(&e)
			os.WriteFile(p, buf.Bytes(), 0o644)
		},
		"wrong-schema": func(s *Store, p string) {
			var buf bytes.Buffer
			e := storeEntry{Schema: "capsim/study-cache/v0", Key: "k",
				Sum: 0, Payload: nil}
			gob.NewEncoder(&buf).Encode(&e)
			os.WriteFile(p, buf.Bytes(), 0o644)
		},
		"bad-checksum": func(s *Store, p string) {
			var buf bytes.Buffer
			e := storeEntry{Schema: storeSchema, Key: "k", Sum: 12345,
				Payload: []byte("payload")}
			gob.NewEncoder(&buf).Encode(&e)
			os.WriteFile(p, buf.Bytes(), 0o644)
		},
	}
	for name, corrupt := range corruptions {
		t.Run(name, func(t *testing.T) {
			s := testStore(t)
			if err := s.PutBytes("k", []byte("good")); err != nil {
				t.Fatal(err)
			}
			p := s.path("k")
			corrupt(s, p)
			if _, ok := s.GetBytes("k"); ok {
				t.Fatal("corrupt entry served as a hit")
			}
			if _, err := os.Stat(p); !os.IsNotExist(err) {
				t.Errorf("corrupt entry not removed (stat err %v)", err)
			}
			// The next write repairs the slot.
			if err := s.PutBytes("k", []byte("good")); err != nil {
				t.Fatal(err)
			}
			if got, ok := s.GetBytes("k"); !ok || string(got) != "good" {
				t.Errorf("repaired entry unreadable: %q ok=%v", got, ok)
			}
		})
	}
}

// TestConcurrentPutSameKey: racing writers (the cross-process publish race,
// squeezed into goroutines) must each leave the entry readable and valid —
// atomic temp+rename means readers never observe a torn file.
func TestConcurrentPutSameKey(t *testing.T) {
	s := testStore(t)
	payload := bytes.Repeat([]byte("deterministic"), 1024)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if err := s.PutBytes("hot", payload); err != nil {
					t.Errorf("PutBytes: %v", err)
					return
				}
				if got, ok := s.GetBytes("hot"); ok && !bytes.Equal(got, payload) {
					t.Error("read a torn entry")
					return
				}
			}
		}()
	}
	wg.Wait()
	got, ok := s.GetBytes("hot")
	if !ok || !bytes.Equal(got, payload) {
		t.Fatal("entry unreadable after concurrent writes")
	}
	// No temp files left behind: every writer either renamed or removed.
	leftovers, _ := filepath.Glob(filepath.Join(s.Dir(), "put-*.tmp"))
	if len(leftovers) != 0 {
		t.Errorf("stray temp files: %v", leftovers)
	}
}

func TestStoreFanOut(t *testing.T) {
	s := testStore(t)
	p := s.path("some key")
	rel, err := filepath.Rel(s.Dir(), p)
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Dir(rel)
	if len(dir) != 2 {
		t.Errorf("fan-out dir %q, want a two-hex-digit prefix", dir)
	}
}

// FuzzPersistDo writes arbitrary bytes at an entry's path and then calls
// PersistDo. Whatever the bytes, PersistDo must not panic, must return fn's
// value (or, when the bytes happen to form a well-formed entry for the key,
// that entry's value), and must leave a valid entry behind so the next
// GetBytes is a hit.
func FuzzPersistDo(f *testing.F) {
	const key = "row|fuzz"
	want := []float64{1.5, math.Inf(1), -0.25}

	seed := testStoreAt(f, f.TempDir())
	if _, err := PersistDo(seed, key, func() ([]float64, error) { return want, nil }); err != nil {
		f.Fatal(err)
	}
	valid, err := os.ReadFile(seed.path(key))
	if err != nil {
		f.Fatal(err)
	}
	var payload bytes.Buffer
	gob.NewEncoder(&payload).Encode(&want)
	var flipped bytes.Buffer
	gob.NewEncoder(&flipped).Encode(&storeEntry{Schema: storeSchema, Key: key,
		Sum: crc32.ChecksumIEEE(payload.Bytes()) ^ 1, Payload: payload.Bytes()})

	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(flipped.Bytes())
	// Gob length prefixes claiming a ~1 GiB message and one past gob's limit.
	f.Add([]byte{0xfc, 0x3f, 0xff, 0xff, 0xff, 0x00})
	f.Add([]byte{0xf8, 0x7f, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, raw []byte) {
		s := testStore(t)
		p := s.path(key)
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		expect := want
		if v, ok := decodeEntry(raw, key); ok {
			expect = v
		}
		got, err := PersistDo(s, key, func() ([]float64, error) { return want, nil })
		if err != nil {
			t.Fatalf("PersistDo: %v", err)
		}
		if !sameBits(got, expect) {
			t.Fatalf("PersistDo = %v, want %v", got, expect)
		}
		if _, ok := s.GetBytes(key); !ok {
			t.Fatal("PersistDo left no valid entry behind")
		}
	})
}

// decodeEntry is the fuzz oracle: raw's value when raw is a well-formed
// entry for key whose payload decodes as []float64.
func decodeEntry(raw []byte, key string) ([]float64, bool) {
	var e storeEntry
	if gob.NewDecoder(bytes.NewReader(raw)).Decode(&e) != nil ||
		e.Schema != storeSchema || e.Key != key || e.Sum != crc32.ChecksumIEEE(e.Payload) {
		return nil, false
	}
	var v []float64
	if gob.NewDecoder(bytes.NewReader(e.Payload)).Decode(&v) != nil {
		return nil, false
	}
	return v, true
}

// sameBits compares float slices bit for bit, so NaN payloads compare equal.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
