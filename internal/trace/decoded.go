package trace

import (
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"
)

// Geometry is the part of a cache organization that determines the
// (set, tag) decomposition of an address. By the paper's constant-index
// mapping rule, every boundary position of one adaptive hierarchy shares one
// Geometry — which is exactly why a single decoded stream serves the whole
// boundary family.
type Geometry struct {
	BlockBytes int
	Sets       int
}

// Validate reports whether the geometry is decodable.
func (g Geometry) Validate() error {
	if g.BlockBytes <= 0 || g.BlockBytes&(g.BlockBytes-1) != 0 {
		return fmt.Errorf("trace: block size %d must be a positive power of two", g.BlockBytes)
	}
	if g.Sets <= 0 {
		return fmt.Errorf("trace: set count %d must be positive", g.Sets)
	}
	return nil
}

// decKey identifies one decoded stream: source-store identity x geometry.
type decKey struct {
	src *RefStore
	geo Geometry
}

// decChunk is one immutable span of ChunkLen decoded references, encoded as
// interleaved zigzag-delta varint (set, tag) pairs. Both delta chains
// restart at zero per chunk; the write flags live in the source refChunk's
// raw bitset, which the cursor reads in lockstep.
type decChunk struct {
	enc []byte
}

// decChunkBytes is the chunk's live footprint.
func decChunkBytes(c *decChunk) int64 {
	return int64(unsafe.Sizeof(*c)) + int64(len(c.enc))
}

// DecodedStore caches the (set, tag) decomposition of a RefStore for one
// geometry, chunk-aligned with the source so a cursor can read the write
// bitset and the decoded fields in lockstep. Like the source stores it is
// append-only with atomically published immutable chunks.
type DecodedStore struct {
	src *RefStore
	geo Geometry

	// Power-of-two fast decode (blockShift/setMask/setShift) when Sets is a
	// power of two; div/mod fallback otherwise. Both produce identical
	// values — shift/mask IS div/mod for powers of two.
	pow2       bool
	blockShift uint
	setMask    uint64
	setShift   uint

	mu      sync.Mutex
	scratch []byte // encode buffer, guarded by mu
	chunks  atomic.Pointer[[]*decChunk]

	bytes atomic.Int64
}

// DecodedFor returns the decoded stream of store s under geometry g,
// memoized per (store, geometry) with singleflight semantics. It panics on
// an invalid geometry (callers validate their cache parameters first).
func DecodedFor(s *RefStore, g Geometry) *DecodedStore {
	if err := g.Validate(); err != nil {
		panic(err)
	}
	return decStores.Get(decKey{s, g}, func() *DecodedStore {
		defer publishStoreGauge()
		d := &DecodedStore{src: s, geo: g}
		d.blockShift = uint(bits.TrailingZeros(uint(g.BlockBytes)))
		if g.Sets&(g.Sets-1) == 0 {
			d.pow2 = true
			d.setShift = uint(bits.TrailingZeros(uint(g.Sets)))
			d.setMask = uint64(g.Sets - 1)
		}
		registerStore(d)
		return d
	})
}

// Decode splits one address into its (set, tag) pair under the store's
// geometry; exported for tests that cross-check against cache.Hierarchy.
func (d *DecodedStore) Decode(addr uint64) (set int32, tag uint64) {
	block := addr >> d.blockShift
	if d.pow2 {
		return int32(block & d.setMask), block >> d.setShift
	}
	return int32(block % uint64(d.geo.Sets)), block / uint64(d.geo.Sets)
}

// Len returns the number of decoded references.
func (d *DecodedStore) Len() int64 {
	if cs := d.chunks.Load(); cs != nil {
		return int64(len(*cs)) * ChunkLen
	}
	return 0
}

// ensure decodes chunks until at least n references are available,
// materializing the source as needed. The source chunk is decoded
// incrementally (it is itself delta-compressed), re-encoding each reference
// as interleaved (set, tag) deltas.
func (d *DecodedStore) ensure(n int64) {
	if d.Len() >= n {
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	var cur []*decChunk
	if cs := d.chunks.Load(); cs != nil {
		cur = *cs
	}
	for int64(len(cur))*ChunkLen < n {
		t0 := time.Now()
		src := d.src.chunk(int64(len(cur)))
		c := new(decChunk)
		enc := d.scratch[:0]
		var prevAddr, prevTag uint64
		var prevSet int32
		off := 0
		for i := 0; i < ChunkLen; i++ {
			u, o := uvarintAt(src.enc, off)
			off = o
			prevAddr += uint64(unzigzag(u))
			set, tag := d.Decode(prevAddr)
			enc = appendUvarint(enc, zigzag(int64(set-prevSet)))
			enc = appendUvarint(enc, zigzag(int64(tag-prevTag)))
			prevSet, prevTag = set, tag
		}
		d.scratch = enc
		c.enc = append(make([]byte, 0, len(enc)), enc...)
		next := make([]*decChunk, len(cur)+1)
		copy(next, cur)
		next[len(cur)] = c
		cur = next
		d.chunks.Store(&next)
		d.bytes.Add(decChunkBytes(c))
		obsDecChunks.Inc1()
		obsBytes.Add1(decChunkBytes(c))
		obsBytesRaw.Add1(rawDecChunkBytes)
		obsGenNS.Observe(time.Since(t0).Nanoseconds())
	}
}

// chunk returns the ci-th decoded chunk, decoding as needed.
func (d *DecodedStore) chunk(ci int64) *decChunk {
	cs := d.chunks.Load()
	if cs == nil || ci >= int64(len(*cs)) {
		d.ensure((ci + 1) * ChunkLen)
		cs = d.chunks.Load()
	}
	return (*cs)[ci]
}

func (d *DecodedStore) liveBytes() int64    { return d.bytes.Load() }
func (d *DecodedStore) nominalBytes() int64 { return d.Len() / ChunkLen * rawDecChunkBytes }

// Cursor returns a replay cursor over the decoded stream. Not safe for
// concurrent use; each goroutine takes its own.
func (d *DecodedStore) Cursor() *DecodedCursor { return &DecodedCursor{d: d, idx: ChunkLen} }

// DecodedCursor replays pre-decoded (set, tag, write) references in stream
// order. It implements cache.DecodedSource.
type DecodedCursor struct {
	d       *DecodedStore
	ci      int64
	idx     int
	off     int
	prevSet int32
	prevTag uint64
	dec     *decChunk
	src     *refChunk
}

// NextDecoded returns the next reference's set index, tag and write flag.
func (c *DecodedCursor) NextDecoded() (set int32, tag uint64, write bool) {
	if c.idx == ChunkLen {
		c.dec = c.d.chunk(c.ci)
		c.src = c.d.src.chunk(c.ci)
		c.ci++
		c.idx = 0
		c.off = 0
		c.prevSet, c.prevTag = 0, 0
	}
	i := c.idx
	c.idx++
	enc := c.dec.enc
	u0, off := uvarintAt(enc, c.off)
	u1, off := uvarintAt(enc, off)
	c.off = off
	c.prevSet += int32(unzigzag(u0))
	c.prevTag += uint64(unzigzag(u1))
	return c.prevSet, c.prevTag, c.src.writes[i>>6]>>(uint(i)&63)&1 == 1
}
