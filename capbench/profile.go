package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
)

// Profile is a CPU profile reduced to what layer attribution needs: each
// sample's CPU time and its call stack as function names, leaf first.
type Profile struct {
	Samples []Sample
}

// Sample is one stack with the CPU nanoseconds charged to it.
type Sample struct {
	NS    int64
	Stack []string // function names, leaf first (inlined frames expanded)
}

// TotalNS is the CPU time of every sample.
func (p *Profile) TotalNS() int64 {
	var t int64
	for _, s := range p.Samples {
		t += s.NS
	}
	return t
}

// ReadProfile decodes a (gzipped) pprof CPU profile file.
func ReadProfile(path string) (*Profile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(raw) >= 2 && raw[0] == 0x1f && raw[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(raw))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if raw, err = io.ReadAll(zr); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
	}
	p, err := parseProfile(raw)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return p, nil
}

// parseProfile decodes the profile.proto message: just the fields behind
// samples, locations, functions and the string table. The last sample value
// is the CPU time in nanoseconds (runtime/pprof writes [count, nanoseconds]).
func parseProfile(b []byte) (*Profile, error) {
	type rawSample struct {
		locs   []uint64
		values []int64
	}
	var (
		samples []rawSample
		locs    = map[uint64][]uint64{} // location id -> function ids, leaf first
		funcs   = map[uint64]int64{}    // function id -> name string index
		strs    []string
	)
	err := eachField(b, func(field int, wire int, v uint64, data []byte) error {
		switch field {
		case 2: // sample
			var s rawSample
			err := eachField(data, func(f, w int, v uint64, d []byte) error {
				switch f {
				case 1:
					return appendVarints(&s.locs, w, v, d)
				case 2:
					var u []uint64
					if err := appendVarints(&u, w, v, d); err != nil {
						return err
					}
					for _, x := range u {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			if err != nil {
				return err
			}
			samples = append(samples, s)
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(data, func(f, w int, v uint64, d []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return eachField(d, func(f, w int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			locs[id] = fns
		case 5: // function
			var id uint64
			var name int64
			err := eachField(data, func(f, w int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			if err != nil {
				return err
			}
			funcs[id] = name
		case 6: // string_table
			strs = append(strs, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	p := &Profile{Samples: make([]Sample, 0, len(samples))}
	for _, rs := range samples {
		if len(rs.values) == 0 {
			return nil, errors.New("profile sample without values")
		}
		s := Sample{NS: rs.values[len(rs.values)-1]}
		for _, l := range rs.locs {
			for _, f := range locs[l] {
				name := "?"
				if i := funcs[f]; i >= 0 && int(i) < len(strs) {
					name = strs[i]
				}
				s.Stack = append(s.Stack, name)
			}
		}
		p.Samples = append(p.Samples, s)
	}
	return p, nil
}

// eachField walks a protobuf message, calling fn with each field's number,
// wire type, varint value (wire type 0) or payload (wire type 2).
func eachField(b []byte, fn func(field, wire int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = uvarint(b)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("profile: short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("profile: bad length")
			}
			data = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("profile: short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(field, wire, v, data); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field, packed (wire type 2) or not.
func appendVarints(dst *[]uint64, wire int, v uint64, data []byte) error {
	if wire == 0 {
		*dst = append(*dst, v)
		return nil
	}
	for len(data) > 0 {
		x, n := uvarint(data)
		if n <= 0 {
			return errors.New("profile: bad packed varint")
		}
		*dst = append(*dst, x)
		data = data[n:]
	}
	return nil
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// funcPackage returns the import path of a Go function symbol, e.g.
// "capsim/internal/ooo" for "capsim/internal/ooo.(*Core).Step" and
// "encoding/gob" for "encoding/gob.(*Decoder).Decode".
func funcPackage(name string) string {
	if i := strings.IndexByte(name, '['); i >= 0 {
		name = name[:i] // generic instantiation: type arguments may hold paths
	}
	slash := strings.LastIndexByte(name, '/')
	if dot := strings.IndexByte(name[slash+1:], '.'); dot >= 0 {
		return name[:slash+1+dot]
	}
	return name
}

// hasFrame reports whether any frame of s starts with one of prefixes.
func (s Sample) hasFrame(prefixes ...string) bool {
	for _, f := range s.Stack {
		for _, p := range prefixes {
			if strings.HasPrefix(f, p) {
				return true
			}
		}
	}
	return false
}

// CumulativeS is the CPU seconds of samples with a frame matching any of
// prefixes anywhere on the stack (pprof's "cum" for that set of functions).
func (p *Profile) CumulativeS(prefixes ...string) float64 {
	var ns int64
	for _, s := range p.Samples {
		if s.hasFrame(prefixes...) {
			ns += s.NS
		}
	}
	return float64(ns) / 1e9
}
