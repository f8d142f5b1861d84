package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// modules are the layers CPU and allocation shares are attributed to:
// the repository's packages (every internal/proto package counts as
// "proto"), then the Go runtime split into garbage collection and the
// rest. "other" collects everything else (standard library, benchmark).
var modules = []string{
	"sim", "netdev", "aegis", "dpf", "vcode", "pipe", "mach", "sandbox",
	"core", "proto", "flyweight", "fault", "runtime.gc", "runtime.other", "other",
}

// profile is the part of a pprof profile.proto the attribution needs.
type profile struct {
	sampleTypes []string
	samples     []pbSample
	locLines    map[uint64][]uint64 // location -> function ids, innermost first
	funcNames   map[uint64]string
}

type pbSample struct {
	locs   []uint64 // leaf first
	values []int64
}

// byModule attributes the named sample value by the module of each
// sample's leaf frame (self time). skipRuntime walks past runtime frames
// first, which is how allocation sites are attributed: the leaf of an
// allocation stack is often a runtime helper such as growslice.
func (p *profile) byModule(valueType string, skipRuntime bool) (map[string]float64, error) {
	vi := -1
	for i, t := range p.sampleTypes {
		if t == valueType {
			vi = i
		}
	}
	if vi < 0 {
		return nil, fmt.Errorf("profile has no %q samples", valueType)
	}
	out := map[string]float64{}
	for _, s := range p.samples {
		if vi >= len(s.values) {
			continue
		}
		var frames []string
		for _, l := range s.locs {
			for _, f := range p.locLines[l] {
				frames = append(frames, p.funcNames[f])
			}
		}
		out[classify(frames, skipRuntime)] += float64(s.values[vi])
	}
	return out, nil
}

// classify names the module a stack (leaf first) is charged to.
func classify(frames []string, skipRuntime bool) string {
	for _, f := range frames {
		if isGC(f) {
			return "runtime.gc"
		}
	}
	for _, f := range frames {
		m := moduleOf(f)
		if skipRuntime && m == "runtime.other" {
			continue
		}
		return m
	}
	return "runtime.other"
}

// isGC recognizes the garbage collector's own functions: background mark
// workers, mark assists, sweeping and scavenging.
func isGC(fn string) bool {
	for _, p := range []string{"runtime.gc", "runtime.bgsweep", "runtime.bgscavenge",
		"runtime.markroot", "runtime.scanobject", "runtime.sweepone", "runtime.(*sweepLocked)"} {
		if strings.HasPrefix(fn, p) {
			return true
		}
	}
	return false
}

func moduleOf(fn string) string {
	const repo = "ashs/internal/"
	switch {
	case strings.HasPrefix(fn, repo):
		rest := fn[len(repo):]
		if i := strings.IndexAny(rest, "./"); i >= 0 {
			rest = rest[:i]
		}
		for _, m := range modules[:12] {
			if rest == m {
				return m
			}
		}
		return "other"
	case strings.HasPrefix(fn, "runtime.") || strings.HasPrefix(fn, "internal/runtime/") ||
		strings.HasPrefix(fn, "runtime/internal/"):
		return "runtime.other"
	}
	return "other"
}

// parseProfile decodes a gzipped profile.proto.
func parseProfile(gz []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	p := &profile{locLines: map[uint64][]uint64{}, funcNames: map[uint64]string{}}
	var strs []string
	var typeIdx []uint64
	funcStr := map[uint64]uint64{}
	d := pbReader{b: raw}
	for !d.done() {
		num, wt := d.key()
		switch {
		case num == 1 && wt == 2: // sample_type: ValueType{type}
			m := d.sub()
			for !m.done() {
				if n, w := m.key(); n == 1 && w == 0 {
					typeIdx = append(typeIdx, m.varint())
				} else {
					m.skip(w)
				}
			}
			d.err = firstErr(d.err, m.err)
		case num == 2 && wt == 2: // sample
			m := d.sub()
			var s pbSample
			for !m.done() {
				n, w := m.key()
				switch n {
				case 1:
					m.uints(w, func(v uint64) { s.locs = append(s.locs, v) })
				case 2:
					m.uints(w, func(v uint64) { s.values = append(s.values, int64(v)) })
				default:
					m.skip(w)
				}
			}
			p.samples = append(p.samples, s)
			d.err = firstErr(d.err, m.err)
		case num == 4 && wt == 2: // location{id, line{function_id}}
			m := d.sub()
			var id uint64
			var fns []uint64
			for !m.done() {
				n, w := m.key()
				switch {
				case n == 1 && w == 0:
					id = m.varint()
				case n == 4 && w == 2:
					l := m.sub()
					for !l.done() {
						if ln, lw := l.key(); ln == 1 && lw == 0 {
							fns = append(fns, l.varint())
						} else {
							l.skip(lw)
						}
					}
					d.err = firstErr(d.err, l.err)
				default:
					m.skip(w)
				}
			}
			p.locLines[id] = fns
			d.err = firstErr(d.err, m.err)
		case num == 5 && wt == 2: // function{id, name}
			m := d.sub()
			var id, name uint64
			for !m.done() {
				n, w := m.key()
				switch {
				case n == 1 && w == 0:
					id = m.varint()
				case n == 2 && w == 0:
					name = m.varint()
				default:
					m.skip(w)
				}
			}
			funcStr[id] = name
			d.err = firstErr(d.err, m.err)
		case num == 6 && wt == 2: // string_table
			strs = append(strs, string(d.bytes()))
		default:
			d.skip(wt)
		}
	}
	if d.err != nil {
		return nil, d.err
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	for _, i := range typeIdx {
		p.sampleTypes = append(p.sampleTypes, str(i))
	}
	for id, i := range funcStr {
		p.funcNames[id] = str(i)
	}
	return p, nil
}

func firstErr(a, b error) error {
	if a != nil {
		return a
	}
	return b
}

var errTruncated = errors.New("truncated profile")

// pbReader walks protobuf wire format. The first decoding error sticks
// and ends the walk.
type pbReader struct {
	b   []byte
	err error
}

func (r *pbReader) done() bool { return r.err != nil || len(r.b) == 0 }

func (r *pbReader) varint() uint64 {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(r.b) == 0 {
			r.err = firstErr(r.err, errTruncated)
			return 0
		}
		c := r.b[0]
		r.b = r.b[1:]
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v
		}
	}
	r.err = firstErr(r.err, errors.New("varint overflow"))
	return 0
}

func (r *pbReader) key() (num int, wireType int) {
	k := r.varint()
	return int(k >> 3), int(k & 7)
}

func (r *pbReader) bytes() []byte {
	n := r.varint()
	if n > uint64(len(r.b)) {
		r.err = firstErr(r.err, errTruncated)
		r.b = nil
		return nil
	}
	v := r.b[:n]
	r.b = r.b[n:]
	return v
}

func (r *pbReader) sub() *pbReader { return &pbReader{b: r.bytes(), err: r.err} }

// uints reads a repeated unsigned field, packed or not.
func (r *pbReader) uints(wireType int, f func(uint64)) {
	switch wireType {
	case 0:
		f(r.varint())
	case 2:
		m := r.sub()
		for !m.done() {
			f(m.varint())
		}
		r.err = firstErr(r.err, m.err)
	default:
		r.skip(wireType)
	}
}

func (r *pbReader) skip(wireType int) {
	switch wireType {
	case 0:
		r.varint()
	case 1:
		r.advance(8)
	case 2:
		r.bytes()
	case 5:
		r.advance(4)
	default:
		r.err = firstErr(r.err, fmt.Errorf("unsupported wire type %d", wireType))
	}
}

func (r *pbReader) advance(n int) {
	if n > len(r.b) {
		r.err = firstErr(r.err, errTruncated)
		r.b = nil
		return
	}
	r.b = r.b[n:]
}
