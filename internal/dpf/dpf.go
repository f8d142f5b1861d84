// Package dpf implements the dynamic packet filter engine that securely
// exports the Ethernet device in the paper's testbed (Section IV-A).
//
// DPF [Engler & Kaashoek, SIGCOMM'96] exploits dynamic code generation in
// two ways: it compiles packet filters to executable code when they are
// installed (eliminating interpretation overhead), and it uses the filter's
// constants to aggressively optimize that code. Our analog of "compiling to
// executable code" is specialization into closure chains with constants
// folded and atoms merged across filters into a discrimination trie; the
// MPF-style baseline (Interpret) walks a generic atom list with
// fetch/decode/dispatch overhead, so the order-of-magnitude gap the paper
// reports is reproduced in both modeled cycles and wall-clock benchmarks.
//
// A filter is a conjunction of atoms, each comparing a masked big-endian
// field at a fixed offset against a constant — the shape of every demux
// decision in this repository (Ethernet type, IP protocol, UDP/TCP ports).
package dpf

import (
	"fmt"
	"sort"

	"ashs/internal/sim"
)

// Atom is one masked-compare predicate: pkt[Offset:Offset+Size] & Mask == Value.
type Atom struct {
	Offset int    // byte offset into the packet
	Size   int    // field width: 1, 2 or 4 bytes (big-endian)
	Mask   uint32 // applied before comparison (0 means "all bits")
	Value  uint32
}

func (a Atom) mask() uint32 {
	if a.Mask != 0 {
		return a.Mask
	}
	switch a.Size {
	case 1:
		return 0xff
	case 2:
		return 0xffff
	default:
		return 0xffffffff
	}
}

func (a Atom) String() string {
	return fmt.Sprintf("pkt[%d:%d]&%#x == %#x", a.Offset, a.Offset+a.Size, a.mask(), a.Value)
}

// key is the discrimination-trie grouping key: atoms testing the same field
// can share one load across filters.
type key struct {
	off, size int
	mask      uint32
}

// Filter is a conjunction of atoms. Filters match fixed protocol headers;
// an empty filter matches everything.
type Filter struct {
	Atoms []Atom
}

// NewFilter builds a filter from atoms. With none it starts room for four,
// so a filter built up with the Eq* builders allocates its atoms once.
func NewFilter(atoms ...Atom) *Filter {
	if len(atoms) == 0 {
		atoms = make([]Atom, 0, 4)
	}
	return &Filter{Atoms: atoms}
}

// Eq16 appends a 16-bit equality atom and returns the filter (builder style).
func (f *Filter) Eq16(off int, v uint16) *Filter {
	f.Atoms = append(f.Atoms, Atom{Offset: off, Size: 2, Value: uint32(v)})
	return f
}

// Eq8 appends an 8-bit equality atom.
func (f *Filter) Eq8(off int, v uint8) *Filter {
	f.Atoms = append(f.Atoms, Atom{Offset: off, Size: 1, Value: uint32(v)})
	return f
}

// Eq32 appends a 32-bit equality atom.
func (f *Filter) Eq32(off int, v uint32) *Filter {
	f.Atoms = append(f.Atoms, Atom{Offset: off, Size: 4, Value: v})
	return f
}

// Masked16 appends a masked 16-bit atom.
func (f *Filter) Masked16(off int, mask, v uint16) *Filter {
	f.Atoms = append(f.Atoms, Atom{Offset: off, Size: 2, Mask: uint32(mask), Value: uint32(v)})
	return f
}

// field extracts the big-endian field an atom tests; ok is false if the
// packet is too short.
func field(pkt []byte, off, size int) (uint32, bool) {
	if off < 0 || off+size > len(pkt) {
		return 0, false
	}
	var v uint32
	for i := 0; i < size; i++ {
		v = v<<8 | uint32(pkt[off+i])
	}
	return v, true
}

// Match reports whether the filter accepts the packet (reference
// semantics; compiled and interpreted paths must agree with this).
func (f *Filter) Match(pkt []byte) bool {
	for _, a := range f.Atoms {
		v, ok := field(pkt, a.Offset, a.Size)
		if !ok || v&a.mask() != a.Value {
			return false
		}
	}
	return true
}

// InterpCyclesPerAtom models the fetch/decode/dispatch cost of a classic
// interpreted filter engine (CSPF/MPF-class) per atom evaluated.
const InterpCyclesPerAtom = 18

// CompiledCyclesPerAtom models one specialized compare in generated code:
// load, mask (often folded away), compare-and-branch.
const CompiledCyclesPerAtom = 3

// Interpret evaluates the filter the way an interpreted engine would,
// returning the match result and the modeled cycle cost.
func Interpret(f *Filter, pkt []byte) (bool, sim.Time) {
	return interpret(f.Atoms, pkt)
}

func interpret(atoms []Atom, pkt []byte) (bool, sim.Time) {
	var cycles sim.Time
	for _, a := range atoms {
		cycles += InterpCyclesPerAtom
		v, ok := field(pkt, a.Offset, a.Size)
		if !ok || v&a.mask() != a.Value {
			return false, cycles
		}
	}
	return true, cycles
}

// Compiled is a filter specialized at install time.
type Compiled struct {
	fn     func(pkt []byte) bool
	natoms int
}

// Compile specializes a single filter: constants are folded into the
// closure chain and full-width masks are eliminated.
func Compile(f *Filter) *Compiled {
	// Sort atoms by offset for locality, preserving semantics (conjunction
	// is order-independent).
	atoms := append([]Atom(nil), f.Atoms...)
	sort.SliceStable(atoms, func(i, j int) bool { return atoms[i].Offset < atoms[j].Offset })

	fn := func(pkt []byte) bool { return true }
	// Build innermost-last so evaluation order matches atom order.
	for i := len(atoms) - 1; i >= 0; i-- {
		a := atoms[i]
		nextFn := fn
		off, size, msk, val := a.Offset, a.Size, a.mask(), a.Value
		end := off + size
		fullMask := msk == (uint32(1)<<(8*size)-1) || size == 4 && msk == 0xffffffff
		switch {
		case size == 1 && fullMask:
			b := byte(val)
			fn = func(pkt []byte) bool {
				return end <= len(pkt) && pkt[off] == b && nextFn(pkt)
			}
		case size == 2 && fullMask:
			hi, lo := byte(val>>8), byte(val)
			fn = func(pkt []byte) bool {
				return end <= len(pkt) && pkt[off] == hi && pkt[off+1] == lo && nextFn(pkt)
			}
		default:
			fn = func(pkt []byte) bool {
				v, ok := field(pkt, off, size)
				return ok && v&msk == val && nextFn(pkt)
			}
		}
	}
	return &Compiled{fn: fn, natoms: len(atoms)}
}

// Match runs the compiled filter and returns the modeled cycle cost.
func (c *Compiled) Match(pkt []byte) (bool, sim.Time) {
	return c.fn(pkt), sim.Time(c.natoms * CompiledCyclesPerAtom)
}
