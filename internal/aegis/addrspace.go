package aegis

import (
	"fmt"

	"ashs/internal/vcode"
)

// PageSize is the virtual-memory page size.
const PageSize = 4096

// Segment is a contiguous allocation inside an address space.
type Segment struct {
	Base uint32
	Len  uint32
	Name string
}

// Contains reports whether [addr, addr+n) lies inside the segment.
func (s Segment) Contains(addr uint32, n int) bool {
	return addr >= s.Base && uint64(addr)+uint64(n) <= uint64(s.Base)+uint64(s.Len)
}

// AddrSpace is a process's addressing context. ASHs execute inside it
// (Section III-A: "the most important task required of the operating
// system is that it allows an ASH to execute in the addressing context of
// its associated application"). Segments are windows onto host physical
// memory; references outside any segment, or to a non-resident page, fault.
//
// In this simulation virtual address == physical address (segments are
// identity-mapped windows); what an AddrSpace adds is protection and
// residency, which is all the ASH safety argument needs.
type AddrSpace struct {
	k           *Kernel
	owner       string
	segs        []Segment
	nonResident map[uint32]bool // page number -> absent
}

// NewAddrSpace creates an empty address space on host k.
func (k *Kernel) NewAddrSpace(owner string) *AddrSpace {
	return &AddrSpace{k: k, owner: owner, nonResident: map[uint32]bool{}}
}

// Alloc adds a fresh segment of n bytes. All pages start resident and
// pinned (the paper: "we require that the application pin all pages that
// the ASH may reference"). Physical-memory exhaustion returns an error:
// a guest over-asking must not take the simulation down with it.
func (as *AddrSpace) Alloc(n int, name string) (Segment, error) {
	base, err := as.k.AllocPhys(n, as.owner+"/"+name)
	if err != nil {
		return Segment{}, err
	}
	seg := Segment{Base: base, Len: uint32(n), Name: name}
	as.segs = append(as.segs, seg)
	return seg, nil
}

// MustAlloc is Alloc for setup code whose sizes are fixed at build time;
// it panics on exhaustion, which there indicates a misconfigured testbed
// rather than guest misbehavior.
func (as *AddrSpace) MustAlloc(n int, name string) Segment {
	seg, err := as.Alloc(n, name)
	if err != nil {
		panic(err)
	}
	return seg
}

// Map adds an existing physical range as a segment (e.g. a device buffer
// region shared with the kernel).
func (as *AddrSpace) Map(seg Segment) { as.segs = append(as.segs, seg) }

// find returns the segment containing [addr, addr+n).
func (as *AddrSpace) find(addr uint32, n int) (Segment, bool) {
	for _, s := range as.segs {
		if s.Contains(addr, n) {
			return s, true
		}
	}
	return Segment{}, false
}

// Unpin marks the page containing addr non-resident (failure injection:
// an ASH touching it takes an involuntary abort, Section III-A).
func (as *AddrSpace) Unpin(addr uint32) { as.nonResident[addr/PageSize] = true }

// Pin makes the page containing addr resident again.
func (as *AddrSpace) Pin(addr uint32) { delete(as.nonResident, addr/PageSize) }

// Resident reports whether every page of [addr, addr+n) is resident.
func (as *AddrSpace) Resident(addr uint32, n int) bool {
	for pg := addr / PageSize; pg <= (addr+uint32(n)-1)/PageSize; pg++ {
		if as.nonResident[pg] {
			return false
		}
	}
	return true
}

// check validates an access for protection and residency.
func (as *AddrSpace) check(addr uint32, n int) error {
	if _, ok := as.find(addr, n); !ok {
		return &vcode.Fault{Kind: vcode.FaultBadAddr, Addr: addr,
			Msg: fmt.Sprintf("address outside %s's address space", as.owner)}
	}
	if !as.Resident(addr, n) {
		return &vcode.Fault{Kind: vcode.FaultBadAddr, Addr: addr,
			Msg: "non-resident page"}
	}
	return nil
}

// Bytes returns a raw view of [addr, addr+n) for application-level (Go)
// code. Applications are trusted in this simulation; handlers are not and
// must go through the vcode.Memory interface below.
func (as *AddrSpace) Bytes(addr uint32, n int) ([]byte, error) {
	if err := as.check(addr, n); err != nil {
		return nil, err
	}
	return as.k.Bytes(addr, n), nil
}

// MustBytes is Bytes for segments the caller just allocated.
func (as *AddrSpace) MustBytes(addr uint32, n int) []byte {
	b, err := as.Bytes(addr, n)
	if err != nil {
		panic(err)
	}
	return b
}

// Load32 implements vcode.Memory with protection and residency checks.
func (as *AddrSpace) Load32(addr uint32) (uint32, error) {
	if err := as.check(addr, 4); err != nil {
		return 0, err
	}
	return as.k.Mem.Load32(addr)
}

// Load16 implements vcode.Memory.
func (as *AddrSpace) Load16(addr uint32) (uint16, error) {
	if err := as.check(addr, 2); err != nil {
		return 0, err
	}
	return as.k.Mem.Load16(addr)
}

// Load8 implements vcode.Memory.
func (as *AddrSpace) Load8(addr uint32) (byte, error) {
	if err := as.check(addr, 1); err != nil {
		return 0, err
	}
	return as.k.Mem.Load8(addr)
}

// Store32 implements vcode.Memory.
func (as *AddrSpace) Store32(addr uint32, v uint32) error {
	if err := as.check(addr, 4); err != nil {
		return err
	}
	return as.k.Mem.Store32(addr, v)
}

// Store16 implements vcode.Memory.
func (as *AddrSpace) Store16(addr uint32, v uint16) error {
	if err := as.check(addr, 2); err != nil {
		return err
	}
	return as.k.Mem.Store16(addr, v)
}

// Store8 implements vcode.Memory.
func (as *AddrSpace) Store8(addr uint32, v byte) error {
	if err := as.check(addr, 1); err != nil {
		return err
	}
	return as.k.Mem.Store8(addr, v)
}
