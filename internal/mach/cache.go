package mach

import "ashs/internal/sim"

// Cache simulates the DECstation's direct-mapped write-through data cache.
// It tracks only tags (the simulated memory's contents live elsewhere); its
// job is to charge the right number of cycles for each access pattern.
//
// Addresses are virtual addresses in the simulated machine's address space.
// Write-through with no write-allocate: stores cost StoreCycles and never
// fill lines, but they update a line that already holds the address.
type Cache struct {
	p     *Profile
	tags  []uint32 // tag per line index; tagInvalid when empty
	lines int
	// Statistics.
	Hits, Misses, Stores uint64
}

const tagInvalid = ^uint32(0)

// NewCache returns an empty cache for profile p.
func NewCache(p *Profile) *Cache {
	lines := p.CacheBytes / p.LineBytes
	c := &Cache{p: p, lines: lines, tags: make([]uint32, lines)}
	c.Flush()
	return c
}

// Flush invalidates the entire cache (the paper flushes between benchmark
// iterations to model a message that arrives uncached).
func (c *Cache) Flush() {
	for i := range c.tags {
		c.tags[i] = tagInvalid
	}
}

// FlushRange invalidates all lines covering [addr, addr+n) — e.g. the
// software cache flush the AN2 driver performs after a DMA.
func (c *Cache) FlushRange(addr uint32, n int) {
	if n <= 0 {
		return
	}
	lb := uint32(c.p.LineBytes)
	first := addr / lb
	last := (addr + uint32(n) - 1) / lb
	for ln := first; ln <= last; ln++ {
		idx := int(ln) % c.lines
		if c.tags[idx] == ln {
			c.tags[idx] = tagInvalid
		}
	}
}

// lineOf returns the line number (address / line size).
func (c *Cache) lineOf(addr uint32) uint32 { return addr / uint32(c.p.LineBytes) }

// Load charges one 32-bit load at addr and returns its cost in cycles.
func (c *Cache) Load(addr uint32) sim.Time {
	ln := c.lineOf(addr)
	idx := int(ln) % c.lines
	if c.tags[idx] == ln {
		c.Hits++
		return sim.Time(c.p.LoadHit)
	}
	c.Misses++
	c.tags[idx] = ln
	return sim.Time(c.p.LoadHit + c.p.MissPenalty)
}

// Store charges one 32-bit store at addr. The model is write-through with
// write-validate: the store goes to the write buffer at a fixed cost and
// the line is marked valid without a fetch, so freshly written buffers
// read back as cached — the behaviour Table III's "data in the cache for
// the second copy" case depends on.
func (c *Cache) Store(addr uint32) sim.Time {
	c.Stores++
	ln := c.lineOf(addr)
	c.tags[int(ln)%c.lines] = ln
	return sim.Time(c.p.StoreCycles)
}

// LoadRange charges a streaming word-by-word read of [addr, addr+n).
func (c *Cache) LoadRange(addr uint32, n int) sim.Time {
	var t sim.Time
	for off := 0; off < n; off += 4 {
		t += c.Load(addr + uint32(off))
	}
	return t
}

// Warm marks [addr, addr+n) resident without charging cycles (for setting
// up "cached" experimental conditions).
func (c *Cache) Warm(addr uint32, n int) {
	if n <= 0 {
		return
	}
	first := c.lineOf(addr)
	last := c.lineOf(addr + uint32(n) - 1)
	for ln := first; ln <= last; ln++ {
		c.tags[int(ln)%c.lines] = ln
	}
}

// Resident reports whether the line containing addr is cached.
func (c *Cache) Resident(addr uint32) bool {
	ln := c.lineOf(addr)
	return c.tags[int(ln)%c.lines] == ln
}
