package dpf

import (
	"errors"
	"fmt"

	"ashs/internal/sim"
)

// FilterID names an installed filter.
type FilterID int

// ErrDuplicateFilter is returned when an identical filter is already
// installed (the packet would be ambiguous).
var ErrDuplicateFilter = errors.New("dpf: duplicate filter")

// Engine is the kernel's demultiplexing engine: all installed filters
// merged into a discrimination trie, so one pass over the packet decides
// ownership no matter how many filters are installed. This is the property
// that makes DPF an order of magnitude faster than engines that try each
// filter in turn.
//
// The trie is stored pointer-light, so that a million installed filters
// cost the garbage collector almost nothing to trace: nodes live in an
// arena addressed by int32 index (the root is index 0), each branch maps
// field values to kid indices in a map the collector does not scan, and
// every filter's atoms are copied at install, in install order, into a
// pointer-free atom store. Ids are issued densely in ascending order, so
// the per-id atom spans are themselves an arena indexed by id.
type Engine struct {
	nodes    arena[node]
	branches arena[branch]
	spans    arena[span] // indexed by FilterID
	atoms    atomStore
	live     int

	// reordered is set by Reorder and cleared by Insert/Remove: the
	// per-branch maxDepth bounds it computed are only trusted while the
	// trie shape is unchanged, so demux-time pruning is gated on it.
	reordered bool
}

// none marks an absent node terminal or an empty branch link.
const none = -1

// node is one trie level. Each branch discriminates on a (offset, size,
// mask) field; filters sharing a prefix share branches. A node's branches
// form a list through branch.next, in install order until Reorder sorts it.
type node struct {
	terminal int32 // filter that matches if the walk ends here, or none
	first    int32 // head of the branch list, or none
}

var emptyNode = node{terminal: none, first: none}

type branch struct {
	k    key
	kids map[uint32]int32 // field value -> node index
	next int32            // next branch of the same node, or none

	// hits counts packets that descended this branch; Reorder sorts each
	// node's branch list by it so generated code tests hot fields first.
	hits uint64
	// maxDepth is the deepest terminal below this branch, relative to the
	// owning node (valid only while Engine.reordered holds).
	maxDepth int
}

// span locates one filter's atoms in the atom store; n is removed once
// the filter is uninstalled.
type span struct {
	chunk, off, n int32
}

const removed = -1

// NewEngine returns an empty demux engine.
func NewEngine() *Engine {
	e := &Engine{}
	e.nodes.put(emptyNode)
	return e
}

// Depth reports the deepest trie level (atoms along the longest installed
// path). It is the structural bound on a demux walk: the scale experiments
// report it next to the measured cyc/msg to show the walk depth — not the
// filter count — is what demux cost tracks.
func (e *Engine) Depth() int {
	return e.trieDepth(0)
}

func (e *Engine) trieDepth(ni int32) int {
	deepest := 0
	for bi := e.nodes.at(ni).first; bi != none; bi = e.branches.at(bi).next {
		for _, kid := range e.branches.at(bi).kids {
			if d := 1 + e.trieDepth(kid); d > deepest {
				deepest = d
			}
		}
	}
	return deepest
}

func (a Atom) key() key { return key{a.Offset, a.Size, a.mask()} }

func (k key) less(o key) bool {
	if k.off != o.off {
		return k.off < o.off
	}
	if k.size != o.size {
		return k.size < o.size
	}
	return k.mask < o.mask
}

// canonical copies atoms into buf sorted into trie order (offset, size,
// mask). It is a stable insertion sort: filters are a handful of atoms,
// and sorting in place into the caller's buffer allocates nothing.
func canonical(buf, atoms []Atom) []Atom {
	buf = append(buf[:0], atoms...)
	for i := 1; i < len(buf); i++ {
		a, ak := buf[i], buf[i].key()
		j := i
		for ; j > 0 && ak.less(buf[j-1].key()); j-- {
			buf[j] = buf[j-1]
		}
		buf[j] = a
	}
	return buf
}

// maxStackAtoms sizes the on-stack canonicalization buffer; longer
// filters sort in a heap buffer.
const maxStackAtoms = 8

// Insert installs a filter and returns its id. Filters are merged into the
// trie at install time — the "compile when installed" half of DPF. The
// engine copies the filter's atoms and keeps no reference to f.
func (e *Engine) Insert(f *Filter) (FilterID, error) {
	var buf [maxStackAtoms]Atom
	ni := int32(0)
	for _, a := range canonical(buf[:0], f.Atoms) {
		b := e.branches.at(e.branchFor(ni, a.key()))
		kid, ok := b.kids[a.Value]
		if !ok {
			kid = e.nodes.put(emptyNode)
			b.kids[a.Value] = kid
		}
		ni = kid
	}
	n := e.nodes.at(ni)
	if n.terminal != none {
		// Built apart from buf so the stack buffer never escapes.
		return 0, fmt.Errorf("%w: %v", ErrDuplicateFilter, canonical(nil, f.Atoms))
	}
	id := FilterID(e.spans.len())
	n.terminal = int32(id)
	e.spans.put(e.atoms.add(f.Atoms))
	e.live++
	e.reordered = false // trie shape changed: depth bounds stale
	return id, nil
}

// branchFor returns node ni's branch on k, appending one to the end of
// its branch list if there is none.
func (e *Engine) branchFor(ni int32, k key) int32 {
	n := e.nodes.at(ni)
	link := &n.first
	for *link != none {
		b := e.branches.at(*link)
		if b.k == k {
			return *link
		}
		link = &b.next
	}
	*link = e.branches.put(branch{k: k, kids: map[uint32]int32{}, next: none})
	return *link
}

// installed returns the span of a live filter.
func (e *Engine) installed(id FilterID) (*span, bool) {
	if id < 0 || int(id) >= e.spans.len() {
		return nil, false
	}
	s := e.spans.at(int32(id))
	return s, s.n != removed
}

// Remove uninstalls a filter.
func (e *Engine) Remove(id FilterID) error {
	s, ok := e.installed(id)
	if !ok {
		return fmt.Errorf("dpf: no filter %d", id)
	}
	var buf [maxStackAtoms]Atom
	e.prune(0, canonical(buf[:0], e.atoms.get(*s)))
	s.n = removed
	e.live--
	e.reordered = false // trie shape changed: depth bounds stale
	return nil
}

// prune walks atoms down from node ni, clears the terminal at the end of
// the path, and frees the nodes and branches left empty on the way back.
// It reports whether ni itself is now empty.
func (e *Engine) prune(ni int32, atoms []Atom) bool {
	n := e.nodes.at(ni)
	if len(atoms) == 0 {
		n.terminal = none
		return n.first == none
	}
	a := atoms[0]
	k := a.key()
	for link := &n.first; *link != none; {
		bi := *link
		b := e.branches.at(bi)
		if b.k != k {
			link = &b.next
			continue
		}
		kid, ok := b.kids[a.Value]
		if ok && e.prune(kid, atoms[1:]) {
			delete(b.kids, a.Value)
			e.nodes.release(kid)
			if len(b.kids) == 0 {
				*link = b.next
				e.branches.release(bi)
			}
		}
		break
	}
	return n.terminal == none && n.first == none
}

// Len reports the number of installed filters.
func (e *Engine) Len() int { return e.live }

// trieStepCycles models one trie level in generated code: specialized
// field load + dispatch on the value.
const trieStepCycles = CompiledCyclesPerAtom + 2

// walker is one Demux classification in progress.
type walker struct {
	pkt       []byte
	cycles    sim.Time
	best      FilterID
	bestDepth int
	found     bool
}

// Demux classifies a packet in one trie walk. It returns the most specific
// matching filter (deepest terminal, ties broken toward the oldest
// install), the modeled cycle cost, and whether any filter matched.
//
// The walk is exhaustive over matching branches: a node can discriminate on
// several distinct fields (a 4-atom listener filter and a 6-atom
// per-connection filter diverge into sibling branches at their common
// prefix), and the deepest terminal must win regardless of which branch was
// installed first. Each branch examined at a visited node charges one
// generated-code trie step, so the cost stays O(depth × branching), not
// O(filters).
func (e *Engine) Demux(pkt []byte) (FilterID, sim.Time, bool) {
	w := walker{pkt: pkt, bestDepth: -1}
	e.walk(&w, 0, 0)
	return w.best, w.cycles, w.found
}

func (e *Engine) walk(w *walker, ni int32, depth int) {
	n := e.nodes.at(ni)
	if t := FilterID(n.terminal); n.terminal != none &&
		(depth > w.bestDepth || depth == w.bestDepth && (!w.found || t < w.best)) {
		w.best, w.bestDepth, w.found = t, depth, true
	}
	for bi := n.first; bi != none; {
		b := e.branches.at(bi)
		bi = b.next
		// After Reorder, hot branches come first and each branch carries
		// the deepest terminal reachable below it, so a branch whose
		// entire subtree is strictly shallower than the best match so
		// far cannot change the outcome (equal depth still ties toward
		// the lowest id, so only *strictly* losing branches skip). The
		// generated code pays one bound test instead of a full step.
		if e.reordered && depth+b.maxDepth < w.bestDepth {
			w.cycles += prunedStepCycles
			continue
		}
		w.cycles += trieStepCycles
		v, ok := field(w.pkt, b.k.off, b.k.size)
		if !ok {
			continue
		}
		if kid, ok := b.kids[v&b.k.mask]; ok {
			b.hits++
			e.walk(w, kid, depth+1)
		}
	}
}

// DemuxLinear classifies a packet by trying every installed filter in turn
// with the interpreted matcher — the MPF-class baseline the paper compares
// DPF against. It scans all filters, each in its install-time atom order,
// and returns the most specific match (most atoms, ties broken toward the
// lowest id) so its dispatch decision agrees with the trie's
// deepest-terminal rule; the cost of the full scan is what the trie's
// one-pass walk is measured against.
func (e *Engine) DemuxLinear(pkt []byte) (FilterID, sim.Time, bool) {
	var cycles sim.Time
	best := FilterID(0)
	bestAtoms := -1
	found := false
	for id := int32(0); id < int32(e.spans.len()); id++ {
		s := e.spans.at(id)
		if s.n == removed {
			continue
		}
		ok, c := interpret(e.atoms.get(*s), pkt)
		cycles += c
		if ok && int(s.n) > bestAtoms {
			best, bestAtoms, found = FilterID(id), int(s.n), true
		}
	}
	return best, cycles, found
}

// arenaBits sets the chunk size of the index arenas: 256 slots keep an
// engine with a handful of filters at a few KB, and a million-filter
// trie at a few thousand chunks.
const (
	arenaBits  = 8
	arenaChunk = 1 << arenaBits
)

// arena is a slot store addressed by int32 index. It grows one
// fixed-size chunk at a time, so growing never copies what it holds and a
// pointer returned by at stays valid for the arena's life. Released slots
// go on a free list that put reuses first.
type arena[T any] struct {
	chunks [][]T
	n      int32 // slots ever used
	free   []int32
}

func (a *arena[T]) len() int { return int(a.n) }

func (a *arena[T]) at(i int32) *T { return &a.chunks[i>>arenaBits][i&(arenaChunk-1)] }

// put stores v in a released slot if there is one, else in a new slot.
func (a *arena[T]) put(v T) int32 {
	var i int32
	if last := len(a.free) - 1; last >= 0 {
		i, a.free = a.free[last], a.free[:last]
	} else {
		if int(a.n>>arenaBits) == len(a.chunks) {
			a.chunks = append(a.chunks, make([]T, arenaChunk))
		}
		i = a.n
		a.n++
	}
	*a.at(i) = v
	return i
}

// release zeroes slot i, dropping what it references, and frees it.
func (a *arena[T]) release(i int32) {
	var zero T
	*a.at(i) = zero
	a.free = append(a.free, i)
}

// Atom store chunk sizes: the first chunk is small, each next one doubles
// up to atomChunkMax, and a filter longer than that gets a chunk of its
// own length.
const (
	atomChunkMin = 16
	atomChunkMax = 4096
)

// atomStore holds every installed filter's atoms, each filter contiguous
// within one chunk. Chunks are never reallocated; a removed filter's
// atoms stay where they are.
type atomStore struct {
	chunks [][]Atom
}

func (s *atomStore) add(atoms []Atom) span {
	last := len(s.chunks) - 1
	if last < 0 || cap(s.chunks[last])-len(s.chunks[last]) < len(atoms) {
		size := atomChunkMin
		if last >= 0 {
			size = min(2*cap(s.chunks[last]), atomChunkMax)
		}
		s.chunks = append(s.chunks, make([]Atom, 0, max(size, len(atoms))))
		last++
	}
	off := len(s.chunks[last])
	s.chunks[last] = append(s.chunks[last], atoms...)
	return span{chunk: int32(last), off: int32(off), n: int32(len(atoms))}
}

func (s *atomStore) get(sp span) []Atom {
	return s.chunks[sp.chunk][sp.off : sp.off+sp.n : sp.off+sp.n]
}
