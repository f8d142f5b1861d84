package dpf

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"ashs/internal/sim"
)

// Ethernet+IP+UDP/TCP field offsets used by the real stacks (14-byte link
// header): the listener filter tests ethertype/proto/dstIP/dstPort, the
// per-connection filter adds srcIP/srcPort. Their canonical atom sequences
// diverge into sibling branches — (26,4) vs (30,4) — at the shared
// (12,2),(23,1) prefix, which is exactly the shape the exhaustive walk
// exists for.
func listenerFilter(dstIP uint32, dstPort uint16) *Filter {
	return NewFilter().
		Eq16(12, 0x0800).
		Eq8(23, 6).
		Eq32(30, dstIP).
		Eq16(36, dstPort)
}

func connFilter(srcIP, dstIP uint32, srcPort, dstPort uint16) *Filter {
	return NewFilter().
		Eq16(12, 0x0800).
		Eq8(23, 6).
		Eq32(26, srcIP).
		Eq32(30, dstIP).
		Eq16(34, srcPort).
		Eq16(36, dstPort)
}

func mkTCPPacket(srcIP, dstIP uint32, srcPort, dstPort uint16) []byte {
	pkt := make([]byte, 64)
	pkt[12], pkt[13] = 0x08, 0x00
	pkt[23] = 6
	for i := 0; i < 4; i++ {
		pkt[26+i] = byte(srcIP >> (8 * (3 - i)))
		pkt[30+i] = byte(dstIP >> (8 * (3 - i)))
	}
	pkt[34], pkt[35] = byte(srcPort>>8), byte(srcPort)
	pkt[36], pkt[37] = byte(dstPort>>8), byte(dstPort)
	return pkt
}

// TestEngineSiblingBranches is the listener-vs-connection regression: a
// 4-atom listen filter installed before a 6-atom per-connection filter must
// not shadow it (and vice versa). A single-path walk that descends the
// first matching branch gets this wrong whenever insertion order puts the
// shallow branch first.
func TestEngineSiblingBranches(t *testing.T) {
	const dstIP, srcIP = 0x0a000001, 0x0a000002
	const dstPort, srcPort = 7000, 8000
	pkt := mkTCPPacket(srcIP, dstIP, srcPort, dstPort)

	for _, order := range []string{"listener-first", "conn-first"} {
		e := NewEngine()
		var lid, cid FilterID
		var err error
		if order == "listener-first" {
			lid, err = e.Insert(listenerFilter(dstIP, dstPort))
			if err == nil {
				cid, err = e.Insert(connFilter(srcIP, dstIP, srcPort, dstPort))
			}
		} else {
			cid, err = e.Insert(connFilter(srcIP, dstIP, srcPort, dstPort))
			if err == nil {
				lid, err = e.Insert(listenerFilter(dstIP, dstPort))
			}
		}
		if err != nil {
			t.Fatal(err)
		}
		if got, _, ok := e.Demux(pkt); !ok || got != cid {
			t.Fatalf("%s: demux(established segment) = %v,%v want per-conn %v", order, got, ok, cid)
		}
		// A SYN from a different source must still reach the listener.
		syn := mkTCPPacket(0x0a0000ff, dstIP, 9999, dstPort)
		if got, _, ok := e.Demux(syn); !ok || got != lid {
			t.Fatalf("%s: demux(new SYN) = %v,%v want listener %v", order, got, ok, lid)
		}
		if got, _, ok := e.DemuxLinear(pkt); !ok || got != cid {
			t.Fatalf("%s: linear demux = %v,%v want per-conn %v", order, got, ok, cid)
		}
	}
}

// oracleDemux is the reference dispatch rule the trie must reproduce: scan
// every installed filter with the reference matcher, keep the match with
// the most atoms, ties broken toward the lowest id.
func oracleDemux(e *Engine, pkt []byte) (FilterID, bool) {
	best := FilterID(0)
	bestAtoms := -1
	found := false
	for _, in := range installedFilters(e) {
		if in.f.Match(pkt) && len(in.f.Atoms) > bestAtoms {
			best, bestAtoms, found = in.id, len(in.f.Atoms), true
		}
	}
	return best, found
}

type installedFilter struct {
	id FilterID
	f  *Filter
}

// installedFilters rebuilds the engine's installed filters from its atom
// store, ordered by ascending id.
func installedFilters(e *Engine) []installedFilter {
	var out []installedFilter
	for id := FilterID(0); int(id) < e.spans.len(); id++ {
		if s, ok := e.installed(id); ok {
			out = append(out, installedFilter{id, NewFilter(e.atoms.get(*s)...)})
		}
	}
	return out
}

// randomFilter draws a filter with 1-5 atoms: a shared prefix pool forces
// overlapping trie paths, masked atoms exercise the key's mask dimension,
// and equal atom counts across filters exercise the tie-break.
func randomFilter(rng *rand.Rand) *Filter {
	f := NewFilter()
	natoms := 1 + rng.Intn(5)
	for i := 0; i < natoms; i++ {
		switch rng.Intn(5) {
		case 0: // shared ethertype prefix
			f.Eq16(12, 0x0800)
		case 1: // shared proto prefix, small value pool for collisions
			f.Eq8(23, uint8(6+11*rng.Intn(2)))
		case 2:
			f.Eq16(30+2*rng.Intn(4), uint16(rng.Intn(4)))
		case 3:
			f.Eq32(24+4*rng.Intn(3), uint32(rng.Intn(3)))
		case 4:
			mask := uint16(0xf000 >> (4 * rng.Intn(3)))
			f.Masked16(2*rng.Intn(8), mask, uint16(rng.Uint32())&mask)
		}
	}
	return f
}

// randomPacket draws a packet biased toward the interesting region: half
// the time it forces a match of one installed filter, the rest is noise
// drawn from the same small value pools the filters use.
func randomPacket(rng *rand.Rand, filters []*Filter) []byte {
	pkt := make([]byte, 8+rng.Intn(56))
	for i := range pkt {
		pkt[i] = byte(rng.Intn(4))
	}
	if len(filters) > 0 && rng.Intn(2) == 0 {
		f := filters[rng.Intn(len(filters))]
		for _, a := range f.Atoms {
			if a.Offset+a.Size <= len(pkt) {
				for i := 0; i < a.Size; i++ {
					pkt[a.Offset+i] = byte(a.Value >> (8 * (a.Size - 1 - i)))
				}
			}
		}
	}
	return pkt
}

// checkAgainstOracle verifies that both demux paths reproduce the oracle's
// dispatch decision on a batch of packets.
func checkAgainstOracle(t *testing.T, e *Engine, rng *rand.Rand, filters []*Filter, round int) {
	t.Helper()
	// The oracle reads the engine's own copies of the atoms, so check
	// first that they are exactly the filters the test installed.
	var want, got []string
	for _, f := range filters {
		want = append(want, fmt.Sprintf("%#v", f.Atoms))
	}
	for _, in := range installedFilters(e) {
		got = append(got, fmt.Sprintf("%#v", in.f.Atoms))
	}
	sort.Strings(want)
	sort.Strings(got)
	if !slices.Equal(got, want) || e.Len() != len(filters) {
		t.Fatalf("round %d: engine holds %v (Len %d), test installed %v", round, got, e.Len(), want)
	}
	for trial := 0; trial < 10; trial++ {
		pkt := randomPacket(rng, filters)
		wantID, wantOK := oracleDemux(e, pkt)
		gotT, _, okT := e.Demux(pkt)
		if okT != wantOK || okT && gotT != wantID {
			t.Fatalf("round %d: trie demux = %v,%v oracle = %v,%v (pkt %x, %d filters)",
				round, gotT, okT, wantID, wantOK, pkt, e.Len())
		}
		gotL, _, okL := e.DemuxLinear(pkt)
		if okL != wantOK || okL && gotL != wantID {
			t.Fatalf("round %d: linear demux = %v,%v oracle = %v,%v (pkt %x, %d filters)",
				round, gotL, okL, wantID, wantOK, pkt, e.Len())
		}
	}
}

// scrambleHits overwrites every branch's hit counter below node ni with a
// random value, in sorted-key order for reproducibility. Reorder must
// preserve dispatch under ANY hit assignment — the counters are a cost
// hint, not a correctness input.
func scrambleHits(rng *rand.Rand, e *Engine, ni int32) {
	for bi := e.nodes.at(ni).first; bi != none; bi = e.branches.at(bi).next {
		b := e.branches.at(bi)
		b.hits = rng.Uint64() % 1000
		keys := make([]uint32, 0, len(b.kids))
		for v := range b.kids {
			keys = append(keys, v)
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		for _, v := range keys {
			scrambleHits(rng, e, b.kids[v])
		}
	}
}

// TestEnginePropertyReorder is the randomized contract for the DCG demux
// pass: under random hit-frequency permutations, the post-Reorder trie
// must dispatch exactly like the linear-scan oracle, at a modeled cost
// no higher than the unordered walk; Insert and Remove must drop the
// stale depth bounds (and dispatch correctly) until the next Reorder.
func TestEnginePropertyReorder(t *testing.T) {
	rounds := 300
	if testing.Short() {
		rounds = 50
	}
	rng := rand.New(rand.NewSource(0xbeefc0de))
	for round := 0; round < rounds; round++ {
		e := NewEngine()
		var filters []*Filter
		var ids []FilterID
		for i := 0; i < 1+rng.Intn(12); i++ {
			f := randomFilter(rng)
			id, err := e.Insert(f)
			if err != nil {
				continue // duplicate draw: ambiguous by contract, skip
			}
			filters = append(filters, f)
			ids = append(ids, id)
		}
		// Accumulate organic hits, then scramble them adversarially.
		for i := 0; i < 5; i++ {
			e.Demux(randomPacket(rng, filters))
		}
		scrambleHits(rng, e, 0)

		// The walk must never cost more after Reorder: pruned branches pay
		// one bound test instead of a full trie step, examined branches pay
		// the same, and the decision is identical either way.
		batch := make([][]byte, 8)
		for i := range batch {
			batch[i] = randomPacket(rng, filters)
		}
		var before sim.Time
		for _, pkt := range batch {
			_, c, _ := e.Demux(pkt)
			before += c
		}
		e.Reorder()
		if !e.reordered {
			t.Fatal("Reorder did not arm demux pruning")
		}
		var after sim.Time
		for _, pkt := range batch {
			_, c, _ := e.Demux(pkt)
			after += c
		}
		if after > before {
			t.Fatalf("round %d: reordered walk cost %v > unordered %v", round, after, before)
		}
		checkAgainstOracle(t, e, rng, filters, round)

		// Trie churn invalidates the depth bounds: Insert and Remove must
		// disarm pruning, and dispatch must stay oracle-exact throughout.
		f := randomFilter(rng)
		if id, err := e.Insert(f); err == nil {
			filters = append(filters, f)
			ids = append(ids, id)
			if e.reordered {
				t.Fatal("Insert left stale depth bounds armed")
			}
		}
		checkAgainstOracle(t, e, rng, filters, round)
		e.Reorder()
		checkAgainstOracle(t, e, rng, filters, round)
		if len(ids) > 0 {
			k := rng.Intn(len(ids))
			if err := e.Remove(ids[k]); err != nil {
				t.Fatalf("round %d: remove: %v", round, err)
			}
			filters = append(filters[:k], filters[k+1:]...)
			ids = append(ids[:k], ids[k+1:]...)
			if e.reordered {
				t.Fatal("Remove left stale depth bounds armed")
			}
			checkAgainstOracle(t, e, rng, filters, round)
			e.Reorder()
			checkAgainstOracle(t, e, rng, filters, round)
		}
	}
}

// TestEnginePropertyInsertDeleteInsert is the randomized trie contract:
// for random filter sets (overlapping prefixes, masked atoms, duplicated
// atom counts), dispatch agrees with the linear oracle after the initial
// inserts, after deleting a random subset, and after re-inserting what was
// deleted — i.e. Remove prunes without poisoning and Insert rebuilds
// exactly. Run under -race in CI.
func TestEnginePropertyInsertDeleteInsert(t *testing.T) {
	rounds := 1000
	if testing.Short() {
		rounds = 100
	}
	rng := rand.New(rand.NewSource(0x5ca1e))
	for round := 0; round < rounds; round++ {
		e := NewEngine()
		var ids []FilterID
		var filters []*Filter
		for i := 0; i < 1+rng.Intn(12); i++ {
			f := randomFilter(rng)
			id, err := e.Insert(f)
			if err != nil {
				continue // duplicate draw: ambiguous by contract, skip
			}
			ids = append(ids, id)
			filters = append(filters, f)
		}
		checkAgainstOracle(t, e, rng, filters, round)

		// Delete a random subset...
		var removed []*Filter
		for i := len(ids) - 1; i >= 0; i-- {
			if rng.Intn(2) == 0 {
				if err := e.Remove(ids[i]); err != nil {
					t.Fatalf("round %d: remove: %v", round, err)
				}
				removed = append(removed, filters[i])
				ids = append(ids[:i], ids[i+1:]...)
				filters = append(filters[:i], filters[i+1:]...)
			}
		}
		checkAgainstOracle(t, e, rng, filters, round)

		// ...and re-insert it: the pruned trie must accept the same filters
		// again and dispatch as if they had never left.
		for _, f := range removed {
			if _, err := e.Insert(f); err != nil {
				t.Fatalf("round %d: re-insert after remove: %v", round, err)
			}
			filters = append(filters, f)
		}
		checkAgainstOracle(t, e, rng, filters, round)
	}
}

// TestEngineChurnReusesNodes drives many rounds of Insert/Remove churn
// over a standing population: pruned node and branch slots go onto free
// lists and are reused, so the arenas stay at the high-water mark of the
// live trie instead of growing with every install, and dispatch stays
// oracle-exact throughout.
func TestEngineChurnReusesNodes(t *testing.T) {
	rounds := 2000
	if testing.Short() {
		rounds = 300
	}
	rng := rand.New(rand.NewSource(0xc4a7))
	e := NewEngine()
	var ids []FilterID
	var filters []*Filter
	insert := func() {
		f := randomFilter(rng)
		if id, err := e.Insert(f); err == nil {
			ids = append(ids, id)
			filters = append(filters, f)
		}
	}
	for len(ids) < 24 {
		insert()
	}
	for round := 0; round < rounds; round++ {
		k := rng.Intn(len(ids))
		if err := e.Remove(ids[k]); err != nil {
			t.Fatalf("round %d: remove: %v", round, err)
		}
		ids = append(ids[:k], ids[k+1:]...)
		filters = append(filters[:k], filters[k+1:]...)
		for len(ids) < 24 {
			insert()
		}
		if round%50 == 0 {
			checkAgainstOracle(t, e, rng, filters, round)
		}
	}
	checkAgainstOracle(t, e, rng, filters, rounds)
	// 24 filters of at most 5 atoms need at most 1+24*5 nodes and as
	// many branches; without reuse the churn would have pushed thousands.
	const bound = 1 + 24*5
	if n, b := e.nodes.len(), e.branches.len(); n > bound || b > bound {
		t.Fatalf("arenas grew under churn: %d node and %d branch slots, bound %d", n, b, bound)
	}
}

// TestEngineCopiesAtoms: the engine copies a filter's atoms at install,
// so a caller reusing or mutating its Filter afterwards changes neither
// the trie walk nor the linear scan.
func TestEngineCopiesAtoms(t *testing.T) {
	e := NewEngine()
	f := udpPortFilter(7000)
	id, err := e.Insert(f)
	if err != nil {
		t.Fatal(err)
	}
	pkt := mkUDPPacket(0x0800, 17, 7000)
	other := mkUDPPacket(0x0800, 17, 9000)
	for i := range f.Atoms {
		f.Atoms[i].Value ^= 0xffff // the caller rewrites the filter in place
	}
	f.Atoms = append(f.Atoms[:1], Atom{Offset: 0, Size: 1, Value: 0x77})
	for _, demux := range []func([]byte) (FilterID, sim.Time, bool){e.Demux, e.DemuxLinear} {
		if got, _, ok := demux(pkt); !ok || got != id {
			t.Fatalf("after mutation: demux(port 7000) = %v,%v want %v", got, ok, id)
		}
		if got, _, ok := demux(other); ok {
			t.Fatalf("after mutation: demux(port 9000) matched %v", got)
		}
	}
	if err := e.Remove(id); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := e.Demux(pkt); ok || e.Depth() != 0 {
		t.Fatalf("remove after mutation left the trie populated (depth %d)", e.Depth())
	}
}
