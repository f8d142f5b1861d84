package sim

import (
	"testing"
)

// splitmix64 gives the tests a deterministic stream without touching any
// global PRNG (the determinism analyzer forbids those in this tree).
type splitmix64 uint64

func (s *splitmix64) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d4490885eb327
	return z ^ (z >> 31)
}

// scanQueue is the differential tests' oracle: an unordered slice
// searched linearly for the minimum (at, seq) on every peek. It is far
// too slow for the engine and too simple to get the order wrong.
type scanQueue struct{ evs []*Event }

func (q *scanQueue) Insert(ev *Event) { q.evs = append(q.evs, ev) }

func (q *scanQueue) Remove(ev *Event) {
	for i, e := range q.evs {
		if e == ev {
			q.evs = append(q.evs[:i], q.evs[i+1:]...)
			return
		}
	}
	panic("scanQueue: removing an event that is not queued")
}

func (q *scanQueue) PeekMin() *Event {
	var best *Event
	for _, e := range q.evs {
		if best == nil || e.at < best.at || (e.at == best.at && e.seq < best.seq) {
			best = e
		}
	}
	return best
}

func (q *scanQueue) PopMin() *Event {
	ev := q.PeekMin()
	if ev != nil {
		q.Remove(ev)
	}
	return ev
}

func (q *scanQueue) Len() int { return len(q.evs) }

// checkHeap verifies the heap's structure: every slot's inline key is its
// event's key, every event knows its slot, and no slot orders before its
// parent.
func checkHeap(t *testing.T, h *heapQueue) {
	t.Helper()
	for i := range h.slots {
		s := &h.slots[i]
		if s.ev.heapIdx != i || s.at != s.ev.at || s.seq != s.ev.seq {
			t.Fatalf("slot %d holds (%d,%d) for event (%d,%d) at index %d",
				i, s.at, s.seq, s.ev.at, s.ev.seq, s.ev.heapIdx)
		}
		if p := (i - 1) / 4; i > 0 && s.before(&h.slots[p]) {
			t.Fatalf("slot %d (%d,%d) orders before its parent %d (%d,%d)",
				i, s.at, s.seq, p, h.slots[p].at, h.slots[p].seq)
		}
	}
}

// TestHeapMatchesScanOracle drives the heap and the linear-scan oracle
// through one randomized schedule — near inserts, equal-time bursts, far
// deadlines, pops, and removes of the root, the last slot and interior
// slots — while the queue depth swings between a few events and a few
// thousand. Pop sequences, peeks and lengths must match throughout.
func TestHeapMatchesScanOracle(t *testing.T) {
	rng := splitmix64(12345)
	h := NewHeapQueue().(*heapQueue)
	ref := &scanQueue{}
	twin := map[*Event]*Event{} // heap event -> its oracle copy
	seq := uint64(0)
	floor := Time(0)

	insert := func(at Time) {
		a, b := &Event{at: at, seq: seq}, &Event{at: at, seq: seq}
		seq++
		h.Insert(a)
		ref.Insert(b)
		twin[a] = b
	}
	pop := func() {
		a, b := h.PopMin(), ref.PopMin()
		if (a == nil) != (b == nil) {
			t.Fatalf("pop mismatch: heap %v, oracle %v", a, b)
		}
		if a == nil {
			return
		}
		if twin[a] != b {
			t.Fatalf("pop order diverged: heap (%d,%d) vs oracle (%d,%d)", a.at, a.seq, b.at, b.seq)
		}
		delete(twin, a)
		floor = a.at
	}

	removes := [3]int{} // root, last slot, interior
	for op := 0; op < 30000; op++ {
		limit := [...]int{8, 300, 2000}[(op/5000)%3]
		switch r := rng.next() % 100; {
		case h.Len() == 0 || (r < 45 && h.Len() < limit):
			at := floor + Time(rng.next()%512)
			if rng.next()%100 < 3 {
				at = floor + Time(rng.next()%1_000_000_000) // far deadline
			}
			n := 1
			if rng.next()%4 == 0 {
				n += int(rng.next() % 8) // equal-time burst
			}
			for ; n > 0; n-- {
				insert(at)
			}
		case r < 75 || h.Len() >= limit:
			pop()
		default:
			var i, kind int
			switch kind = int(rng.next() % 3); kind {
			case 0:
				i = 0
			case 1:
				i = h.Len() - 1
			default:
				i = int(rng.next() % uint64(h.Len()))
			}
			removes[kind]++
			a := h.slots[i].ev
			h.Remove(a)
			ref.Remove(twin[a])
			delete(twin, a)
		}
		if h.Len() != ref.Len() {
			t.Fatalf("length diverged: heap %d vs oracle %d", h.Len(), ref.Len())
		}
		if a, b := h.PeekMin(), ref.PeekMin(); a != nil && twin[a] != b {
			t.Fatalf("peek diverged: heap (%d,%d) vs oracle (%d,%d)", a.at, a.seq, b.at, b.seq)
		}
		checkHeap(t, h)
	}
	for h.Len() > 0 {
		pop()
	}
	if ref.Len() != 0 || h.PopMin() != nil || h.PeekMin() != nil {
		t.Fatalf("drained heap disagrees with oracle (%d left)", ref.Len())
	}
	for kind, n := range removes {
		if n == 0 {
			t.Fatalf("schedule never exercised remove kind %d", kind)
		}
	}
}

// TestEngineMatchesScanOracle runs one simulation — self-rescheduling
// ticks, equal-time bursts, and far timers that are mostly cancelled —
// on the engine's own heap and on the linear-scan oracle, and requires
// identical firing traces.
func TestEngineMatchesScanOracle(t *testing.T) {
	type fired struct {
		at Time
		id int
	}
	run := func(e *Engine) []fired {
		var trace []fired
		rng := splitmix64(7)
		id := 0
		note := func(a any) { trace = append(trace, fired{e.Now(), a.(int)}) }
		var tick func()
		tick = func() {
			note(-1)
			if id >= 2000 {
				return
			}
			e.Schedule(Time(rng.next()%97), tick)
			for n := rng.next() % 4; n > 0; n-- {
				id++
				e.ScheduleArg(Time(rng.next()%29), note, id)
			}
			id++
			tm := e.ScheduleArg(Time(1_000_000+rng.next()%1_000_000), note, id)
			if rng.next()%8 != 0 {
				e.Cancel(tm)
			}
		}
		e.Schedule(0, tick)
		e.Run()
		return trace
	}
	a := run(NewEngine())
	b := run(NewEngineWithQueue(&scanQueue{}))
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: heap %d vs oracle %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at %d: heap %v vs oracle %v", i, a[i], b[i])
		}
	}
}

// TestCancelStaleTimer pins the generation check: once an event fires,
// its recycled Event may carry an unrelated callback, and cancelling the
// old Timer must not touch it.
func TestCancelStaleTimer(t *testing.T) {
	e := NewEngine()
	stale := e.Schedule(1, func() {})
	e.Run()
	fired := false
	fresh := e.Schedule(1, func() { fired = true })
	if stale.ev != fresh.ev {
		t.Fatalf("freelist did not recycle the fired event")
	}
	e.Cancel(stale) // refers to the previous life; must be a no-op
	e.Run()
	if !fired {
		t.Fatal("cancelling a stale Timer killed a recycled event")
	}
	e.Cancel(Timer{}) // zero Timer is inert
}

// TestScheduleSteadyStateZeroAlloc pins the tentpole claim: a
// self-rescheduling event at steady queue depth costs zero heap
// allocations per cycle.
func TestScheduleSteadyStateZeroAlloc(t *testing.T) {
	e := NewEngine()
	var tick func()
	n := 0
	tick = func() {
		n++
		e.Schedule(3, tick)
	}
	for i := 0; i < 64; i++ {
		e.Schedule(Time(i), tick)
	}
	e.RunFor(1000) // warm the freelist and grow the heap to its depth
	allocs := testing.AllocsPerRun(100, func() {
		e.RunFor(30)
	})
	if allocs != 0 {
		t.Fatalf("steady-state scheduling allocates %.1f/op, want 0", allocs)
	}
}

// TestScheduleArgAvoidsClosure checks the argument-carrying variant
// delivers its argument and interleaves with plain events in seq order.
func TestScheduleArgAvoidsClosure(t *testing.T) {
	e := NewEngine()
	var got []int
	push := func(a any) { got = append(got, a.(int)) }
	e.ScheduleArg(5, push, 1)
	e.Schedule(5, func() { got = append(got, 2) })
	e.ScheduleArgAt(5, push, 3)
	tm := e.ScheduleArg(5, push, 99)
	e.Cancel(tm)
	e.Run()
	want := []int{1, 2, 3}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

// TestSparseSchedule orders a handful of events spread across an
// enormous time range.
func TestSparseSchedule(t *testing.T) {
	e := NewEngine()
	var got []Time
	for _, at := range []Time{1 << 40, 3, 1 << 20, 70, 1 << 30} {
		at := at
		e.ScheduleAt(at, func() { got = append(got, e.Now()) })
	}
	e.Run()
	want := []Time{3, 70, 1 << 20, 1 << 30, 1 << 40}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sparse order = %v, want %v", got, want)
		}
	}
}
