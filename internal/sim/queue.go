package sim

// Event is one scheduled callback. Events are recycled through the
// engine's freelist once fired or cancelled, so steady-state scheduling
// allocates nothing. Because a recycled Event may be reused for an
// unrelated callback, callers never hold *Event directly:
// Schedule/ScheduleAt return a generation-checked Timer handle instead.
type Event struct {
	at  Time
	seq uint64

	// gen is bumped every time the event is recycled; a Timer whose
	// generation no longer matches refers to a previous life of this
	// Event and cancels nothing.
	gen uint64

	// Exactly one of fn / afn is set. afn carries an explicit argument so
	// hot paths can schedule a long-lived bound function without building
	// a fresh closure per packet.
	fn  func()
	afn func(any)
	arg any

	// next chains the engine's freelist. heapIdx is the event's slot in
	// the heap while it is queued, so Remove needs no search.
	next    *Event
	heapIdx int
}

// At reports the virtual time at which the event is scheduled.
func (ev *Event) At() Time { return ev.at }

// EventQueue is the ordered queue the engine schedules against. The
// engine owns event allocation and recycling; a queue only links and
// unlinks. PopMin/PeekMin follow the (at, seq) order exactly — the
// engine's determinism contract (equal-time FIFO) is the queue's to keep.
type EventQueue interface {
	// Insert links a not-currently-queued event.
	Insert(ev *Event)
	// Remove unlinks a queued event (cancellation).
	Remove(ev *Event)
	// PeekMin returns the next event without unlinking it, or nil.
	PeekMin() *Event
	// PopMin unlinks and returns the next event, or nil.
	PopMin() *Event
	// Len reports the number of queued events.
	Len() int
}

// heapQueue is the engine's event queue: a 4-ary min-heap ordered by the
// engine's total order (at, seq), so events at equal times pop FIFO.
// Each slot stores its event's key inline, so a sift compares keys in
// one contiguous slice and dereferences an event only to update its
// heapIdx. The fan-out of four halves the depth of a binary heap and
// keeps a slot's four children in 96 contiguous bytes.
//
// A heap has no parameter tuned to the traffic. The simulator's traffic
// mixes µs-scale wire events, ms-scale protocol timers that are mostly
// cancelled, and bursts at one timestamp, and no single bucket width
// suits all three: the calendar queue this heap replaced kept a
// one-cycle day width on the fan-in TCP workload and walked ~528 days
// per PeekMin there (DESIGN.md §15).
//
// Every operation is O(log n). The slice grows to the schedule's peak
// depth and is then reused: steady-state scheduling allocates nothing.
type heapQueue struct {
	slots []heapSlot
}

type heapSlot struct {
	at  Time
	seq uint64
	ev  *Event
}

func (s *heapSlot) before(o *heapSlot) bool {
	return s.at < o.at || (s.at == o.at && s.seq < o.seq)
}

// NewHeapQueue returns an empty event queue.
func NewHeapQueue() EventQueue { return &heapQueue{} }

// Deprecated: NewCalendarQueue returns NewHeapQueue(); the calendar queue is gone.
func NewCalendarQueue() EventQueue { return NewHeapQueue() }

func (h *heapQueue) Len() int { return len(h.slots) }

func (h *heapQueue) Insert(ev *Event) {
	h.slots = append(h.slots, heapSlot{})
	h.up(len(h.slots)-1, heapSlot{at: ev.at, seq: ev.seq, ev: ev})
}

func (h *heapQueue) PeekMin() *Event {
	if len(h.slots) == 0 {
		return nil
	}
	return h.slots[0].ev
}

func (h *heapQueue) PopMin() *Event {
	if len(h.slots) == 0 {
		return nil
	}
	ev := h.slots[0].ev
	h.Remove(ev)
	return ev
}

// Remove fills ev's slot with the last slot's entry and sifts that entry
// up or down from there.
func (h *heapQueue) Remove(ev *Event) {
	i, n := ev.heapIdx, len(h.slots)-1
	last := h.slots[n]
	h.slots[n] = heapSlot{} // drop the event pointer for the GC
	h.slots = h.slots[:n]
	if i == n {
		return
	}
	if i > 0 && last.before(&h.slots[(i-1)/4]) {
		h.up(i, last)
	} else {
		h.down(i, last)
	}
}

// up places s at slot i or above, moving larger ancestors down.
func (h *heapQueue) up(i int, s heapSlot) {
	for i > 0 {
		p := (i - 1) / 4
		if !s.before(&h.slots[p]) {
			break
		}
		h.move(i, p)
		i = p
	}
	h.slots[i] = s
	s.ev.heapIdx = i
}

// down places s at slot i or below, moving smaller children up.
func (h *heapQueue) down(i int, s heapSlot) {
	n := len(h.slots)
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		m := c
		for j := c + 1; j < c+4 && j < n; j++ {
			if h.slots[j].before(&h.slots[m]) {
				m = j
			}
		}
		if !h.slots[m].before(&s) {
			break
		}
		h.move(i, m)
		i = m
	}
	h.slots[i] = s
	s.ev.heapIdx = i
}

// move copies slot from into slot to.
func (h *heapQueue) move(to, from int) {
	h.slots[to] = h.slots[from]
	h.slots[to].ev.heapIdx = to
}
