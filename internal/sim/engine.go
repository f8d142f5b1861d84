// Package sim provides a deterministic discrete-event simulation engine
// with virtual time measured in CPU cycles.
//
// The engine is the substrate under every experiment in this repository:
// the paper's measurements were taken on real DECstation 5000/240s, while
// ours are taken on a simulated pair of hosts whose clocks are driven by
// this engine (see DESIGN.md for the substitution argument).
//
// Two styles of simulated activity are supported:
//
//   - event callbacks, scheduled with Schedule/ScheduleAt, which run to
//     completion at a virtual instant; and
//   - processes (Proc), goroutines that interleave with the engine in strict
//     lock-step: at most one process or event callback executes at any real
//     moment, so simulations are fully deterministic.
//
// Determinism: events at equal virtual times fire in scheduling order
// (FIFO by sequence number). Processes only advance when the engine resumes
// them, and the engine only advances when the running process parks.
//
// The engine runs against an EventQueue (a 4-ary min-heap, see
// NewHeapQueue; tests and instrumentation may wrap or substitute it) and
// recycles Events through a freelist, so steady-state scheduling performs
// zero heap allocations. Because fired events are reused,
// Schedule/ScheduleAt hand back a Timer — a generation-checked handle —
// rather than the *Event itself; cancelling a Timer whose event already
// fired (and possibly now carries an unrelated callback) is a safe no-op.
package sim

import (
	"fmt"
)

// Time is a virtual timestamp or duration, measured in CPU cycles of the
// simulated machine. The zero Time is the beginning of the simulation.
type Time int64

// Timer is a cancellable handle on a scheduled event. The zero Timer is
// inert: cancelling it does nothing. Timers are plain values — copy them
// freely, compare against Timer{} to test for "never armed".
type Timer struct {
	ev  *Event
	gen uint64
}

// Engine is a discrete-event simulator. It is not safe for concurrent use
// by multiple goroutines except through the Proc lock-step protocol.
type Engine struct {
	now     Time
	seq     uint64
	q       EventQueue
	free    *Event // recycled events, chained through next
	procs   int    // live (started, not yet finished) processes
	parked  int    // processes currently parked with no wakeup scheduled
	current *Proc
	panicV  any // propagated panic from a process
	stopped bool
}

// NewEngine returns an empty engine at virtual time zero, scheduling
// against the event heap.
func NewEngine() *Engine {
	return &Engine{q: NewHeapQueue()}
}

// NewEngineWithQueue returns an empty engine scheduling against q. Tests
// use it to check the engine against a reference queue, and
// instrumentation to wrap the heap in a counting queue; everything else
// wants NewEngine.
func NewEngineWithQueue(q EventQueue) *Engine {
	return &Engine{q: q}
}

// Now reports the current virtual time.
func (e *Engine) Now() Time { return e.now }

// alloc takes an event from the freelist (or mints one) and stamps it.
func (e *Engine) alloc(t Time) *Event {
	ev := e.free
	if ev != nil {
		e.free = ev.next
		ev.next = nil
	} else {
		ev = &Event{}
	}
	ev.at = t
	ev.seq = e.seq
	e.seq++
	return ev
}

// recycle retires a fired or cancelled event to the freelist. The
// generation bump invalidates every Timer still pointing at it.
func (e *Engine) recycle(ev *Event) {
	ev.gen++
	ev.fn = nil
	ev.afn = nil
	ev.arg = nil
	ev.next = e.free
	e.free = ev
}

func (e *Engine) checkAt(t Time) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event in the past (%d < %d)", t, e.now))
	}
}

// ScheduleAt registers fn to run at virtual time t, which must not be in
// the past. It returns a Timer so the caller may cancel it.
func (e *Engine) ScheduleAt(t Time, fn func()) Timer {
	e.checkAt(t)
	ev := e.alloc(t)
	ev.fn = fn
	e.q.Insert(ev)
	return Timer{ev: ev, gen: ev.gen}
}

// ScheduleArgAt is ScheduleAt for a callback taking one argument. Hot
// paths use it with a long-lived bound function so that scheduling a
// per-packet continuation does not build a per-packet closure.
func (e *Engine) ScheduleArgAt(t Time, fn func(any), arg any) Timer {
	e.checkAt(t)
	ev := e.alloc(t)
	ev.afn = fn
	ev.arg = arg
	e.q.Insert(ev)
	return Timer{ev: ev, gen: ev.gen}
}

// Schedule registers fn to run after virtual duration d (d >= 0).
func (e *Engine) Schedule(d Time, fn func()) Timer {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %d", d))
	}
	return e.ScheduleAt(e.now+d, fn)
}

// ScheduleArg is Schedule for an argument-carrying callback.
func (e *Engine) ScheduleArg(d Time, fn func(any), arg any) Timer {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %d", d))
	}
	return e.ScheduleArgAt(e.now+d, fn, arg)
}

// Cancel removes a pending event. Cancelling the zero Timer, or a Timer
// whose event already fired or was already cancelled, is a no-op — even
// if the underlying Event has since been recycled for another callback.
func (e *Engine) Cancel(t Timer) {
	ev := t.ev
	if ev == nil || ev.gen != t.gen {
		return
	}
	e.q.Remove(ev)
	e.recycle(ev)
}

// Pending reports the number of events waiting to fire.
func (e *Engine) Pending() int { return e.q.Len() }

// Stop makes the innermost Run/RunUntil return after the currently
// executing event completes. Called outside any run, the stop is
// *pending*: the next Run or RunUntil consumes it and returns before
// firing a single event (a stop requested between runs must not be
// silently lost — a driver loop that stops its engine and then calls
// RunFor again expects the stop to win).
func (e *Engine) Stop() { e.stopped = true }

// step fires the next event. It reports false when the queue is empty.
func (e *Engine) step() bool {
	ev := e.q.PopMin()
	if ev == nil {
		return false
	}
	if ev.at < e.now {
		panic("sim: time went backwards")
	}
	e.now = ev.at
	fn, afn, arg := ev.fn, ev.afn, ev.arg
	// Recycle before firing: a self-rescheduling callback immediately
	// reuses this Event, keeping the steady-state freelist depth at the
	// schedule's natural concurrency.
	e.recycle(ev)
	if afn != nil {
		afn(arg)
	} else {
		fn()
	}
	if e.panicV != nil {
		v := e.panicV
		e.panicV = nil
		panic(v)
	}
	return true
}

// Run fires events until the queue is empty or Stop is called. If a process
// panicked, Run re-panics with the same value. A Stop pending from before
// the call makes Run return immediately, firing nothing; either way the
// stop is consumed, so a subsequent Run proceeds normally.
func (e *Engine) Run() {
	for !e.stopped && e.step() {
	}
	e.stopped = false
}

// RunUntil fires events with timestamps <= t. If the run completes without
// being stopped, the clock is then advanced to t (if the simulation had not
// already passed it). When Stop fires mid-run — or was pending from before
// the call — the clock stays at the last fired event: advancing it to t
// would strand still-pending events in the past, making the next Run panic
// with "time went backwards". The stop is consumed either way.
func (e *Engine) RunUntil(t Time) {
	for !e.stopped {
		ev := e.q.PeekMin()
		if ev == nil || ev.at > t {
			break
		}
		e.step()
	}
	stopped := e.stopped
	e.stopped = false
	if stopped {
		return
	}
	if e.now < t {
		e.now = t
	}
}

// RunFor advances the simulation by d cycles of virtual time.
func (e *Engine) RunFor(d Time) { e.RunUntil(e.now + d) }
