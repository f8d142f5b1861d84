package main

import (
	"time"

	"ashs/internal/aegis"
	"ashs/internal/mach"
	"ashs/internal/netdev"
	"ashs/internal/obs"
	"ashs/internal/sandbox"
	"ashs/internal/sim"
)

// env is what a workload sees of the benchmark while it builds and runs
// one episode: the seed, constructors that switch on tracing, and host
// timers around its calls into each layer.
type env struct {
	seed   int64
	traced bool

	// timers accumulate host time spent in named layer calls
	// (aegis.kernel_new_s, aegis.bind_s, ...).
	timers map[string]time.Duration
	// skip is benchmark bookkeeping inside a phase (building a latency
	// tap's index, say), subtracted from that phase's host time.
	skip time.Duration

	queues []*countingQueue // traced only
	planes []tracedWorld    // traced only
}

// tracedWorld is one simulated world's observability plane and the
// engine whose clock bounds its window.
type tracedWorld struct {
	plane *obs.Plane
	eng   *sim.Engine
}

func newEnv(seed int64, traced bool) *env {
	return &env{seed: seed, traced: traced, timers: map[string]time.Duration{}}
}

// engine builds a simulation engine over the default calendar queue;
// traced episodes wrap the queue in a counting, timing shim.
func (e *env) engine() *sim.Engine {
	q := sim.NewCalendarQueue()
	if e.traced {
		cq := &countingQueue{q: q}
		e.queues = append(e.queues, cq)
		q = cq
	}
	return sim.NewEngineWithQueue(q)
}

// observe attaches an observability plane to a world's switch and
// kernels when the episode is traced. Tracing charges no simulated
// cycles, so it cannot change a simulated result.
func (e *env) observe(eng *sim.Engine, prof *mach.Profile, sw *netdev.Switch, ks ...*aegis.Kernel) {
	if !e.traced {
		return
	}
	pl := obs.New(float64(prof.MHz))
	sw.Obs = pl
	for _, k := range ks {
		k.Obs = pl
	}
	e.planes = append(e.planes, tracedWorld{pl, eng})
}

// time runs f and charges its host time to the named layer timer.
func (e *env) time(name string, f func()) {
	t := time.Now()
	f()
	e.timers[name] += time.Since(t)
}

// exclude runs benchmark bookkeeping f without charging it to the phase.
func (e *env) exclude(f func()) {
	t := time.Now()
	f()
	e.skip += time.Since(t)
}

func (e *env) takeSkip() time.Duration {
	s := e.skip
	e.skip = 0
	return s
}

// countingQueue wraps the engine's event queue in a traced episode: it
// counts events and the queue's peak length, and times one call in
// queueSampleEvery (timing every call would cost more than the queue).
type countingQueue struct {
	q      sim.EventQueue
	pops   uint64
	calls  uint64
	timed  uint64
	maxLen int
	spent  time.Duration // over the timed calls
}

const queueSampleEvery = 16

// timed runs f, timing it if this call is a sampled one.
func (c *countingQueue) timedCall(f func()) {
	c.calls++
	if c.calls%queueSampleEvery != 0 {
		f()
		return
	}
	t := time.Now()
	f()
	c.spent += time.Since(t)
	c.timed++
}

func (c *countingQueue) Insert(ev *sim.Event) {
	c.timedCall(func() { c.q.Insert(ev) })
	if n := c.q.Len(); n > c.maxLen {
		c.maxLen = n
	}
}

func (c *countingQueue) Remove(ev *sim.Event) { c.timedCall(func() { c.q.Remove(ev) }) }

func (c *countingQueue) PeekMin() (ev *sim.Event) {
	c.timedCall(func() { ev = c.q.PeekMin() })
	return ev
}

func (c *countingQueue) PopMin() (ev *sim.Event) {
	c.timedCall(func() { ev = c.q.PopMin() })
	if ev != nil {
		c.pops++
	}
	return ev
}

func (c *countingQueue) Len() int { return c.q.Len() }

// clockCost measures the host time one timed queue call adds to its own
// measurement (the interval between two back-to-back clock reads); the
// tracer subtracts it so the queue timers report the queue's own time.
func clockCost() time.Duration {
	const n = 100000
	var total time.Duration
	for i := 0; i < n; i++ {
		t := time.Now()
		total += time.Since(t)
	}
	return total / n
}

// countSandboxCache records the episode's compile-cache lookups; the
// cache and its statistics are reset before every episode.
func countSandboxCache(o *outcome) {
	hits, misses := sandbox.CacheStats()
	o.count("sandbox.cache_hits", float64(hits))
	o.count("sandbox.cache_lookups", float64(hits+misses))
}
