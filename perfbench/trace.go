package main

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"time"

	"ashs/internal/sim"
)

// phaseCats are the obs plane's span categories, in the latency
// breakdown's order.
var phaseCats = []string{"wire", "device", "kernel", "sched", "ash", "upcall", "proto"}

// tracer gathers what a traced run adds to its episodes: a CPU profile of
// every run phase, heap profiles around every episode, the GC's CPU
// time, and each episode's queue counts and obs-plane phase totals.
//
// Setup and run are told apart by profiling windows rather than pprof
// labels: simulated processes are goroutines created during setup, so a
// label set there would follow their run-phase work.
type tracer struct {
	err       error
	clock     time.Duration // what timing a call adds to its measurement
	profiling bool
	cpuBuf    bytes.Buffer
	cpu       map[string]float64 // module -> run-phase CPU ns
	alloc     map[string]float64 // module -> bytes allocated
	heap0     map[string]float64
	cpu0      [2]float64 // gc, total CPU seconds at episode start
	gcCPU     float64
	allCPU    float64
	eps       []tracedStats
}

// tracedStats is one traced episode's simulator-side counts.
type tracedStats struct {
	phases map[string]sim.Time // obs category -> cycles, over all worlds
	pops   uint64
	calls  uint64
	timed  uint64
	maxLen int
	spent  time.Duration
}

func newTracer() *tracer {
	return &tracer{clock: clockCost(), cpu: map[string]float64{}, alloc: map[string]float64{}}
}

func (t *tracer) setErr(err error) {
	if t.err == nil {
		t.err = err
	}
}

func (t *tracer) beginEpisode() {
	if t == nil {
		return
	}
	t.heap0 = t.heap()
	t.cpu0 = cpuClasses()
}

func (t *tracer) beginRun() {
	if t == nil {
		return
	}
	t.cpuBuf.Reset()
	if err := pprof.StartCPUProfile(&t.cpuBuf); err != nil {
		t.setErr(err)
		return
	}
	t.profiling = true
}

// endRun closes the run phase's CPU profile and snapshots allocation
// and GC CPU time for the whole episode.
func (t *tracer) endRun() {
	if t == nil || !t.profiling {
		return
	}
	pprof.StopCPUProfile()
	t.profiling = false
	c := cpuClasses()
	t.gcCPU += c[0] - t.cpu0[0]
	t.allCPU += c[1] - t.cpu0[1]
	if p, err := parseProfile(t.cpuBuf.Bytes()); err != nil {
		t.setErr(err)
	} else if m, err := p.byModule("cpu", false); err != nil {
		t.setErr(err)
	} else {
		for k, v := range m {
			t.cpu[k] += v
		}
	}
	for k, v := range t.heap() {
		t.alloc[k] += v - t.heap0[k]
	}
}

// abort stops a CPU profile left running by a panicking episode.
func (t *tracer) abort() {
	if t != nil && t.profiling {
		pprof.StopCPUProfile()
		t.profiling = false
	}
}

// endEpisode folds the episode's queue counters and obs planes into
// per-episode totals and lets go of the worlds they reference.
func (t *tracer) endEpisode(e *env) {
	if t == nil {
		return
	}
	st := tracedStats{phases: map[string]sim.Time{}}
	for _, tw := range e.planes {
		for cat, c := range tw.plane.PhaseCycles(0, tw.eng.Now()) {
			st.phases[cat] += c
		}
	}
	for _, q := range e.queues {
		st.pops += q.pops
		st.calls += q.calls
		st.timed += q.timed
		st.spent += q.spent
		if q.maxLen > st.maxLen {
			st.maxLen = q.maxLen
		}
	}
	e.planes, e.queues = nil, nil
	t.eps = append(t.eps, st)
}

// heap attributes the process's cumulative allocated bytes by module.
func (t *tracer) heap() map[string]float64 {
	runtime.GC() // the heap profile is current as of the last collection
	var b bytes.Buffer
	if err := pprof.Lookup("heap").WriteTo(&b, 0); err != nil {
		t.setErr(err)
		return nil
	}
	p, err := parseProfile(b.Bytes())
	if err != nil {
		t.setErr(err)
		return nil
	}
	m, err := p.byModule("alloc_space", true)
	if err != nil {
		t.setErr(err)
	}
	return m
}

// cpuClasses reads the runtime's GC and total CPU-time estimates.
func cpuClasses() [2]float64 {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	var out [2]float64
	for i := range s {
		if s[i].Value.Kind() == metrics.KindFloat64 {
			out[i] = s[i].Value.Float64()
		}
	}
	return out
}

// report sets every per-layer metric. Simulated quantities come from the
// run's first episode (all episodes are held identical); host timings
// are medians over the traced episodes.
func (t *tracer) report(r *report, plain, traced []*episode) {
	if len(t.eps) == 0 {
		r.fail("no traced episode completed")
		return
	}
	o := plain[0].out // every episode's simulated results are held equal
	c := o.counts
	ops := float64(o.completed)
	if ops == 0 {
		ops = 1
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	timer := func(name string) float64 {
		var xs []float64
		for _, ep := range traced {
			xs = append(xs, ep.env.timers[name].Seconds())
		}
		return median(xs)
	}
	perEp := func(eps []*episode, f func(*episode) float64) float64 {
		var xs []float64
		for _, ep := range eps {
			xs = append(xs, f(ep))
		}
		return median(xs)
	}
	setup := func(ep *episode) float64 { return ep.setup.Seconds() }

	r.set("fail_frac", "ratio", ratio(float64(r.failed), float64(r.attempted)))
	r.set("sim.samples", "count", float64(len(o.samples)))

	st := t.eps[0]
	r.set("sim.events_per_op", "count", float64(st.pops)/ops)
	r.set("sim.queue_len_max", "count", float64(st.maxLen))
	var qns []float64
	for _, s := range t.eps {
		// Scale the sampled calls' net time up to every call.
		net := float64((s.spent - time.Duration(s.timed)*t.clock).Nanoseconds())
		qns = append(qns, ratio(net*ratio(float64(s.calls), float64(s.timed)), float64(s.pops)))
	}
	r.set("sim.queue_ns_per_event", "ns", median(qns))

	r.set("netdev.frames_per_op", "count", c["netdev.frames"]/ops)
	r.set("netdev.pool_grown", "count", c["netdev.pool_grown"])
	r.set("aegis.kernel_new_s", "s", timer("aegis.kernel_new_s"))
	r.set("aegis.bind_s", "s", timer("aegis.bind_s"))
	r.set("aegis.rx_cyc_per_frame", "cycles", ratio(c["aegis.rx_cycles"], c["aegis.rx_frames"]))
	r.set("aegis.accept_frac", "ratio", ratio(c["aegis.accepted"], c["aegis.offered"]))
	r.set("dpf.filters", "count", c["dpf.filters"])
	r.set("dpf.trie_depth", "count", c["dpf.trie_depth"])
	r.set("dpf.demux_cyc_per_frame", "cycles", ratio(c["dpf.demux_cycles"], c["dpf.frames"]))
	r.set("vcode.handler_insns_per_op", "insns", ratio(c["vcode.handler_insns"], c["vcode.handler_ops"]))
	r.set("sandbox.download_s", "s", timer("sandbox.download_s"))
	r.set("sandbox.cache_hit_frac", "ratio", ratio(c["sandbox.cache_hits"], c["sandbox.cache_lookups"]))
	r.set("sandbox.added_insns", "insns", ratio(c["sandbox.added_insns"], c["sandbox.downloads"]))
	r.set("core.aborts_per_op", "count", c["core.aborts"]/ops)
	r.set("tcp.retransmit_frac", "ratio", ratio(c["tcp.retransmits"], c["tcp.segs_out"]))
	r.set("nfs.resent_frac", "ratio", ratio(c["nfs.resent"], c["nfs.calls"]))
	r.set("flyweight.fleet_new_s", "s", timer("flyweight.fleet_new_s"))
	r.set("flyweight.retry_frac", "ratio", ratio(c["flyweight.retries"], c["flyweight.completed"]))
	r.set("flyweight.p99_bucket_us", "us", c["flyweight.p99_bucket_us"])
	r.set("workload.trace_gen_s", "s", timer("workload.trace_gen_s"))
	r.set("fault.injected", "count", c["fault.injected"])
	r.set("runtime.gc_cpu_frac", "ratio", ratio(t.gcCPU, t.allCPU))
	r.set("runtime.setup_gc_s", "s", timer("runtime.setup_gc_s"))
	r.set("runtime.mallocs_per_op", "count", perEp(traced, func(ep *episode) float64 {
		return float64(ep.mallocs) / ops
	}))

	var cpuAll, allocAll float64
	for _, m := range modules {
		cpuAll += t.cpu[m]
		allocAll += t.alloc[m]
	}
	for _, m := range modules {
		r.set("cpu."+m, "ratio", ratio(t.cpu[m], cpuAll))
		r.set("alloc."+m, "ratio", ratio(t.alloc[m], allocAll))
	}

	// Worlds run several hosts at once, so spans overlap and a residual
	// against the simulated window means nothing; "other" is the span
	// time of categories outside the seven.
	var other sim.Time
	for cat, cy := range st.phases {
		other += cy
		for _, c := range phaseCats {
			if c == cat {
				other -= cy
			}
		}
	}
	for _, cat := range phaseCats {
		r.set(fmt.Sprintf("phase.%s_cyc_per_op", cat), "cycles", float64(st.phases[cat])/ops)
	}
	r.set("phase.other_cyc_per_op", "cycles", float64(other)/ops)

	tOps, tSetup := throughput(traced), perEp(traced, setup)
	uOps, uSetup := throughput(plain), perEp(plain, setup)
	r.set("trace.ops_per_host_s", "ops/s", tOps)
	r.set("trace.setup_s", "s", tSetup)
	r.set("untraced.ops_per_host_s", "ops/s", uOps)
	r.set("untraced.setup_s", "s", uSetup)
	r.set("trace.overhead_frac", "ratio", ratio(uOps, tOps)-1)
	r.set("model.table5_rtt_us", "us", c["model.table5_rtt_us"])
	r.set("model.table5_err_frac", "ratio", c["model.table5_err_frac"])
	r.set("crl.stale_reply_ids", "count", c["crl.stale_reply_ids"])
}
