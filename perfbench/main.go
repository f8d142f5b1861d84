// Command perfbench is the repository benchmark. It runs one named
// workload under a seed, checks every output the workload produces, and
// prints one JSON line: the end-to-end metrics from an untraced run, or
// (-trace 1) the per-layer metrics from a traced run.
//
// A run repeats fixed-size episodes until its time budget is spent. An
// episode builds a fresh simulated world from the seed (setup), drives it
// to completion (run), and verifies it (check). Simulated results depend
// only on the seed, so every episode of a run must reproduce the first one
// exactly; host-side timings are medians over the episodes, except
// throughput, which pools them.
//
// Usage (from the repository root, where BENCHMARK.json is; see run.py
// for the hermetic build):
//
//	perfbench -workload bulk-faults -seed 1 -seconds 10 -trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"syscall"
	"time"

	"ashs/internal/sandbox"
	"ashs/internal/sim"
)

const (
	// defaultSeed is the tuning seed; heldOutSeed was kept out of every
	// sizing decision and is the one a claimed gain must also hold on.
	defaultSeed = 1
	heldOutSeed = 7919

	minEpisodes = 3   // untraced runs: medians need at least three
	maxEpisodes = 400 // bounds a run whose episodes are unexpectedly cheap
	p99Headroom = 10  // samples the 99th percentile must leave beyond it
)

// workload is one benchmark input: setup builds a fresh world for the
// episode's seed and returns it ready to run.
type workloadSpec struct {
	name  string
	setup func(e *env) world
}

// world is one episode's simulated system after setup.
type world interface {
	// run drives the simulation to completion (the timed run phase).
	run(e *env)
	// check verifies the outputs and reports what the episode did.
	check(e *env) *outcome
}

var workloads = []workloadSpec{
	{"bulk-faults", setupBulk},
	{"fanin-udp", setupFaninUDP},
	{"fanin-tcp", setupFaninTCP},
	{"ash-rpc", setupASHRPC},
}

func main() { os.Exit(run()) }

func run() int {
	name := flag.String("workload", "", "workload to run: bulk-faults, fanin-udp, fanin-tcp or ash-rpc")
	seed := flag.Int64("seed", defaultSeed, "seed the workload's inputs are generated from")
	seconds := flag.Float64("seconds", 10, "host seconds to spend measuring")
	trace := flag.Int("trace", 0, "1 = traced run printing per-layer metrics, 0 = end-to-end metrics")
	flag.Parse()

	var w *workloadSpec
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (bulk-faults|fanin-udp|fanin-tcp|ash-rpc), -seconds > 0 and -trace 0|1\n")
		return 2
	}
	budget := time.Duration(*seconds * float64(time.Second))
	// The simulation is lock-step: one goroutine (the engine or one
	// simulated process) runs at a time. One P makes every handoff a
	// same-P switch; with more, handoffs wander between threads and the
	// run-to-run spread of host timings grows several times over.
	runtime.GOMAXPROCS(1)

	var rep *report
	if *trace == 1 {
		rep = measureTraced(w, *seed, budget)
	} else {
		rep = measureUntraced(w, *seed, budget)
	}
	if err := rep.checkNames(*trace == 1); err != nil {
		rep.fail(err.Error())
	}
	for _, f := range rep.failures {
		fmt.Fprintf(os.Stderr, "perfbench: %s: FAILED: %s\n", w.name, f)
	}
	out, err := json.Marshal(rep.result())
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(out))
	if len(rep.failures) > 0 {
		return 1
	}
	return 0
}

// episode is what one setup/run/check cycle measured.
type episode struct {
	setup, run time.Duration // host time of each phase
	allocBytes uint64        // host bytes allocated over setup and run
	mallocs    uint64
	out        *outcome
	env        *env
}

// runEpisode performs one episode. A panic anywhere in it (a simulated
// process panicking re-panics out of the engine) is reported as a failed
// check rather than crashing the run.
func runEpisode(w *workloadSpec, seed int64, tr *tracer) (ep *episode) {
	ep = &episode{out: &outcome{}}
	sandbox.ResetCache() // every episode downloads cold, like a fresh host
	runtime.GC()         // and starts from the same collected heap
	goroutines := runtime.NumGoroutine()
	e := newEnv(seed, tr != nil)
	ep.env = e
	defer func() {
		if r := recover(); r != nil {
			tr.abort()
			ep.out.fail(fmt.Sprintf("panic: %v", r))
		}
	}()

	tr.beginEpisode()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	t0 := time.Now()
	wd := w.setup(e)
	// Setup pays for collecting its own garbage. Left to the pacer, that
	// collection lands at a varying point of the run phase, and with a
	// million-filter heap one cycle costs as much as the whole run.
	e.time("runtime.setup_gc_s", runtime.GC)
	ep.setup = time.Since(t0) - e.takeSkip()
	tr.beginRun()
	t1 := time.Now()
	wd.run(e)
	ep.run = time.Since(t1) - e.takeSkip()
	runtime.ReadMemStats(&ms1)
	tr.endRun()
	ep.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	ep.mallocs = ms1.Mallocs - ms0.Mallocs
	ep.out = wd.check(e)
	tr.endEpisode(e)
	if n := waitGoroutines(goroutines); n > 0 {
		ep.out.fail(fmt.Sprintf("%d simulated processes never exited", n))
	}
	return ep
}

// waitGoroutines waits briefly for finished process goroutines to unwind
// and reports how many more goroutines exist than before the episode.
func waitGoroutines(before int) int {
	for i := 0; i < 200; i++ {
		if runtime.NumGoroutine() <= before {
			return 0
		}
		time.Sleep(time.Millisecond)
	}
	return runtime.NumGoroutine() - before
}

// report accumulates a run's episodes into the printed result.
type report struct {
	attempted, failed uint64
	failures          []string
	metrics           map[string]metric
	first             string // the first episode's simulated fingerprint
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func newReport() *report { return &report{metrics: map[string]metric{}} }

func (r *report) fail(msg string) { r.failures = append(r.failures, msg) }

func (r *report) set(name, unit string, v float64) { r.metrics[name] = metric{v, unit} }

// add folds one episode's counts and checks, and holds it to the first
// episode's simulated fingerprint (the determinism gate).
func (r *report) add(ep *episode, label string) {
	o := ep.out
	r.attempted += o.attempted
	r.failed += o.failedOps()
	for _, f := range o.failures {
		r.fail(label + ": " + f)
	}
	fp := o.fingerprint()
	if r.first == "" {
		r.first = fp
		return
	}
	if fp != r.first {
		r.fail(label + ": simulated results differ from the first episode's (determinism)")
	}
	// Only the first episode's samples are reported; keeping every
	// episode's would make peak memory grow with the episode count.
	o.samples = nil
}

func (r *report) result() any {
	correct := len(r.failures) == 0
	failed := r.failed
	if !correct && failed == 0 {
		failed = uint64(len(r.failures))
	}
	attempted := r.attempted
	if attempted == 0 {
		attempted = 1
	}
	return struct {
		Correct   bool              `json:"correct"`
		Attempted uint64            `json:"attempted"`
		Failed    uint64            `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{correct, attempted, failed, r.metrics}
}

// checkNames holds the printed metric set to the one BENCHMARK.json, in
// the working directory (the repository root), declares.
func (r *report) checkNames(traced bool) error {
	for name, m := range r.metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			r.set(name, m.Unit, 0) // keep the result printable
			return fmt.Errorf("metric %s is not a number", name)
		}
	}
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return err
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		return fmt.Errorf("BENCHMARK.json: %v", err)
	}
	want := spec.EndToEnd
	if traced {
		want = spec.PerLayer
	}
	if len(want) != len(r.metrics) {
		return fmt.Errorf("printed %d metrics, BENCHMARK.json lists %d", len(r.metrics), len(want))
	}
	for _, s := range want {
		m, ok := r.metrics[s.Name]
		if !ok || m.Unit != s.Unit {
			return fmt.Errorf("metric %s (%s) missing or in another unit", s.Name, s.Unit)
		}
	}
	return nil
}

// measureUntraced runs plain episodes for the budget and reports the
// end-to-end metrics.
func measureUntraced(w *workloadSpec, seed int64, budget time.Duration) *report {
	r := newReport()
	start := time.Now()
	var eps []*episode
	for i := 0; i < maxEpisodes && (i < minEpisodes || time.Since(start) < budget); i++ {
		ep := runEpisode(w, seed, nil)
		r.add(ep, fmt.Sprintf("episode %d", i))
		eps = append(eps, ep)
	}
	var setups, allocs []float64
	for _, ep := range eps {
		setups = append(setups, ep.setup.Seconds())
		allocs = append(allocs, float64(ep.allocBytes)/(1<<20))
	}
	o := eps[0].out
	r.set("setup_s", "s", median(setups))
	r.set("ops_per_host_s", "ops/s", throughput(eps))
	r.set("alloc_mb", "MB", median(allocs))
	r.set("peak_rss_mb", "MB", peakRSSMB())
	p50, p99 := o.quantiles()
	r.set("sim_p50_us", "us", p50)
	r.set("sim_p99_us", "us", p99)
	r.set("sim_goodput_mb_s", "MB/s", o.goodput())
	if n := len(o.samples); n < 100*p99Headroom {
		r.fail(fmt.Sprintf("%d latency samples leave fewer than %d beyond the 99th percentile", n, p99Headroom))
	}
	for name, m := range r.metrics {
		if m.Value <= 0 {
			r.fail(fmt.Sprintf("end-to-end metric %s is %v", name, m.Value))
		}
	}
	return r
}

// measureTraced spends half the budget on untraced episodes and half on
// traced ones, reports the per-layer metrics from the traced ones, and
// states the tracing overhead by comparing the two halves.
func measureTraced(w *workloadSpec, seed int64, budget time.Duration) *report {
	r := newReport()
	start := time.Now()
	var plain, traced []*episode
	for i := 0; i < maxEpisodes && (i < 1 || time.Since(start) < budget/2); i++ {
		ep := runEpisode(w, seed, nil)
		r.add(ep, fmt.Sprintf("untraced episode %d", i))
		plain = append(plain, ep)
	}
	tr := newTracer()
	mid := time.Now()
	for i := 0; i < maxEpisodes && (i < 1 || time.Since(mid) < budget/2); i++ {
		ep := runEpisode(w, seed, tr)
		r.add(ep, fmt.Sprintf("traced episode %d", i))
		traced = append(traced, ep)
	}
	if err := tr.err; err != nil {
		r.fail("profiling: " + err.Error())
	}
	tr.report(r, plain, traced)
	return r
}

// throughput is verified operations per host second over the run phases
// of all episodes. The host's speed drifts in stretches of seconds to
// minutes (see README.md); pooling every episode weighs each stretch by
// its share of the run, where a median of per-episode rates jumps between
// the fast and the slow level.
func throughput(eps []*episode) float64 {
	var ops float64
	var secs float64
	for _, ep := range eps {
		ops += float64(ep.out.completed)
		secs += ep.run.Seconds()
	}
	if secs == 0 {
		return 0
	}
	return ops / secs
}

// peakRSSMB is the process's peak resident set.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// outcome is what an episode's check phase reports. Everything in it is
// simulated or counted, so it repeats exactly for a seed.
type outcome struct {
	attempted uint64 // application operations the workload issued
	completed uint64 // of those, finished and verified
	failures  []string

	samples     []sim.Time // per-operation simulated latency
	cyclesPerUs float64
	payload     uint64   // verified application payload bytes
	simSpan     sim.Time // simulated time the payload took, over all worlds

	// counts are simulated per-layer quantities (identical traced or not).
	counts map[string]float64
}

func (o *outcome) fail(msg string) { o.failures = append(o.failures, msg) }

func (o *outcome) count(name string, v float64) {
	if o.counts == nil {
		o.counts = map[string]float64{}
	}
	o.counts[name] += v
}

// failedOps counts unfinished or unverified operations plus every failed
// check.
func (o *outcome) failedOps() uint64 {
	n := uint64(len(o.failures))
	if o.completed < o.attempted {
		n += o.attempted - o.completed
	}
	return n
}

// quantiles reports the median and 99th percentile latency in simulated
// microseconds, as the nearest-rank order statistics of every sample.
func (o *outcome) quantiles() (p50, p99 float64) {
	if len(o.samples) == 0 {
		return 0, 0
	}
	s := append([]sim.Time(nil), o.samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	rank := func(q float64) float64 {
		i := int(math.Ceil(q*float64(len(s)))) - 1
		if i < 0 {
			i = 0
		}
		return float64(s[i]) / o.cyclesPerUs
	}
	return rank(0.50), rank(0.99)
}

// transfer records verified application payload and the simulated time
// it took (one world or phase).
func (o *outcome) transfer(bytes uint64, cycles sim.Time) {
	o.payload += bytes
	o.simSpan += cycles
}

// goodput is verified payload in MB (2^20 bytes) per simulated second.
func (o *outcome) goodput() float64 {
	if o.simSpan <= 0 {
		return 0
	}
	secs := float64(o.simSpan) / o.cyclesPerUs / 1e6
	return float64(o.payload) / (1 << 20) / secs
}

// fingerprint renders every simulated result of the episode; two
// episodes of one seed must produce the same string.
func (o *outcome) fingerprint() string {
	p50, p99 := o.quantiles()
	s := fmt.Sprintf("att=%d done=%d n=%d p50=%v p99=%v bytes=%d span=%d fails=%d",
		o.attempted, o.completed, len(o.samples), p50, p99, o.payload, o.simSpan, len(o.failures))
	names := make([]string, 0, len(o.counts))
	for k := range o.counts {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		s += fmt.Sprintf(" %s=%v", k, o.counts[k])
	}
	return s
}
