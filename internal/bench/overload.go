package bench

import (
	"fmt"
	"strings"

	"ashs/internal/aegis"
	"ashs/internal/core"
	"ashs/internal/fault"
	"ashs/internal/obs"
	"ashs/internal/proto/ether"
	"ashs/internal/proto/ip"
	"ashs/internal/proto/retry"
	"ashs/internal/proto/udp"
	"ashs/internal/relay"
	"ashs/internal/sandbox"
	"ashs/internal/sim"
	"ashs/internal/workload"
)

// The overload experiment drives the fan-in harness with adversarial
// open-loop traces (internal/workload) against a relay service expressed
// as per-client ASHs (internal/proto/relay), with every stage of the
// overload-control plane engaged:
//
//   - admission control: each server binding's notification ring carries a
//     high watermark; frames arriving at a full ring are shed at demux,
//     before they cost a pool buffer or any handler cycles
//     (EthBinding.Shed / EthernetIf.LoadSheds);
//   - tenant quotas: clients map onto tenants, and System.Quota refuses
//     eager handler execution to a tenant over its per-window cycle
//     budget — the message is not dropped but re-vectored to the lazy
//     user-level path, where a drainer process serves it slower;
//   - client backoff: every lost or throttled-into-the-tail request is
//     retried under deterministic jittered exponential backoff with a hard
//     retry budget (internal/proto/retry), so synchronized losers
//     desynchronize instead of re-colliding.
//
// Each cell crosses one trace shape with one fault schedule. The claim
// under test is graceful degradation: past saturation the system keeps
// serving at a high fraction of peak goodput with a bounded tail, because
// excess load is shed or deferred at the cheapest possible point instead
// of being absorbed into queues (overload_test.go asserts this).
//
// Traces round-trip through the versioned binary codec on the way in
// (Encode then Parse), so the replayed schedule is exactly what a stored
// trace file would produce and the hostile parser sits on the live path.

const (
	overloadClients = 16
	overloadTenants = 4
	overloadPort    = 9 // relay service UDP port on the server

	// overloadLanes is each client's request concurrency: the trace slice
	// is striped across this many independent sender processes (one UDP
	// source port each), so an adversarial burst is actually offered to
	// the server instead of being serialized behind one outstanding
	// request per client.
	overloadLanes = 4

	// overloadGap1xUs is the fleet-wide mean inter-arrival gap of the 1x
	// traces, in microseconds. The server's measured service capacity is
	// ~10-12 ops/ms, so 1x (10 ops/ms offered) sits right at saturation —
	// the peak-goodput operating point. The 2x trace halves the gap
	// (2x saturation) and 4x halves it again; the graceful-degradation
	// claim is that goodput holds near peak across that range instead of
	// collapsing under retry amplification.
	overloadGap1xUs = 100.0

	// overloadWarmupUs shifts every trace event so the server's filters
	// and handlers are installed before the first arrival.
	overloadWarmupUs = 50.0

	overloadSize    = 64  // payload size (mean, for heavy-tailed sizes)
	overloadMaxSize = 512 // bounded-Pareto size cap

	// overloadHighWater is each server binding's ring admission limit.
	// One binding carries all of a client's lanes, so a throttled burst
	// concentrates on one ring and admission control has something to
	// protect.
	overloadHighWater = 6

	// Tenant cycle budgets: each tenant may spend this many receive-path
	// cycles per quota window on eager handler execution; the excess is
	// throttled to the drainers. A 64-byte submit charges ~500 cycles, so
	// the budget covers ~6 eager ops per window — clear of the 1x rate
	// (~2.5 ops per tenant-window), exceeded by bursts and the 2x trace.
	overloadQuotaWindowUs = 1000
	overloadTenantBudget  = 3000

	// overloadLazyUs models the user-level cost of one drainer-served
	// request beyond the relay work itself: wakeup, scheduling, copy-out.
	// The lazy path is deliberately much slower than the eager ASH; when
	// throttled load outruns it, rings fill and admission control sheds.
	overloadLazyUs = 500

	// Client backoff policy: first retry 1-2ms out (safely above the
	// loaded round trip), doubling to a 16ms cap, at most 6 attempts per
	// operation.
	overloadBackoffBaseUs = 2000
	overloadBackoffCapUs  = 16000
	overloadRetryBudget   = 6

	overloadTraceSeed  = 101 // workload-generator seed
	overloadFaultSeed  = 7   // fault-plane seed
	overloadJitterSeed = 33  // client backoff jitter seed
)

// overloadTrace names one arrival-schedule shape of the matrix.
type overloadTrace struct {
	Name  string
	Gen   func(seed int64, s workload.Spec) *workload.Trace
	GapUs float64
}

// overloadTraces is the trace axis, in presentation order.
func overloadTraces() []overloadTrace {
	return []overloadTrace{
		{"pois-1x", workload.Poisson, overloadGap1xUs},
		{"pois-2x", workload.Poisson, overloadGap1xUs / 2},
		{"pois-4x", workload.Poisson, overloadGap1xUs / 4},
		{"heavytail", workload.HeavyTail, overloadGap1xUs},
		{"flashcrowd", workload.FlashCrowd, overloadGap1xUs},
		{"incast", workload.Incast, overloadGap1xUs},
	}
}

// overloadScheds is the fault-schedule axis (names resolved via
// fault.Named): no faults, wire loss, and device ring/pool/truncate chaos.
var overloadScheds = []string{"baseline", "loss", "device"}

// overloadEvents is the trace length (arrivals across the whole fleet).
func overloadEvents(cfg *Config) int {
	if cfg.quick() {
		return 256
	}
	return 768
}

// OverloadResult is one (trace, schedule) cell. Comparable: rerunning a
// cell must reproduce it field-for-field.
type OverloadResult struct {
	Trace string
	Sched string

	Offered   int    // arrivals the trace scheduled
	Completed uint64 // operations acknowledged within the retry budget
	Failed    uint64 // operations that exhausted the retry budget
	Retries   uint64 // retransmissions beyond each operation's first send

	GoodputMsgMs float64 // completed operations per millisecond
	MeanUs       float64 // mean completion latency from scheduled arrival
	P50Us        float64
	P99Us        float64

	Sheds          uint64 // ring high-watermark sheds (admission control)
	PoolDrops      uint64 // genuine receive-pool exhaustion
	InjectedDrops  uint64 // device losses forced by the fault plane
	CRCDrops       uint64 // frames rejected by the board's frame check
	QuotaThrottled uint64 // handler executions refused to the lazy path
	LazyServed     uint64 // requests served by the user-level drainers
	RelayRejected  uint64 // relay-level refusals (caps, quota, malformed)
	RelayExpired   uint64 // blobs TTL-expired before delivery
}

// overloadRelayConfig bounds the relay so the adversarial traces actually
// hit its caps: short TTLs and per-conversation/tenant limits.
func overloadRelayConfig() relay.Config {
	return relay.Config{
		TTLUs:           5_000,
		BurnTTLUs:       2_000,
		MaxBlobBytes:    1024,
		MaxBlobsPerConv: 64,
		MaxTenantBytes:  8 << 10,
	}
}

// overloadTenant maps a client index onto its tenant label.
func overloadTenant(client int) string {
	return fmt.Sprintf("t%d", client%overloadTenants)
}

// overloadReq extracts the relay request and its UDP source port (the
// client lane to answer) from a striped receive buffer, validating lengths
// against the UDP header. ok=false means the frame is malformed or
// truncated and must take the garbage path.
func overloadReq(raw []byte, frameLen int) (req []byte, srcPort uint16, ok bool) {
	const off = ether.HeaderLen + ip.HeaderLen + udp.HeaderLen
	if frameLen < off {
		return nil, 0, false
	}
	srcPort = uint16(raw[aegis.StripedIndex(off-8)])<<8 | uint16(raw[aegis.StripedIndex(off-7)])
	udpLen := int(raw[aegis.StripedIndex(off-4)])<<8 | int(raw[aegis.StripedIndex(off-3)])
	n := udpLen - udp.HeaderLen
	if n <= 0 || off+n > frameLen {
		return nil, 0, false
	}
	req = make([]byte, n)
	for j := 0; j < n; j++ {
		req[j] = raw[aegis.StripedIndex(off+j)]
	}
	return req, srcPort, true
}

// runOverloadCell replays one trace through one fault schedule: a fresh
// 16-client fan-in world, per-client relay ASHs with admission control and
// tenant quotas on the server, backoff clients replaying their trace
// slices open-loop.
func runOverloadCell(cfg *Config, tr overloadTrace, schedName string) OverloadResult {
	sched, ok := fault.Named(schedName)
	if !ok {
		panic("bench: unknown fault schedule " + schedName)
	}
	spec := workload.Spec{
		Clients:   overloadClients,
		Events:    overloadEvents(cfg),
		MeanGapUs: tr.GapUs,
		Size:      overloadSize,
		MaxSize:   overloadMaxSize,
	}
	// Round-trip the generated trace through the binary codec: the replay
	// consumes exactly what a stored trace file would parse to.
	trace, err := workload.Parse(tr.Gen(overloadTraceSeed, spec).Encode())
	if err != nil {
		panic(fmt.Sprintf("bench: trace codec round-trip: %v", err))
	}

	// Lane clients need room for overloadLanes sockets each (a socket
	// allocates tx+rx staging buffers) and enough receive-pool buffers
	// that duplicate replies to retransmitted requests don't exhaust the
	// pool, so size them up from the scale experiment's one-socket
	// default.
	w := newFaninWorld(faninServerMem, faninPool(overloadClients))
	w.addHosts(overloadClients, 1<<20, 4*overloadLanes)
	pl := fault.New(overloadFaultSeed, sched)
	pl.AttachWire(w.sw)
	pl.AttachEthernet(w.srv.e)
	pl.AttachSystem(w.sys)
	w.sys.Quota = sandbox.NewQuotaLedger(
		w.prof.Cycles(overloadQuotaWindowUs), sim.Time(overloadTenantBudget))

	rsrv := relay.NewServer(overloadRelayConfig())
	var lazyServed uint64

	// Server: one process per client runs the eager ASH and the lazy
	// drainer for that client's binding. The ASH answers from the
	// interrupt path; quota-throttled and garbage frames fall through to
	// the ring, where the drainer serves them at user level (slower, but
	// served — throttling defers work, it does not discard it).
	for i, c := range w.cli {
		tenant := overloadTenant(i)
		w.srv.k.Spawn(fmt.Sprintf("relay-%d", i), func(p *aegis.Process) {
			// A 5-atom peer filter (any source port): all of client i's
			// lanes land on one binding, so its bursts concentrate on one
			// ring and admission control has a meaningful watermark.
			f := peerFilter(w.srv.ip, ip.ProtoUDP, overloadPort, c.ip)
			b, err := w.srv.e.BindFilter(p, f)
			if err != nil {
				panic(err)
			}
			b.Ring.HighWater = overloadHighWater
			dst := c.e.Addr()
			ash := w.sys.NewFuncASH(p, fmt.Sprintf("relay-%d", i), true,
				func(ctx *core.Ctx) aegis.Disposition {
					// Header validation against the UDP length field.
					ctx.Straightline(24, 8)
					req, lane, ok := overloadReq(ctx.RawData(), ctx.Entry().Len)
					if !ok {
						return aegis.DispToUser
					}
					// Copy-in from the striped buffer, byte-wise.
					ctx.Straightline(2*len(req), len(req))
					rep, insns, memops := rsrv.Handle(w.prof.Us(ctx.When()), tenant, req)
					ctx.Straightline(insns, memops)
					ctx.Send(dst, 0, append(w.udpReply(dst, overloadPort, lane, len(rep)), rep...))
					return aegis.DispConsumed
				})
			ash.Tenant = tenant
			ash.AttachEth(b)

			for {
				e, ok := b.Ring.WaitRecvUntil(p, 0)
				if !ok {
					return
				}
				raw := p.K.Bytes(e.Addr, 2*e.Len)
				req, lane, wellFormed := overloadReq(raw, e.Len)
				if wellFormed {
					// User-level service: wakeup, scheduling, and copy-out
					// overhead first, then parse + copy + relay work with
					// no SFI multiplier but a full syscall per reply send.
					p.Compute(w.prof.Cycles(overloadLazyUs))
					rep, insns, memops := rsrv.Handle(w.prof.Us(p.K.Now()), tenant, req)
					p.Compute(sim.Time(24 + 2*len(req) + insns + 2*memops))
					w.srv.e.Send(p, dst, append(w.udpReply(dst, overloadPort, lane, len(rep)), rep...))
					lazyServed++
				}
				w.srv.e.FreeBuf(e.BufIndex)
			}
		})
	}

	// Clients: replay the per-client trace slices open-loop, striped
	// across overloadLanes concurrent sender processes per client (one UDP
	// source port each) so a burst of closely-spaced arrivals is actually
	// offered concurrently instead of serializing behind one outstanding
	// request. Arrival times come from the trace alone; a lane running
	// behind schedule issues immediately but measures latency from the
	// scheduled arrival, so queueing delay is charged to the system, not
	// forgiven.
	perClient := trace.PerClient(overloadClients)
	hist := &obs.Histogram{}
	ends := make([]sim.Time, overloadClients*overloadLanes)
	var completed, failed, retries uint64
	done := 0
	for i, c := range w.cli {
		evs := perClient[i]
		for lane := 0; lane < overloadLanes; lane++ {
			lanePort := uint16(faninClientPort + lane)
			c.k.Spawn(fmt.Sprintf("client-%d", lane), func(p *aegis.Process) {
				defer func() { done++ }()
				sock := udp.NewSocket(
					w.stack(p, c, listenFilter(c.ip, ip.ProtoUDP, lanePort)),
					lanePort, udp.Options{})
				bo := retry.New(retry.Policy{
					BaseUs: overloadBackoffBaseUs,
					CapUs:  overloadBackoffCapUs,
					Budget: overloadRetryBudget,
				}, overloadJitterSeed, i*overloadLanes+lane)
				for idx, ev := range evs {
					if idx%overloadLanes != lane {
						continue
					}
					schedAt := w.prof.Cycles(ev.AtUs + overloadWarmupUs)
					p.SleepUntil(schedAt)
					seq := uint16(idx)
					var op byte
					var req []byte
					switch {
					case idx%16 == 11:
						op, req = relay.OpBurn, relay.BurnReq(ev.Conv)
					case idx%4 == 3:
						op, req = relay.OpPoll, relay.PollReq(ev.Conv)
					default:
						payload := make([]byte, ev.Size)
						for j := range payload {
							payload[j] = byte(i + j)
						}
						op, req = relay.OpSubmit, relay.SubmitReq(ev.Conv, seq, payload)
					}
					bo.Reset()
					acked := false
					for attempt := 0; ; attempt++ {
						waitUs, ok := bo.Next()
						if !ok {
							failed++
							break
						}
						if attempt > 0 {
							retries++
						}
						if err := sock.SendBytes(w.srv.ip, overloadPort, req); err != nil {
							panic(err)
						}
						deadline := p.K.Now() + w.prof.Cycles(waitUs)
						for {
							m, got, err := sock.RecvUntil(false, deadline)
							if err != nil {
								panic(err)
							}
							if !got {
								break // timeout: back off and retransmit
							}
							rep := append([]byte(nil), m.Bytes(p.K)...)
							sock.Release(m)
							rop, _, rseq, rcid, _, wellFormed := relay.ParseReply(rep)
							if wellFormed && rop == op && rcid == ev.Conv &&
								(op != relay.OpSubmit || rseq == seq) {
								acked = true
								break
							}
							// A stale reply to an earlier attempt: discard and
							// keep listening inside the same window.
						}
						if acked {
							break
						}
					}
					if acked {
						completed++
						hist.Observe(p.K.Now() - schedAt)
					}
				}
				ends[i*overloadLanes+lane] = p.K.Now()
			})
		}
	}

	// The drainers block forever, so the engine never drains on its own:
	// advance in slices until every client lane finishes or the bound
	// passes.
	limit := w.prof.Cycles(600_000_000) // 10 simulated minutes
	slice := w.prof.Cycles(10_000)
	for done < overloadClients*overloadLanes && w.eng.Now() < limit && w.eng.Pending() > 0 {
		w.eng.RunFor(slice)
	}
	checkPoolDrained(w.eng, w.sw.Pool)

	res := OverloadResult{
		Trace: tr.Name, Sched: schedName,
		Offered:   len(trace.Events),
		Completed: completed, Failed: failed, Retries: retries,
	}
	var hi sim.Time
	for _, e := range ends {
		if e > hi {
			hi = e
		}
	}
	if us := w.prof.Us(hi); us > 0 {
		res.GoodputMsgMs = float64(completed) / us * 1000
	}
	if n := hist.Count(); n > 0 {
		res.MeanUs = w.prof.Us(hist.Sum()) / float64(n)
	}
	res.P50Us = w.prof.Us(hist.Quantile(0.50))
	res.P99Us = w.prof.Us(hist.Quantile(0.99))
	res.Sheds = w.srv.e.LoadSheds
	res.PoolDrops = w.srv.e.DroppedNoBuf
	res.InjectedDrops = w.srv.e.InjectedRingDrops + w.srv.e.InjectedPoolDrops
	res.CRCDrops = w.srv.e.CRCDrops
	res.QuotaThrottled = w.sys.QuotaThrottled
	res.LazyServed = lazyServed
	res.RelayRejected = rsrv.Rejected
	res.RelayExpired = rsrv.Expired
	return res
}

// overloadCells enumerates the matrix, trace-major so the rendered table
// reads straight out of the result slice.
func overloadCells(cfg *Config) []Cell {
	return gridCells(overloadTraces(), func(overloadTrace) []string { return overloadScheds },
		func(tr overloadTrace, sc string) string { return fmt.Sprintf("overload/%s/%s", tr.Name, sc) },
		func(cc *Config, tr overloadTrace, sc string) any { return runOverloadCell(cc, tr, sc) })
}

// RunOverload executes the full matrix.
func RunOverload(cfg *Config) []OverloadResult {
	vs := runCells(cfg, overloadCells(cfg))
	out := make([]OverloadResult, len(vs))
	for i, v := range vs {
		out[i] = v.(OverloadResult)
	}
	return out
}

// RenderOverload formats the matrix: offered vs completed load, latency
// from scheduled arrival, and where the excess went (shed, throttled,
// lazily served, rejected).
func RenderOverload(results []OverloadResult) string {
	var b strings.Builder
	b.WriteString("Overload: adversarial open-loop traces vs graceful degradation\n")
	b.WriteString("  (lat from scheduled arrival; shed = ring admission control,\n")
	b.WriteString("   thr = tenant quota refusals to the lazy path, lazy = drainer-served)\n")
	fmt.Fprintf(&b, "  %-10s %-8s %5s %5s %4s %5s %9s %8s %8s %5s %5s %5s %5s %5s\n",
		"trace", "sched", "offer", "compl", "fail", "retry", "gdpt[m/ms]",
		"p50[us]", "p99[us]", "shed", "thr", "lazy", "rej", "drop")
	fmt.Fprintf(&b, "  %s\n", strings.Repeat("-", 104))
	for _, r := range results {
		drops := r.PoolDrops + r.InjectedDrops + r.CRCDrops
		fmt.Fprintf(&b, "  %-10s %-8s %5d %5d %4d %5d %9.2f %8.1f %8.1f %5d %5d %5d %5d %5d\n",
			r.Trace, r.Sched, r.Offered, r.Completed, r.Failed, r.Retries,
			r.GoodputMsgMs, r.P50Us, r.P99Us,
			r.Sheds, r.QuotaThrottled, r.LazyServed, r.RelayRejected, drops)
	}
	return b.String()
}
