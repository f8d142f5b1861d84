package bench

import (
	"fmt"
	"strings"

	"ashs/internal/aegis"
	"ashs/internal/dpf"
	"ashs/internal/flyweight"
	"ashs/internal/proto/ether"
	"ashs/internal/proto/ip"
	"ashs/internal/proto/nfs"
	"ashs/internal/proto/retry"
	"ashs/internal/proto/tcp"
	"ashs/internal/workload"
)

// The megascale experiment pushes the scale experiment's fan-in claim
// three orders of magnitude further: one full aegis server host versus up
// to 10^6 clients. Full client hosts cap the sweep at a few hundred (each
// pins a kernel arena and receive pool), so the clients here are
// internal/flyweight endpoints — wire-exact traffic generators with no
// kernel behind them, attached through the fan-in harness's addFleet —
// while the measured side is the harness server scale measures: same
// interrupt path, same DPF trie, same striping DMA and ASH dispatch.
//
// Three workloads sweep N:
//
//   - udp-echo: one 3-atom source filter plus a shared echo ASH per
//     endpoint. At N=10^6 the server demuxes against a million installed
//     filters; demux cyc/msg staying flat is the headline sub-linearity.
//   - tcp-pp:   full fan-in accept path (per-client listen filter, 6-atom
//     connection filter, AcceptHandoff, shared ConnTable); reports the
//     table's peak bucket spread.
//   - nfs-read: RPC fan-in to one server socket whose ring runs a
//     high-watermark, so the incast phase exercises shed-then-retry.
//
// Each cell drives an open-loop Poisson trace (steady state), then two
// synchronized incast waves; steady-state and incast tails are reported
// separately. Worlds are self-contained and deterministic, so output is
// byte-identical at any -parallel level.

var megaWorkloads = []string{"udp-echo", "tcp-pp", "nfs-read"}

// megascaleNs is the per-workload endpoint sweep. TCP and NFS keep full
// server-side state per client (connections; resolver entries), so their
// sweeps stop earlier; udp-echo is the pure-demux ladder that reaches
// 10^6 installed filters. Quick mode caps the ladders for CI.
func megascaleNs(cfg *Config, wl string) []int {
	switch wl {
	case "udp-echo":
		if cfg.quick() {
			return []int{1024, 8192, 65536}
		}
		return []int{1024, 8192, 65536, 262144, 1048576}
	case "tcp-pp":
		if cfg.quick() {
			return []int{256, 1024}
		}
		return []int{256, 1024, 4096}
	case "nfs-read":
		if cfg.quick() {
			return []int{1024, 8192}
		}
		return []int{1024, 8192, 65536}
	}
	panic("bench: unknown megascale workload " + wl)
}

const (
	megaSeed      = 61096 // fixed run seed (trace + retry jitter)
	megaWaves     = 2     // synchronized incast waves per cell
	megaQuietUs   = 50_000
	megaWaveGapUs = 500_000

	// Offered steady-state load: fleet-wide mean inter-arrival gaps,
	// chosen below each workload's service capacity so the Poisson phase
	// measures queueing, not collapse. Capacity is reply-serialization
	// bound on the 10-Mb/s Ethernet (the scale experiment's measured
	// ceilings): ~10 echoes/ms, ~3.6 TCP rounds/ms, and only ~1.1 NFS
	// reads/ms (a 1-KiB read reply alone serializes for ~870 us).
	megaUDPGapUs = 150
	megaTCPGapUs = 600
	megaNFSGapUs = 2500

	// megaNFSHighWater is the nfsd ring's admission limit: the incast
	// wave overruns it and the shed-then-retry path must recover.
	megaNFSHighWater = 96

	megaTCPServerMem = 512 << 20 // 4096 live connections of window state
	megaUDPPool      = 64        // echo ASH consumes in the interrupt path
	megaNFSPool      = 256       // ring holds frames up to the high water
)

// megaEvents sizes the steady-state trace.
func megaEvents(cfg *Config, wl string, n int) int {
	full := 32768
	switch wl {
	case "tcp-pp":
		full = 8 * n // ~8 ping-pong rounds per connection
		if full > 32768 {
			full = 32768
		}
	case "nfs-read":
		full = 8192 // NFS service is ~9x slower than the echo path
	}
	if cfg.quick() {
		full /= 4
	}
	return full
}

// megaWaveClients sizes the incast waves: each wave must be drainable
// within the fleet's retry span, and the NFS server serves ~1.1 req/ms,
// so its waves are half-size.
func megaWaveClients(wl string) int {
	if wl == "nfs-read" {
		return 512
	}
	return 1024
}

// megaRetry is the per-workload backoff schedule (Budget counts
// reply-wait windows; see flyweight.Config). Windows sit well above each
// workload's worst incast tail so a queued-but-alive request is not
// retransmitted into the burst that delayed it — except NFS, whose
// tighter window is the point: shed requests must come back quickly, and
// the van der Corput first slot spreads the comeback.
func megaRetry(wl string) retry.Policy {
	switch wl {
	case "udp-echo":
		return retry.Policy{BaseUs: 400_000, Budget: 4}
	case "tcp-pp":
		return retry.Policy{BaseUs: 800_000, Budget: 6}
	case "nfs-read":
		return retry.Policy{BaseUs: 50_000, CapUs: 800_000, Budget: 10}
	}
	panic("bench: unknown megascale workload " + wl)
}

// MegaResult is one (workload, N) cell's measurement.
type MegaResult struct {
	Workload string
	N        int
	// Filters and TrieDepth describe the server's DPF engine after
	// install: at N=10^6 the udp-echo trie holds a million filters and is
	// still 3 deep.
	Filters   int
	TrieDepth int
	Msgs      uint64 // completed client operations (both phases)
	// CycPerMsg / DemuxPerMsg are the server's kernel receive cost per
	// accepted frame (faninWorld.rxCost, as for scale).
	CycPerMsg   float64
	DemuxPerMsg float64
	// BytesPerEp is the static flyweight footprint per endpoint.
	BytesPerEp int
	// P99Us is the steady-state (Poisson) tail; IncastP99Us the tail of
	// the synchronized waves.
	P99Us       float64
	IncastP99Us float64
	Retries     uint64
	Failures    uint64
	Sheds       uint64 // server high-watermark sheds (nfs-read)
	// Conns / Spread: peak concurrent ConnTable occupancy and the
	// max/mean bucket load at that peak (tcp-pp only).
	Conns  int
	Spread float64
}

// driveMega replays a Poisson steady-state trace (events arrivals of size
// bytes, gapUs apart on average) and then the incast waves through flt,
// drains the world, and folds the server counters and fleet histograms
// into the result.
func driveMega(w *faninWorld, flt *flyweight.Fleet, wl string, n, events int, gapUs float64, size int) MegaResult {
	tr := workload.Poisson(megaSeed, workload.Spec{
		Clients: n, Events: events, MeanGapUs: gapUs, Size: size})
	flt.Run(tr, megaWaves, megaWaveClients(wl), megaQuietUs, megaWaveGapUs)
	w.eng.Run()
	checkPoolDrained(w.eng, w.sw.Pool)
	r := MegaResult{
		Workload: wl, N: n,
		Filters: w.srv.e.Filters(), TrieDepth: w.srv.e.TrieDepth(),
		Msgs:       flt.Completed(),
		BytesPerEp: flt.StaticBytesPerEndpoint(),
		Retries:    flt.Retries, Failures: flt.Failures,
		Sheds: w.srv.e.LoadSheds,
	}
	r.CycPerMsg, r.DemuxPerMsg = w.rxCost()
	r.P99Us = w.prof.Us(flt.Hist.Quantile(0.99))
	r.IncastP99Us = w.prof.Us(flt.IncastHist.Quantile(0.99))
	return r
}

func runMegaCell(wl string, n int, cfg *Config) MegaResult {
	events := megaEvents(cfg, wl, n)
	switch wl {
	case "udp-echo":
		return runMegaUDP(n, events)
	case "tcp-pp":
		return runMegaTCP(n, events)
	case "nfs-read":
		return runMegaNFS(n, events)
	}
	panic("bench: unknown megascale workload " + wl)
}

// megaSourceFilter is the per-endpoint demux filter of the udp-echo
// sweep: 3 atoms (IPv4, UDP, source host). Every endpoint's filter
// shares the first two levels and diverges in one multi-way branch on
// the source address, which is why a 10^6-filter trie is 3 deep and a
// walk's cost is flat in N.
func megaSourceFilter(src ip.Addr) *dpf.Filter {
	return dpf.NewFilter().
		Eq16(12, ether.TypeIPv4).
		Eq8(ether.HeaderLen+9, ip.ProtoUDP).
		Eq32(ether.HeaderLen+12, ipU32(src))
}

// runMegaUDP: one shared echo ASH behind N source filters. The handler
// is shared — a per-endpoint closure would put N copies of everything a
// closure pins on the heap — which works because echoUDP derives the
// reply's destination from the frame's provenance, not captured state.
func runMegaUDP(n, events int) MegaResult {
	w := newFaninWorld(faninServerMem, megaUDPPool)
	flt := w.addFleet(flyweight.UDPEcho, n, faninEchoPort, megaRetry("udp-echo"))

	w.srv.k.Spawn("echo", func(p *aegis.Process) {
		ash := w.sys.NewFuncASH(p, "mega-echo", true, w.echoUDP)
		for i := 0; i < n; i++ {
			b, err := w.srv.e.BindFilter(p, megaSourceFilter(flt.Addr(i)))
			if err != nil {
				panic(err)
			}
			// Attach directly: AttachEth also registers a detach closure
			// per binding, which is pure overhead times 10^6 here.
			b.Handler = ash
		}
	})

	return driveMega(w, flt, "udp-echo", n, events, megaUDPGapUs, faninPayload)
}

// runMegaTCP: the harness's fan-in accept path served to flyweight
// FlyConn clients. The server echoes until the client's FIN (flyweights
// close first), so connection lifetimes follow the trace without the
// server knowing the schedule.
func runMegaTCP(n, events int) MegaResult {
	w := newFaninWorld(megaTCPServerMem, faninPool(n))
	flt := w.addFleet(flyweight.TCPPingPong, n, faninTCPPort, megaRetry("tcp-pp"))
	w.resolveFleet(flt)

	cs := &faninConns{tbl: tcp.NewConnTable(n / 4)}
	for i := 0; i < n; i++ {
		w.srv.k.Spawn(fmt.Sprintf("srv-%06d", i), func(p *aegis.Process) {
			w.acceptEcho(p, cs, flt.Addr(i), -1)
		})
	}

	r := driveMega(w, flt, "tcp-pp", n, events, megaTCPGapUs, faninPayload)
	r.Conns = cs.peak
	if cs.peak > 0 && len(cs.loads) > 0 {
		max := 0
		for _, l := range cs.loads {
			if l > max {
				max = l
			}
		}
		r.Spread = float64(max) * float64(len(cs.loads)) / float64(cs.peak)
	}
	return r
}

// runMegaNFS: RPC fan-in against one nfsd socket whose ring runs the
// high-watermark admission plane. The incast waves overrun it; sheds and
// the fleet's jittered retries are the measurement.
func runMegaNFS(n, events int) MegaResult {
	w := newFaninWorld(faninServerMem, megaNFSPool)
	flt := w.addFleet(flyweight.NFSRead, n, faninNFSPort, megaRetry("nfs-read"))
	w.resolveFleet(flt)
	if fh, _ := w.serveNFS(megaNFSHighWater); uint32(fh) != uint32(nfs.RootHandle)+1 {
		panic("megascale: unexpected NFS file handle")
	}

	return driveMega(w, flt, "nfs-read", n, events, megaNFSGapUs, faninReadBytes)
}

// megascaleCells enumerates the sweep, workload-major like scale.
func megascaleCells(cfg *Config) []Cell {
	return gridCells(megaWorkloads, func(wl string) []int { return megascaleNs(cfg, wl) },
		func(wl string, n int) string { return fmt.Sprintf("megascale/%s/N=%d", wl, n) },
		func(cc *Config, wl string, n int) any { return runMegaCell(wl, n, cc) })
}

// MegascaleSweep runs the full megascale cell grid and returns the
// results in canonical cell order — the entry point cmd/megascalebench
// uses to regenerate the committed BENCH_megascale.json snapshot.
func MegascaleSweep(cfg *Config) []MegaResult {
	vs := runCells(cfg, megascaleCells(cfg))
	out := make([]MegaResult, len(vs))
	for i, v := range vs {
		out[i] = v.(MegaResult)
	}
	return out
}

var megaWorkloadDesc = map[string]string{
	"udp-echo": fmt.Sprintf("%d-byte UDP echo, one 3-atom filter + shared ASH per endpoint", faninPayload),
	"tcp-pp":   fmt.Sprintf("%d-byte TCP ping-pong via fan-in accept + ConnTable", faninPayload),
	"nfs-read": fmt.Sprintf("%d-byte NFS reads, one socket, ring high-water %d", faninReadBytes, megaNFSHighWater),
}

// renderMegascale formats one table per workload. Column sets differ
// where the workloads measure different things (bucket spread is a
// ConnTable property; sheds an admission-control one).
func renderMegascale(cfg *Config, vs []any) string {
	var b strings.Builder
	b.WriteString("Megascale: flyweight fan-in, one full server host\n")
	b.WriteString("  (clients are kernel-free flyweight endpoints; the server is the same full\n")
	b.WriteString("   aegis kernel as `scale` — cyc/msg computed identically)\n")
	idx := 0
	for _, wl := range megaWorkloads {
		fmt.Fprintf(&b, "  %s: %s\n", wl, megaWorkloadDesc[wl])
		fmt.Fprintf(&b, "    %8s  %8s  %5s  %6s  %9s  %8s  %5s  %8s  %11s  %7s  %5s",
			"N", "filters", "depth", "msgs", "demux/msg", "cyc/msg", "B/ep",
			"p99[us]", "incast[us]", "retries", "fail")
		switch wl {
		case "tcp-pp":
			fmt.Fprintf(&b, "  %6s  %6s", "conns", "spread")
		case "nfs-read":
			fmt.Fprintf(&b, "  %6s", "sheds")
		}
		b.WriteByte('\n')
		for range megascaleNs(cfg, wl) {
			r := vs[idx].(MegaResult)
			idx++
			fmt.Fprintf(&b, "    %8d  %8d  %5d  %6d  %9.1f  %8.1f  %5d  %8.1f  %11.1f  %7d  %5d",
				r.N, r.Filters, r.TrieDepth, r.Msgs, r.DemuxPerMsg, r.CycPerMsg,
				r.BytesPerEp, r.P99Us, r.IncastP99Us, r.Retries, r.Failures)
			switch wl {
			case "tcp-pp":
				fmt.Fprintf(&b, "  %6d  %6.2f", r.Conns, r.Spread)
			case "nfs-read":
				fmt.Fprintf(&b, "  %6d", r.Sheds)
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}
