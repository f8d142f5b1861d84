package bench

import (
	"fmt"
	"strings"

	"ashs/internal/aegis"
	"ashs/internal/obs"
	"ashs/internal/proto/ip"
	"ashs/internal/proto/nfs"
	"ashs/internal/proto/tcp"
	"ashs/internal/proto/udp"
	"ashs/internal/sim"
)

// The scale experiment measures many-client fan-in: N client hosts on one
// Ethernet segment all talk to a single server host, for N up to 512, and
// the server's per-message receive cost is examined as endpoints multiply.
// The paper's claim under test is that ASH-style demultiplexing scales
// sub-linearly: the DPF trie classifies a frame in O(filter depth)
// regardless of how many endpoint filters are installed (the per-endpoint
// atoms collapse into one multi-way branch), and batched interrupt service
// amortizes the interrupt entry across a burst of arrivals, so cycles per
// message at N=512 are far below 512x the N=1 cost.
//
// Three workloads fan in, each a (workload, N) cell of the runner:
//
//   - udp-ash:  64-byte UDP echo answered entirely by a per-client ASH
//   - tcp-fast: 64-byte TCP ping-pong through the small-message fast path
//   - nfs-read: 1 KiB NFS reads against one server socket
//
// Each cell is a fan-in harness world (fanin.go) with full client hosts.

// scaleNs is the client-count sweep.
var scaleNs = []int{1, 4, 16, 64, 256, 512}

// scaleWorkloads names the fan-in workloads, in presentation order.
var scaleWorkloads = []string{"udp-ash", "tcp-fast", "nfs-read"}

const (
	scaleStaggerUs = 5 // per-client start offset

	// Client hosts are deliberately tiny (a 512-host world must fit in
	// memory): enough for one UDP socket, one TCP connection, and an
	// 8-buffer receive pool.
	scaleClientMem    = 256 << 10
	scaleClientRxBufs = 8
)

// ScaleResult is one (workload, N) cell's measurement.
type ScaleResult struct {
	Workload string
	N        int
	Msgs     uint64  // client operations completed
	ThrMsgMs float64 // aggregate throughput, messages per millisecond
	MeanUs   float64 // mean client latency
	P50Us    float64 // histogram-bucket p50 upper bound
	P99Us    float64 // histogram-bucket p99 upper bound
	// CycPerMsg is the server's kernel receive cost per accepted frame:
	// interrupt entries actually taken plus driver service plus DPF
	// classification. Sub-linear growth vs N is the experiment's claim.
	CycPerMsg   float64
	DemuxPerMsg float64 // DPF classification cycles per accepted frame
	BatchedPct  float64 // interrupt entries absorbed by batching, percent
}

// runScaleCell builds a fresh n-client world, fans the workload in, and
// folds client latencies plus server counters into the result.
func runScaleCell(workload string, n, m int) ScaleResult {
	w := newFaninWorld(faninServerMem, faninPool(n))
	w.addHosts(n, scaleClientMem, scaleClientRxBufs)
	cl := &scaleClock{starts: make([]sim.Time, n), ends: make([]sim.Time, n)}

	switch workload {
	case "udp-ash":
		runUDPASH(w, m, cl)
	case "tcp-fast":
		runTCPFast(w, m, cl)
	case "nfs-read":
		runNFSRead(w, m, cl)
	default:
		panic("bench: unknown scale workload " + workload)
	}
	w.eng.Run()
	checkPoolDrained(w.eng, w.sw.Pool)

	var lo, hi sim.Time
	for i := 0; i < n; i++ {
		if i == 0 || cl.starts[i] < lo {
			lo = cl.starts[i]
		}
		if cl.ends[i] > hi {
			hi = cl.ends[i]
		}
	}
	r := ScaleResult{Workload: workload, N: n, Msgs: cl.hist.Count()}
	if us := w.prof.Us(hi - lo); us > 0 {
		r.ThrMsgMs = float64(r.Msgs) / us * 1000
	}
	if r.Msgs > 0 {
		r.MeanUs = w.prof.Us(cl.hist.Sum()) / float64(r.Msgs)
	}
	r.P50Us = w.prof.Us(cl.hist.Quantile(0.50))
	r.P99Us = w.prof.Us(cl.hist.Quantile(0.99))
	r.CycPerMsg, r.DemuxPerMsg = w.rxCost()
	intr, batched := w.srv.k.Interrupts, w.srv.k.BatchedInterrupts
	if total := intr + batched; total > 0 {
		r.BatchedPct = 100 * float64(batched) / float64(total)
	}
	return r
}

// scaleClock collects a cell's client-side measurements: every round's
// latency, and each client's first-send and last-reply times.
type scaleClock struct {
	hist         obs.Histogram
	starts, ends []sim.Time
}

// rounds times client i's m closed-loop rounds.
func (cl *scaleClock) rounds(p *aegis.Process, i, m int, round func(j int)) {
	cl.starts[i] = p.K.Now()
	for j := 0; j < m; j++ {
		t0 := p.K.Now()
		round(j)
		cl.hist.Observe(p.K.Now() - t0)
	}
	cl.ends[i] = p.K.Now()
}

// runUDPASH installs one 6-atom filter plus echo ASH per client on the
// server; each client ping-pongs m 64-byte datagrams through its own
// socket. The server never schedules a process: the handlers answer from
// the interrupt path.
func runUDPASH(w *faninWorld, m int, cl *scaleClock) {
	w.srv.k.Spawn("echo", func(p *aegis.Process) {
		for i, c := range w.cli {
			f := connFilter(w.srv.ip, ip.ProtoUDP, faninEchoPort, c.ip, faninClientPort)
			b, err := w.srv.e.BindFilter(p, f)
			if err != nil {
				panic(err)
			}
			ash := w.sys.NewFuncASH(p, fmt.Sprintf("udp-echo-%d", i), true, w.echoUDP)
			ash.AttachEth(b)
		}
	})

	for i, c := range w.cli {
		c.k.Spawn("client", func(p *aegis.Process) {
			sock := udp.NewSocket(
				w.stack(p, c, listenFilter(c.ip, ip.ProtoUDP, faninClientPort)),
				faninClientPort, udp.Options{})
			payload := make([]byte, faninPayload)
			for j := range payload {
				payload[j] = byte(i + j)
			}
			p.Compute(w.prof.Cycles(float64(i) * scaleStaggerUs))
			cl.rounds(p, i, m, func(int) {
				if err := sock.SendBytes(w.srv.ip, faninEchoPort, payload); err != nil {
					panic(err)
				}
				msg, err := sock.Recv(false)
				if err != nil {
					panic(err)
				}
				if msg.N != faninPayload {
					panic(fmt.Sprintf("scale: echo returned %d bytes", msg.N))
				}
				sock.Release(msg)
			})
		})
	}
}

// runTCPFast accepts one connection per client through the harness's
// fan-in accept path, echoes m small messages through the fast path, and
// closes.
func runTCPFast(w *faninWorld, m int, cl *scaleClock) {
	cs := &faninConns{tbl: tcp.NewConnTable(0)}
	for i, c := range w.cli {
		w.srv.k.Spawn(fmt.Sprintf("srv-%d", i), func(p *aegis.Process) {
			w.acceptEcho(p, cs, c.ip, m)
		})
	}

	for i, c := range w.cli {
		c.k.Spawn("client", func(p *aegis.Process) {
			p.Compute(w.prof.Cycles(float64(i) * scaleStaggerUs))
			st := w.stack(p, c, listenFilter(c.ip, ip.ProtoTCP, faninClientPort))
			conn, err := tcp.Connect(st, w.tcpConfig(false), faninClientPort, w.srv.ip, faninTCPPort)
			if err != nil {
				panic(err)
			}
			payload := make([]byte, faninPayload)
			for j := range payload {
				payload[j] = byte(i ^ j)
			}
			buf := p.AS.MustAlloc(faninPayload, "reply")
			cl.rounds(p, i, m, func(int) {
				if err := conn.WriteBytes(payload); err != nil {
					panic(err)
				}
				if err := conn.ReadFull(buf.Base, faninPayload); err != nil {
					panic(err)
				}
			})
			_ = conn.Close()
		})
	}
}

// runNFSRead serves one in-memory file from a single server socket; each
// client issues m 1 KiB reads. The server is one process draining one
// ring — fan-in pressure shows up as queueing in the latency tail.
func runNFSRead(w *faninWorld, m int, cl *scaleClock) {
	fh, data := w.serveNFS(0)
	for i, c := range w.cli {
		c.k.Spawn("client", func(p *aegis.Process) {
			p.Compute(w.prof.Cycles(float64(i) * scaleStaggerUs))
			sock := udp.NewSocket(
				w.stack(p, c, listenFilter(c.ip, ip.ProtoUDP, faninClientPort)),
				faninClientPort, udp.Options{})
			cli := nfs.NewClient(sock, w.srv.ip, faninNFSPort)
			// Fan-in queueing at N=512 runs to hundreds of milliseconds;
			// the default 100 ms retry timer would fire on queued-but-alive
			// requests and double the load exactly when it hurts.
			cli.RetryUs = 1_000_000
			cli.MaxRetryUs = 4_000_000
			cl.rounds(p, i, m, func(j int) {
				off := uint32(j*faninReadBytes) % faninFileBytes
				b, err := cli.Read(p, fh, off, faninReadBytes)
				if err != nil {
					panic(err)
				}
				if len(b) != faninReadBytes || b[0] != data[off] {
					panic("scale: short or corrupt NFS read")
				}
			})
		})
	}
}

// scaleMsgs is the per-client message count.
func scaleMsgs(cfg *Config) int {
	if cfg.quick() {
		return 4
	}
	return 8
}

// scaleCells enumerates the sweep, workload-major so each workload's table
// reads straight out of the result slice.
func scaleCells(m int) []Cell {
	return gridCells(scaleWorkloads, func(string) []int { return scaleNs },
		func(wl string, n int) string { return fmt.Sprintf("scale/%s/N=%d", wl, n) },
		func(_ *Config, wl string, n int) any { return runScaleCell(wl, n, m) })
}

var scaleWorkloadDesc = map[string]string{
	"udp-ash":  fmt.Sprintf("%d-byte UDP echo answered by per-client ASHs", faninPayload),
	"tcp-fast": fmt.Sprintf("%d-byte TCP ping-pong through the fast path", faninPayload),
	"nfs-read": fmt.Sprintf("%d-byte NFS reads against one server socket", faninReadBytes),
}

// renderScale formats one table per workload: throughput and latency from
// the client histograms, per-message kernel cost from the server counters.
func renderScale(vs []any) string {
	var b strings.Builder
	b.WriteString("Scale: many-client fan-in, one Ethernet server host\n")
	b.WriteString("  (cyc/msg = server interrupt + driver + DPF demux cycles per accepted frame)\n")
	idx := 0
	for _, wl := range scaleWorkloads {
		fmt.Fprintf(&b, "  %s: %s\n", wl, scaleWorkloadDesc[wl])
		fmt.Fprintf(&b, "    %5s  %6s  %11s  %9s  %8s  %8s  %8s  %9s  %10s\n",
			"N", "msgs", "thr[msg/ms]", "mean[us]", "p50[us]", "p99[us]",
			"cyc/msg", "demux/msg", "batched[%]")
		for range scaleNs {
			r := vs[idx].(ScaleResult)
			idx++
			fmt.Fprintf(&b, "    %5d  %6d  %11.2f  %9.1f  %8.1f  %8.1f  %8.1f  %9.1f  %10.1f\n",
				r.N, r.Msgs, r.ThrMsgMs, r.MeanUs, r.P50Us, r.P99Us,
				r.CycPerMsg, r.DemuxPerMsg, r.BatchedPct)
		}
	}
	return b.String()
}
