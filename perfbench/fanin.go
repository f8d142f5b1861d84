package main

import (
	"encoding/binary"
	"fmt"

	"ashs/internal/aegis"
	"ashs/internal/core"
	"ashs/internal/dpf"
	"ashs/internal/flyweight"
	"ashs/internal/mach"
	"ashs/internal/netdev"
	"ashs/internal/proto/ether"
	"ashs/internal/proto/ip"
	"ashs/internal/proto/link"
	"ashs/internal/proto/retry"
	"ashs/internal/proto/tcp"
	"ashs/internal/proto/udp"
	"ashs/internal/sim"
	"ashs/internal/workload"
)

// The fan-in workloads put one full aegis server on a 10-Mb/s Ethernet
// against a fleet of flyweight clients driven by a seeded open-loop
// Poisson trace plus two synchronized incast waves. Every operation is
// timed from its due time in that schedule to the moment its verified
// reply reaches the client, by a passive tap on the switch.
const (
	faninEchoPort    = 7
	faninTCPPort     = 80
	faninClientPort  = 1234
	faninPayload     = 64
	faninWaves       = 2
	faninWaveClients = 1024
	faninQuietUs     = 50_000
	faninWaveGapUs   = 500_000
)

// fanin-udp: 2^20 UDP echo clients, one 3-atom DPF source filter each,
// all sharing one echo ASH on the server. The trace is long enough that
// the run phase is not dwarfed by setup, and that the incast waves'
// echoes (whose latencies no seed changes) stay under 1% of the samples.
const (
	udpClients   = 1 << 20
	udpEvents    = 1 << 18
	udpGapUs     = 150 // below the ~10 echoes/ms the Ethernet carries
	udpServerMem = 48 << 20
	udpRxBufs    = 64 // the echo ASH consumes in the interrupt path
)

// fanin-tcp: 4096 TCP ping-pong clients, each accepted by its own server
// process; listen filters go in at setup, connection filters and
// ConnTable binds while traffic flows.
const (
	tcpClients   = 4096
	tcpEvents    = 8 * tcpClients
	tcpGapUs     = 600 // below the ~3.6 rounds/ms the Ethernet carries
	tcpServerMem = 512 << 20
)

type fanin struct {
	kind  flyweight.Kind
	eng   *sim.Engine
	prof  *mach.Profile
	sw    *netdev.Switch
	k     *aegis.Kernel
	eth   *aegis.EthernetIf
	ip    ip.Addr
	sys   *core.System
	flt   *flyweight.Fleet
	trace *workload.Trace
	tap   *tap

	running int // server processes that have not returned (tcp)
}

// newFanin builds the server host, the fleet and the trace.
func newFanin(e *env, kind flyweight.Kind, n, mem, rxBufs int, port uint16, pol retry.Policy, events int, gapUs float64) *fanin {
	f := &fanin{kind: kind}
	f.eng = e.engine()
	f.prof = mach.DS5000_240()
	f.sw = netdev.NewSwitch(f.eng, f.prof, netdev.EthernetConfig())
	e.time("aegis.kernel_new_s", func() { f.k = aegis.NewKernelMem("srv", f.eng, f.prof, mem) })
	f.eth = aegis.NewEthernetPool(f.k, f.sw, rxBufs)
	f.ip = ip.HostAddr(f.eth.Addr())
	f.sys = core.NewSystem(f.k)
	e.observe(f.eng, f.prof, f.sw, f.k)
	e.time("flyweight.fleet_new_s", func() {
		f.flt = flyweight.NewFleet(flyweight.Config{
			Eng: f.eng, Prof: f.prof, Sw: f.sw, Kind: kind, N: n,
			ServerIP: f.ip, ServerLink: f.eth.Addr(), ServerPort: port,
			ClientPort: faninClientPort, Payload: faninPayload,
			Window: 8192, Checksum: true, Retry: pol, Seed: e.seed,
		})
	})
	e.time("workload.trace_gen_s", func() {
		f.trace = workload.Poisson(e.seed, workload.Spec{
			Clients: n, Events: events, MeanGapUs: gapUs, Size: faninPayload})
	})
	e.exclude(func() {
		var err error
		if f.tap, err = newTap(f); err != nil {
			panic(err)
		}
		f.sw.Inject = f.tap.observe
	})
	return f
}

func setupFaninUDP(e *env) world {
	f := newFanin(e, flyweight.UDPEcho, udpClients, udpServerMem, udpRxBufs, faninEchoPort,
		retry.Policy{BaseUs: 400_000, Budget: 4}, udpEvents, udpGapUs)
	owner := f.k.Spawn("echo", func(*aegis.Process) {})
	ash := f.sys.NewFuncASH(owner, "echo", true, f.echo)
	e.time("aegis.bind_s", func() {
		for i := 0; i < udpClients; i++ {
			b, err := f.eth.BindFilter(owner, sourceFilter(f.flt.Addr(i)))
			if err != nil {
				panic(err)
			}
			b.Handler = ash
		}
	})
	return f
}

// sourceFilter is a client's 3-atom filter: IPv4, UDP, source host. All
// filters share two trie levels and branch once on the source address.
func sourceFilter(src ip.Addr) *dpf.Filter {
	return dpf.NewFilter().
		Eq16(12, ether.TypeIPv4).
		Eq8(ether.HeaderLen+9, ip.ProtoUDP).
		Eq32(ether.HeaderLen+12, addrU32(src))
}

func addrU32(a ip.Addr) uint32 { return binary.BigEndian.Uint32(a[:]) }

// echo is the shared UDP echo handler. It derives the reply's
// destination from the frame's source port, so one handler serves every
// binding.
func (f *fanin) echo(ctx *core.Ctx) aegis.Disposition {
	const off = ether.HeaderLen + ip.HeaderLen + udp.HeaderLen
	nb := ctx.Entry().Len
	if nb < off+8 {
		return aegis.DispToUser
	}
	ctx.Straightline(48, 12) // header validation
	src := ctx.Entry().Src
	pl := nb - off
	eh := ether.Header{Dst: ether.PortMAC(src), Src: ether.PortMAC(f.eth.Addr()), Type: ether.TypeIPv4}
	frame := eh.Marshal(nil)
	ih := ip.Header{TotalLen: uint16(ip.HeaderLen + udp.HeaderLen + pl),
		TTL: 64, Proto: ip.ProtoUDP, DF: true, Src: f.ip, Dst: ip.HostAddr(src)}
	frame = ih.Marshal(frame)
	frame = binary.BigEndian.AppendUint16(frame, faninEchoPort)
	frame = binary.BigEndian.AppendUint16(frame, faninClientPort)
	frame = binary.BigEndian.AppendUint16(frame, uint16(udp.HeaderLen+pl))
	frame = binary.BigEndian.AppendUint16(frame, 0)
	raw := ctx.RawData()
	for j := 0; j < pl; j++ {
		frame = append(frame, raw[aegis.StripedIndex(off+j)])
	}
	ctx.Straightline(2*pl, pl) // byte-wise copy out of the striped buffer
	ctx.Send(src, 0, frame)
	return aegis.DispConsumed
}

func setupFaninTCP(e *env) world {
	f := newFanin(e, flyweight.TCPPingPong, tcpClients, tcpServerMem, 2*tcpClients+64, faninTCPPort,
		retry.Policy{BaseUs: 800_000, Budget: 6}, tcpEvents, tcpGapUs)
	res := ip.StaticResolver{f.ip: link.Addr{Port: f.eth.Addr()}}
	for i := 0; i < f.flt.Len(); i++ {
		res[f.flt.Addr(i)] = link.Addr{Port: f.flt.Link(i)}
	}
	cfg := tcp.DefaultConfig()
	cfg.MSS = 1460
	cfg.Polling = false
	cfg.Mode = tcp.ModeASH
	cfg.Sys = f.sys
	tbl := tcp.NewConnTable(tcpClients / 4)
	for i := 0; i < tcpClients; i++ {
		var lst *ip.Stack
		f.running++
		p := f.k.Spawn(fmt.Sprintf("srv-%06d", i), func(p *aegis.Process) {
			defer func() { f.running-- }()
			// A client the schedule never activates will not connect;
			// its listener would wait forever.
			if f.tap.ops(i) > 0 {
				f.serveConn(e, p, lst, res, cfg, tbl)
			}
		})
		e.time("aegis.bind_s", func() {
			lst = f.stack(p, listenFilter(f.ip, f.flt.Addr(i)), res)
		})
	}
	return f
}

// listenFilter is a per-client listen endpoint (5 atoms).
func listenFilter(local, remote ip.Addr) *dpf.Filter {
	return dpf.NewFilter().
		Eq16(12, ether.TypeIPv4).
		Eq32(ether.HeaderLen+12, addrU32(remote)).
		Eq32(ether.HeaderLen+16, addrU32(local)).
		Eq8(ether.HeaderLen+9, ip.ProtoTCP).
		Eq16(ether.HeaderLen+ip.HeaderLen+2, faninTCPPort)
}

// connFilter pins one flow's four-tuple (6 atoms, deeper than any
// listen filter, so established traffic lands here).
func connFilter(local, remote ip.Addr, rport uint16) *dpf.Filter {
	return dpf.NewFilter().
		Eq16(12, ether.TypeIPv4).
		Eq32(ether.HeaderLen+12, addrU32(remote)).
		Eq32(ether.HeaderLen+16, addrU32(local)).
		Eq8(ether.HeaderLen+9, ip.ProtoTCP).
		Eq16(ether.HeaderLen+ip.HeaderLen+0, rport).
		Eq16(ether.HeaderLen+ip.HeaderLen+2, faninTCPPort)
}

// stack binds filt for p and builds an IP stack with Ethernet headers.
func (f *fanin) stack(p *aegis.Process, filt *dpf.Filter, res ip.StaticResolver) *ip.Stack {
	lep, err := link.BindEthernet(f.eth, p, filt)
	if err != nil {
		panic(err)
	}
	st := ip.NewStack(lep, f.ip, res)
	st.LinkHdrLen = ether.HeaderLen
	mac := ether.PortMAC(f.eth.Addr())
	st.PrependLink = func(dst link.Addr, b []byte) []byte {
		eh := ether.Header{Dst: ether.PortMAC(dst.Port), Src: mac, Type: ether.TypeIPv4}
		return eh.Marshal(b)
	}
	return st
}

// serveConn accepts one client's connection and echoes its pings until
// the client closes.
func (f *fanin) serveConn(e *env, p *aegis.Process, lst *ip.Stack, res ip.StaticResolver, cfg tcp.Config, tbl *tcp.ConnTable) {
	d, ok, err := lst.RecvUntil(false, 0)
	if err != nil || !ok {
		panic(fmt.Sprintf("%s: listen: ok=%v err=%v", p.Name, ok, err))
	}
	syn, isSyn := tcp.ParseSyn(d)
	lst.Release(d)
	if !isSyn {
		panic(p.Name + ": first segment is not a SYN")
	}
	var st *ip.Stack
	e.time("aegis.bind_s", func() { st = f.stack(p, connFilter(f.ip, syn.RemoteIP, syn.RemotePort), res) })
	conn, err := tcp.AcceptHandoff(st, cfg, faninTCPPort, syn)
	if err != nil {
		panic(err)
	}
	if err := tbl.Bind(conn.Tuple(), conn); err != nil {
		panic(err)
	}
	buf, err := p.AS.Alloc(faninPayload, "echo")
	if err != nil {
		panic(fmt.Sprintf("%s: echo buffer: %v", p.Name, err))
	}
	for conn.ReadFull(buf.Base, faninPayload) == nil {
		if conn.WriteBytes(f.k.Bytes(buf.Base, faninPayload)) != nil {
			break
		}
	}
	if !tbl.Remove(conn.Tuple()) {
		panic(p.Name + ": connection already removed")
	}
	_ = conn.Close()
}

func (f *fanin) run(e *env) {
	f.flt.Run(f.trace, faninWaves, faninWaveClients, faninQuietUs, faninWaveGapUs)
	f.eng.Run()
}

func (f *fanin) check(e *env) *outcome {
	o := &outcome{cyclesPerUs: float64(f.prof.MHz)}
	t := f.tap
	o.attempted = uint64(len(t.due))
	o.completed = t.completed
	o.samples = t.samples
	o.transfer(t.bytes, t.last)
	if n := f.flt.Completed(); n != t.completed {
		o.fail(fmt.Sprintf("fleet completed %d operations, the tap verified %d", n, t.completed))
	}
	if t.bad > 0 {
		o.fail(fmt.Sprintf("%d replies failed verification", t.bad))
	}
	if f.flt.Failures > 0 {
		o.fail(fmt.Sprintf("fleet abandoned %d operations", f.flt.Failures))
	}
	if f.flt.BadFrames > 0 {
		o.fail(fmt.Sprintf("fleet dropped %d bad frames", f.flt.BadFrames))
	}
	if f.running != 0 {
		o.fail(fmt.Sprintf("%d server processes still running", f.running))
	}
	if f.eng.Pending() != 0 {
		o.fail("engine did not drain")
	} else if n := f.sw.Pool.InUse(); n != 0 {
		o.fail(fmt.Sprintf("%d switch pool buffers leaked", n))
	}

	pool, eth, prof := f.sw.Pool, f.eth, f.prof
	o.count("netdev.frames", float64(pool.Leases))
	o.count("netdev.pool_grown", float64(pool.Grown))
	o.count("aegis.rx_frames", float64(eth.RxFrames))
	o.count("aegis.rx_cycles", float64(f.k.Interrupts)*float64(prof.InterruptCycles)+
		float64(eth.RxFrames)*float64(prof.DeviceRxService)+float64(eth.DemuxCycles))
	dropped := eth.InjectedRingDrops + eth.InjectedPoolDrops + eth.LoadSheds + eth.DroppedNoBuf
	o.count("aegis.accepted", float64(eth.RxFrames-dropped))
	o.count("aegis.offered", float64(eth.RxFrames+eth.DroppedNoFilter+eth.CRCDrops))
	o.count("dpf.filters", float64(eth.Filters()))
	o.count("dpf.trie_depth", float64(eth.TrieDepth()))
	o.count("dpf.demux_cycles", float64(eth.DemuxCycles))
	o.count("dpf.frames", float64(eth.RxFrames))
	o.count("flyweight.retries", float64(f.flt.Retries))
	o.count("flyweight.completed", float64(f.flt.Completed()))
	o.count("flyweight.p99_bucket_us", prof.Us(f.flt.Hist.Quantile(0.99)))
	countSandboxCache(o)
	return o
}

// tap is a passive observer on the switch's delivery hook. For every
// frame delivered to a client it finds the operation the reply answers
// (client, then the sequence tag the flyweight put in the payload),
// verifies the echoed payload byte for byte, and records the first
// verified reply's latency from the operation's due time.
type tap struct {
	f       *fanin
	base    int     // switch port of client 0
	first   []int32 // client c's operations are due[first[c]:first[c+1]]
	due     []sim.Time
	seen    []bool
	samples []sim.Time

	completed uint64
	bytes     uint64
	bad       uint64
	last      sim.Time // latest verified reply
}

// newTap indexes the schedule the fleet will follow: per client, the
// trace's arrivals in order and then one per incast wave. A flyweight
// numbers its operations in arrival order, so operation k of client c is
// its k-th arrival.
func newTap(f *fanin) (*tap, error) {
	n := f.flt.Len()
	t := &tap{f: f, base: f.flt.Link(0)}
	for i := 0; i < n; i++ {
		if f.flt.Link(i) != t.base+i {
			return nil, fmt.Errorf("client %d is on port %d, not %d", i, f.flt.Link(i), t.base+i)
		}
	}
	t.first = make([]int32, n+1)
	for _, ev := range f.trace.Events {
		t.first[ev.Client+1]++
	}
	waveClients := min(faninWaveClients, n)
	for c := 0; c < waveClients; c++ {
		t.first[c+1] += faninWaves
	}
	for c := 0; c < n; c++ {
		t.first[c+1] += t.first[c]
	}
	t.due = make([]sim.Time, t.first[n])
	t.seen = make([]bool, len(t.due))
	fill := append([]int32(nil), t.first[:n]...)
	for _, ev := range f.trace.Events {
		t.due[fill[ev.Client]] = f.prof.Cycles(ev.AtUs)
		fill[ev.Client]++
	}
	base := f.trace.Duration() + faninQuietUs
	for w := 0; w < faninWaves; w++ {
		at := f.prof.Cycles(base + float64(w)*faninWaveGapUs)
		for c := 0; c < waveClients; c++ {
			t.due[fill[c]] = at
			fill[c]++
		}
	}
	t.samples = make([]sim.Time, 0, len(t.due))
	return t, nil
}

// ops is the number of operations the schedule gives client c.
func (t *tap) ops(c int) int { return int(t.first[c+1] - t.first[c]) }

// observe never drops or alters a frame.
func (t *tap) observe(pkt *netdev.PacketBuf) bool {
	c := pkt.Dst - t.base
	if c < 0 || c >= len(t.first)-1 {
		return true
	}
	p, ok := t.payload(pkt.Bytes())
	if !ok {
		return true
	}
	if len(p) != faninPayload {
		t.bad++
		return true
	}
	seq := binary.BigEndian.Uint32(p)
	if int64(seq) >= int64(t.ops(c)) || !echoIntact(p, c) {
		t.bad++
		return true
	}
	i := int(t.first[c]) + int(seq)
	if t.seen[i] {
		return true // a duplicate reply to a retransmitted request
	}
	t.seen[i] = true
	now := t.f.eng.Now()
	t.samples = append(t.samples, now-t.due[i])
	t.completed++
	t.bytes += uint64(len(p))
	t.last = now
	return true
}

// payload extracts the application payload of a reply frame: a UDP
// datagram for echo, a TCP segment carrying data for ping-pong. Other
// frames (handshakes, pure acknowledgements) carry no operation.
func (t *tap) payload(data []byte) ([]byte, bool) {
	const eh = ether.HeaderLen
	if len(data) < eh+ip.HeaderLen || binary.BigEndian.Uint16(data[12:14]) != ether.TypeIPv4 {
		return nil, false
	}
	ihl := int(data[eh]&0x0f) * 4
	end := eh + int(binary.BigEndian.Uint16(data[eh+2:eh+4]))
	if end > len(data) || eh+ihl > end {
		return nil, false
	}
	switch proto := data[eh+9]; {
	case proto == ip.ProtoUDP && t.f.kind == flyweight.UDPEcho && eh+ihl+udp.HeaderLen <= end:
		return data[eh+ihl+udp.HeaderLen : end], true
	case proto == ip.ProtoTCP && t.f.kind == flyweight.TCPPingPong && eh+ihl+tcp.HeaderLen <= end:
		off := eh + ihl + int(data[eh+ihl+12]>>4)*4
		if off >= end {
			return nil, false
		}
		return data[off:end], true
	}
	return nil, false
}

// echoIntact checks an echoed payload against what client c sent: its
// sequence tag, its id, then filler derived from the id.
func echoIntact(p []byte, c int) bool {
	if binary.BigEndian.Uint32(p[4:]) != uint32(c) {
		return false
	}
	for i := 8; i < len(p); i++ {
		if p[i] != byte(c+i) {
			return false
		}
	}
	return true
}
