package bench

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
	"ashs/internal/proto/nfs"
	"ashs/internal/proto/retry"
	"ashs/internal/proto/tcp"
	"ashs/internal/proto/udp"
	"ashs/internal/sim"
)

// The fan-in harness is the one server side of the scale, megascale and
// overload experiments: a single full aegis host on an Ethernet switch
// whose interrupt path, DPF trie, striping DMA and ASH dispatch are what
// those experiments measure. Only the client model varies:
//
//   - addHosts attaches small full aegis client hosts (scale, overload),
//     each with its own kernel, receive pool and IP stack;
//   - addFleet attaches a flyweight fleet (megascale): wire-exact,
//     kernel-free endpoints, cheap enough to reach 10^6.
//
// Worlds are built directly rather than through the two-host Testbed, so
// the global Obs/Fault hooks do not apply; each cell measures into its own
// histograms and reads the server's counters, which keeps every cell
// self-contained and its output byte-identical at any -parallel level.

const (
	faninEchoPort   = 7
	faninTCPPort    = 80
	faninNFSPort    = 2049
	faninClientPort = 1234
	faninPayload    = 64   // echo message size (UDP and TCP)
	faninReadBytes  = 1024 // NFS read size
	faninFileBytes  = 4096 // NFS served file
	faninServerMem  = 48 << 20

	// faninPoolSlack is the server receive pool beyond two buffers per
	// client: a burst with every client's message in flight at once must
	// fit.
	faninPoolSlack = 64
)

// faninHost is one simulated host of a fan-in world.
type faninHost struct {
	k  *aegis.Kernel
	e  *aegis.EthernetIf
	ip ip.Addr
}

// faninWorld is one server host plus its clients on a shared Ethernet
// switch.
type faninWorld struct {
	eng  *sim.Engine
	prof *mach.Profile
	sw   *netdev.Switch
	srv  faninHost
	sys  *core.System
	cli  []faninHost // full-host clients (addHosts)
	// res resolves the server and every client whose replies go through
	// a server IP stack.
	res ip.StaticResolver
}

// newFaninWorld builds the server first, with mem bytes of memory and a
// pool-buffer receive pool, so its port (and therefore its address)
// precedes every client's.
func newFaninWorld(mem, pool int) *faninWorld {
	eng := sim.NewEngine()
	prof := mach.DS5000_240()
	sw := netdev.NewSwitch(eng, prof, netdev.EthernetConfig())
	k := aegis.NewKernelMem("srv", eng, prof, mem)
	e := aegis.NewEthernetPool(k, sw, pool)
	w := &faninWorld{eng: eng, prof: prof, sw: sw,
		srv: faninHost{k: k, e: e, ip: ip.HostAddr(e.Addr())}, sys: core.NewSystem(k)}
	w.res = ip.StaticResolver{w.srv.ip: link.Addr{Port: e.Addr()}}
	return w
}

// faninPool sizes the server receive pool for n clients.
func faninPool(n int) int { return 2*n + faninPoolSlack }

// addHosts attaches n full client hosts of mem bytes and rxBufs receive
// buffers each.
func (w *faninWorld) addHosts(n, mem, rxBufs int) {
	for i := 0; i < n; i++ {
		k := aegis.NewKernelMem(fmt.Sprintf("c%03d", i), w.eng, w.prof, mem)
		e := aegis.NewEthernetPool(k, w.sw, rxBufs)
		h := faninHost{k: k, e: e, ip: ip.HostAddr(e.Addr())}
		w.res[h.ip] = link.Addr{Port: e.Addr()}
		w.cli = append(w.cli, h)
	}
}

// addFleet attaches n flyweight endpoints of the given kind, all talking
// to the server's port, retrying under pol with megascale's run seed. The
// fleet stays out of the resolver (a 10^6-entry table would dominate an
// echo world that never replies through a stack); resolveFleet adds it
// where the server does.
func (w *faninWorld) addFleet(kind flyweight.Kind, n int, port uint16, pol retry.Policy) *flyweight.Fleet {
	return flyweight.NewFleet(flyweight.Config{
		Eng: w.eng, Prof: w.prof, Sw: w.sw,
		Kind: kind, N: n,
		ServerIP: w.srv.ip, ServerLink: w.srv.e.Addr(), ServerPort: port,
		ClientPort: faninClientPort,
		Payload:    faninPayload,
		ReadBytes:  faninReadBytes, FileBytes: faninFileBytes, Handle: uint32(nfs.RootHandle) + 1,
		Window: 8192, Checksum: true,
		Retry: pol, Seed: megaSeed,
	})
}

// resolveFleet adds the fleet's addresses to the resolver.
func (w *faninWorld) resolveFleet(flt *flyweight.Fleet) {
	for i := 0; i < flt.Len(); i++ {
		w.res[flt.Addr(i)] = link.Addr{Port: flt.Link(i)}
	}
}

// stack builds an IP stack on h over filter f, resolving statically (no
// ARP daemons on a 512-host world).
func (w *faninWorld) stack(p *aegis.Process, h faninHost, f *dpf.Filter) *ip.Stack {
	return ethStack(h.e, p, h.ip, f, w.res)
}

// ethStack builds an IP stack for p over filter f on e, with Ethernet
// link headers and res resolving next hops.
func ethStack(e *aegis.EthernetIf, p *aegis.Process, local ip.Addr, f *dpf.Filter, res ip.Resolver) *ip.Stack {
	ep, err := link.BindEthernet(e, p, f)
	if err != nil {
		panic(err)
	}
	st := ip.NewStack(ep, local, res)
	st.LinkHdrLen = ether.HeaderLen
	myMAC := ether.PortMAC(e.Addr())
	st.PrependLink = func(dst link.Addr, b []byte) []byte {
		eh := ether.Header{Dst: ether.PortMAC(dst.Port), Src: myMAC, Type: ether.TypeIPv4}
		return eh.Marshal(b)
	}
	return st
}

// ipU32 is a as the big-endian word a DPF atom compares against.
func ipU32(a ip.Addr) uint32 {
	return uint32(a[0])<<24 | uint32(a[1])<<16 | uint32(a[2])<<8 | uint32(a[3])
}

// listenFilter is the 4-atom wildcard endpoint filter: every (proto,
// port) datagram addressed to local.
func listenFilter(local ip.Addr, proto byte, port uint16) *dpf.Filter {
	return dpf.NewFilter().
		Eq16(12, ether.TypeIPv4).
		Eq32(ether.HeaderLen+16, ipU32(local)).
		Eq8(ether.HeaderLen+9, proto).
		Eq16(ether.HeaderLen+ip.HeaderLen+2, port)
}

// peerFilter narrows the wildcard by source host (5 atoms): the
// per-client listen endpoint of the fan-in TCP server.
func peerFilter(local ip.Addr, proto byte, port uint16, remote ip.Addr) *dpf.Filter {
	return dpf.NewFilter().
		Eq16(12, ether.TypeIPv4).
		Eq32(ether.HeaderLen+12, ipU32(remote)).
		Eq32(ether.HeaderLen+16, ipU32(local)).
		Eq8(ether.HeaderLen+9, proto).
		Eq16(ether.HeaderLen+ip.HeaderLen+2, port)
}

// connFilter pins one flow's full four-tuple (6 atoms). Deeper than any
// listen filter, so the trie's deepest-terminal rule routes established
// traffic here.
func connFilter(local ip.Addr, proto byte, port uint16, remote ip.Addr, rport uint16) *dpf.Filter {
	return dpf.NewFilter().
		Eq16(12, ether.TypeIPv4).
		Eq32(ether.HeaderLen+12, ipU32(remote)).
		Eq32(ether.HeaderLen+16, ipU32(local)).
		Eq8(ether.HeaderLen+9, proto).
		Eq16(ether.HeaderLen+ip.HeaderLen+0, rport).
		Eq16(ether.HeaderLen+ip.HeaderLen+2, port)
}

// udpReply builds the Ethernet + IP + UDP headers of an n-byte datagram
// a server handler sends from sport to dport at the host on switch port
// dst; the caller appends the payload.
func (w *faninWorld) udpReply(dst int, sport, dport uint16, n int) []byte {
	eh := ether.Header{Dst: ether.PortMAC(dst), Src: ether.PortMAC(w.srv.e.Addr()),
		Type: ether.TypeIPv4}
	b := eh.Marshal(nil)
	ih := ip.Header{TotalLen: uint16(ip.HeaderLen + udp.HeaderLen + n),
		TTL: 64, Proto: ip.ProtoUDP, DF: true, Src: w.srv.ip, Dst: ip.HostAddr(dst)}
	b = ih.Marshal(b)
	b = binary.BigEndian.AppendUint16(b, sport)
	b = binary.BigEndian.AppendUint16(b, dport)
	b = binary.BigEndian.AppendUint16(b, uint16(udp.HeaderLen+n))
	return binary.BigEndian.AppendUint16(b, 0) // checksum not used
}

// echoUDP is the UDP echo handler of the echo workloads: from the
// interrupt path it answers each datagram with its own payload, sent back
// to the frame's source port (the ring entry's provenance, so one handler
// can serve any number of endpoints).
func (w *faninWorld) echoUDP(ctx *core.Ctx) aegis.Disposition {
	const off = ether.HeaderLen + ip.HeaderLen + udp.HeaderLen
	n := ctx.Entry().Len - off
	if n < 0 {
		return aegis.DispToUser
	}
	// Header validation: the filter already pinned the endpoint, the
	// handler re-checks lengths.
	ctx.Straightline(48, 12)
	src := ctx.Entry().Src
	frame := w.udpReply(src, faninEchoPort, faninClientPort, n)
	raw := ctx.RawData()
	for j := 0; j < n; j++ {
		frame = append(frame, raw[aegis.StripedIndex(off+j)])
	}
	// Byte-wise echo copy out of the striped buffer.
	ctx.Straightline(2*n, n)
	ctx.Send(src, 0, frame)
	return aegis.DispConsumed
}

// tcpConfig is the connection config of the fan-in TCP workloads.
// Blocking waits (no polling): hundreds of pollers time-sharing the
// server CPU would spin each other out of the schedule.
func (w *faninWorld) tcpConfig(server bool) tcp.Config {
	cfg := tcp.DefaultConfig()
	cfg.MSS = EthernetTCPMSS
	cfg.Polling = false
	if server {
		cfg.Mode = tcp.ModeASH
		cfg.Sys = w.sys
	}
	return cfg
}

// faninConns is the fan-in TCP server's shared connection table and its
// occupancy peak. The engine serializes processes, so the peak snapshot
// needs no lock; it is deterministic because accept order is.
type faninConns struct {
	tbl   *tcp.ConnTable
	peak  int
	loads []int // per-bucket load at the peak
}

// acceptEcho is one server process of the fan-in TCP path for the client
// at remote: a per-client listen endpoint consumes the SYN, a 6-atom
// connection filter claims the rest of the flow before the SYN|ACK goes
// out, and AcceptHandoff completes the handshake. It then echoes rounds
// faninPayload-byte messages (rounds < 0: until the client's FIN) and
// closes.
func (w *faninWorld) acceptEcho(p *aegis.Process, cs *faninConns, remote ip.Addr, rounds int) {
	lst := w.stack(p, w.srv, peerFilter(w.srv.ip, ip.ProtoTCP, faninTCPPort, remote))
	d, ok, err := lst.RecvUntil(false, 0)
	if err != nil || !ok {
		panic(fmt.Sprintf("fan-in: listener for %v: ok=%v err=%v", remote, ok, err))
	}
	syn, isSyn := tcp.ParseSyn(d)
	lst.Release(d)
	if !isSyn {
		panic(fmt.Sprintf("fan-in: listener for %v got non-SYN", remote))
	}
	st := w.stack(p, w.srv,
		connFilter(w.srv.ip, ip.ProtoTCP, faninTCPPort, syn.RemoteIP, syn.RemotePort))
	conn, err := tcp.AcceptHandoff(st, w.tcpConfig(true), faninTCPPort, syn)
	if err != nil {
		panic(err)
	}
	if err := cs.tbl.Bind(conn.Tuple(), conn); err != nil {
		panic(err)
	}
	if l := cs.tbl.Len(); l > cs.peak {
		cs.peak, cs.loads = l, cs.tbl.Loads()
	}
	buf := p.AS.MustAlloc(faninPayload, "echo")
	for j := 0; rounds < 0 || j < rounds; j++ {
		if err := conn.ReadFull(buf.Base, faninPayload); err != nil {
			break // client FIN: the schedule is done
		}
		if _, ok := cs.tbl.Lookup(conn.Tuple()); !ok {
			panic("fan-in: live connection missing from table")
		}
		if err := conn.WriteBytes(w.srv.k.Bytes(buf.Base, faninPayload)); err != nil {
			break
		}
	}
	if !cs.tbl.Remove(conn.Tuple()) {
		panic("fan-in: connection already removed")
	}
	_ = conn.Close()
}

// serveNFS starts nfsd on the server: one socket on faninNFSPort serving
// a faninFileBytes file. highWater > 0 arms the socket ring's admission
// limit. It serves forever — a retry-born duplicate must not consume a
// straggler's slot — so the engine drains once the clients are done and
// nfsd parks on an empty ring. It returns the file's handle and contents.
func (w *faninWorld) serveNFS(highWater int) (nfs.Handle, []byte) {
	srv := nfs.NewServer()
	data := make([]byte, faninFileBytes)
	for i := range data {
		data[i] = byte(i * 7)
	}
	fh := srv.AddFile("file", data)
	w.srv.k.Spawn("nfsd", func(p *aegis.Process) {
		st := w.stack(p, w.srv, listenFilter(w.srv.ip, ip.ProtoUDP, faninNFSPort))
		st.Ep.(*link.EthLink).Binding().Ring.HighWater = highWater
		srv.Serve(p, udp.NewSocket(st, faninNFSPort, udp.Options{}), 0)
	})
	return fh, data
}

// rxCost reports the server's kernel receive cost per accepted frame —
// interrupt entries actually taken plus driver service plus DPF
// classification — and the classification share alone.
func (w *faninWorld) rxCost() (cycPerMsg, demuxPerMsg float64) {
	rx := w.srv.e.RxFrames
	if rx == 0 {
		return 0, 0
	}
	kernel := sim.Time(w.srv.k.Interrupts)*sim.Time(w.prof.InterruptCycles) +
		sim.Time(rx)*sim.Time(w.prof.DeviceRxService) +
		w.srv.e.DemuxCycles
	return float64(kernel) / float64(rx), float64(w.srv.e.DemuxCycles) / float64(rx)
}

// gridCells enumerates an experiment's rows × columns grid row-major, so
// each row's results read straight out of the result slice.
func gridCells[R, C any](rows []R, cols func(R) []C, label func(R, C) string,
	run func(*Config, R, C) any) []Cell {
	var cells []Cell
	for _, r := range rows {
		for _, c := range cols(r) {
			cells = append(cells, Cell{
				Label: label(r, c),
				Run:   func(cc *Config) any { return run(cc, r, c) },
			})
		}
	}
	return cells
}
