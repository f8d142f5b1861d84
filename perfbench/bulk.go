package main

import (
	"bytes"
	"fmt"

	"ashs/internal/aegis"
	"ashs/internal/core"
	"ashs/internal/fault"
	"ashs/internal/mach"
	"ashs/internal/netdev"
	"ashs/internal/proto/ip"
	"ashs/internal/proto/link"
	"ashs/internal/proto/nfs"
	"ashs/internal/proto/tcp"
	"ashs/internal/proto/udp"
	"ashs/internal/sim"
)

// bulk-faults: one two-host AN2 world per canned fault schedule, the
// seed choosing each world's fault stream. Every world runs a TCP bulk
// transfer over the ASH fast path (end-to-end checksums through the DILP
// pipe engine), byte-verified at the sink, beside an NFS session that
// creates a file, writes it and reads it back in transfers of NFS
// version 2's maximum size (8 KB, RFC 1094 §2.3 MAXDATA; nfs.MaxIO). Both
// are closed loop; the NFS RPCs are the latency samples. Besides the
// fault streams, the seed chooses when each world's NFS session starts.
const (
	bulkTCPBytes  = 8 << 20
	bulkTCPChunk  = 8192
	bulkNFSBytes  = 512 << 10
	bulkTCPVC     = 7
	bulkNFSVC     = 5
	bulkTripLimit = 64 // handler aborts before a handler is de-installed

	// bulkNFSMaxStartUs bounds the seeded start of the NFS session. Its
	// RPCs share both hosts with the TCP transfer, so their latencies
	// depend on how the two flows line up; at one fixed alignment the
	// median RPC took the same time on every seed.
	bulkNFSMaxStartUs = 5000
)

// bulkLimitUs bounds one world's simulated time; a world still running
// then has wedged.
const bulkLimitUs = 600e6

type bulkWorld struct {
	cells []*bulkCell
}

// bulkCell is one schedule's world and what its processes observed.
type bulkCell struct {
	sched      fault.Schedule
	seed       int64
	pat        []byte // TCP payload; its tail is the NFS file
	eng        *sim.Engine
	prof       *mach.Profile
	sw         *netdev.Switch
	k1, k2     *aegis.Kernel
	a1, a2     *aegis.AN2If
	sys1, sys2 *core.System
	ip1, ip2   ip.Addr
	plane      *fault.Plane

	tcpSunk   int
	tcpBad    []bool // per chunk: a byte failed verification
	tcpEnd    sim.Time
	srv, cli  *tcp.Conn
	nfsClient *nfs.Client
	nfsStart  sim.Time // when the session starts, seeded
	nfsOK     int      // RPCs that returned verified results
	nfsCalls  int
	nfsDone   bool
	nfsEnd    sim.Time
	samples   []sim.Time
	running   int // processes that have not returned
}

func setupBulk(e *env) world {
	w := &bulkWorld{}
	var pat []byte
	e.exclude(func() { pat = bulkPattern(e.seed, bulkTCPBytes) })
	for i, s := range fault.Canned() {
		w.cells = append(w.cells, newBulkCell(e, s, e.seed*64+int64(i), pat))
	}
	return w
}

// bulkPattern is a seed's transfer payload: what the TCP sink and the
// NFS read-back must see.
func bulkPattern(seed int64, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte((i*31 + 7 + int(seed)) ^ (i >> 8))
	}
	return b
}

func newBulkCell(e *env, sched fault.Schedule, seed int64, pat []byte) *bulkCell {
	c := &bulkCell{sched: sched, seed: seed, pat: pat, tcpBad: make([]bool, bulkTCPBytes/bulkTCPChunk)}
	c.eng = e.engine()
	c.prof = mach.DS5000_240()
	c.nfsStart = sim.Time(sim.NewRand(seed).Intn(int(c.prof.Cycles(bulkNFSMaxStartUs))))
	c.sw = netdev.NewSwitch(c.eng, c.prof, netdev.AN2Config())
	e.time("aegis.kernel_new_s", func() {
		c.k1 = aegis.NewKernel("h1", c.eng, c.prof)
		c.k2 = aegis.NewKernel("h2", c.eng, c.prof)
	})
	c.a1, c.a2 = aegis.NewAN2(c.k1, c.sw), aegis.NewAN2(c.k2, c.sw)
	c.sys1, c.sys2 = core.NewSystem(c.k1), core.NewSystem(c.k2)
	c.sys1.AbortTripThreshold, c.sys2.AbortTripThreshold = bulkTripLimit, bulkTripLimit
	c.ip1, c.ip2 = ip.HostAddr(c.a1.Addr()), ip.HostAddr(c.a2.Addr())
	e.observe(c.eng, c.prof, c.sw, c.k1, c.k2)

	c.plane = fault.New(seed, sched)
	c.plane.AttachWire(c.sw)
	c.plane.AttachAN2(c.a1)
	c.plane.AttachAN2(c.a2)
	c.plane.AttachSystem(c.sys1)
	c.plane.AttachSystem(c.sys2)

	c.spawn(c.k2, "tcp-server", c.tcpServer)
	c.spawn(c.k1, "tcp-client", c.tcpClient)
	srv := nfs.NewServer()
	c.spawn(c.k2, "nfsd", func(p *aegis.Process) { c.nfsd(p, srv) })
	c.spawn(c.k1, "nfs-client", c.nfsSession)
	return c
}

// spawn starts a process and tracks whether it returns.
func (c *bulkCell) spawn(k *aegis.Kernel, name string, body func(p *aegis.Process)) {
	c.running++
	k.Spawn(name, func(p *aegis.Process) {
		defer func() { c.running-- }()
		body(p)
	})
}

// stack binds a fresh VC on the given host and builds an IP stack over it.
func (c *bulkCell) stack(p *aegis.Process, host, vc int) *ip.Stack {
	iface, local := c.a1, c.ip1
	if host == 2 {
		iface, local = c.a2, c.ip2
	}
	ep, err := link.BindAN2(iface, p, vc, 16, iface.MaxFrame())
	if err != nil {
		panic(err)
	}
	return ip.NewStack(ep, local, ip.StaticResolver{
		c.ip1: {Port: c.a1.Addr(), VC: vc},
		c.ip2: {Port: c.a2.Addr(), VC: vc},
	})
}

func (c *bulkCell) tcpConfig(sys *core.System) tcp.Config {
	cfg := tcp.DefaultConfig()
	cfg.Mode = tcp.ModeASH
	cfg.Checksum = true
	// Blocking, not polling: a spinning transfer would hold its host's CPU
	// for whole scheduler quanta and quantize the NFS latencies beside it.
	cfg.Polling = false
	cfg.MaxRetransmit = 16
	cfg.Sys = sys
	return cfg
}

func (c *bulkCell) tcpServer(p *aegis.Process) {
	conn, err := tcp.Accept(c.stack(p, 2, bulkTCPVC), c.tcpConfig(c.sys2), 80)
	if err != nil {
		return
	}
	c.srv = conn
	buf, err := p.AS.Alloc(bulkTCPChunk+64, "rx")
	for err == nil && c.tcpSunk < bulkTCPBytes {
		var n int
		if n, err = conn.Read(buf.Base, bulkTCPChunk); err != nil {
			break
		}
		var data []byte
		if data, err = p.AS.Bytes(buf.Base, n); err != nil {
			break
		}
		for len(data) > 0 && c.tcpSunk < bulkTCPBytes {
			// Verify chunk by chunk; a read never spans more than two.
			chunk := c.tcpSunk / bulkTCPChunk
			k := min(len(data), (chunk+1)*bulkTCPChunk-c.tcpSunk)
			if !bytes.Equal(data[:k], c.pat[c.tcpSunk:c.tcpSunk+k]) {
				c.tcpBad[chunk] = true
			}
			c.tcpSunk += k
			data = data[k:]
		}
		if len(data) > 0 {
			c.tcpBad[len(c.tcpBad)-1] = true // bytes past the end of the transfer
		}
	}
	c.tcpEnd = p.K.Now()
	_ = conn.Close()
}

func (c *bulkCell) tcpClient(p *aegis.Process) {
	conn, err := tcp.Connect(c.stack(p, 1, bulkTCPVC), c.tcpConfig(c.sys1), 1234, c.ip2, 80)
	if err != nil {
		return
	}
	c.cli = conn
	buf, err := p.AS.Alloc(bulkTCPChunk, "tx")
	if err != nil {
		return // the sink's byte count reports the transfer as failed
	}
	for sent := 0; sent < bulkTCPBytes; sent += bulkTCPChunk {
		data, err := p.AS.Bytes(buf.Base, bulkTCPChunk)
		if err != nil {
			return
		}
		copy(data, c.pat[sent:])
		if err := conn.Write(buf.Base, bulkTCPChunk); err != nil {
			return
		}
	}
	_ = conn.Close()
}

// nfsd answers requests until the session is over. The session's last
// RPC (a GETATTR sent after it finished) is what wakes it to notice.
func (c *bulkCell) nfsd(p *aegis.Process, srv *nfs.Server) {
	sock := udp.NewSocket(c.stack(p, 2, bulkNFSVC), 2049, udp.Options{Checksum: true})
	for !c.nfsDone {
		t := p.K.Now()
		srv.Serve(p, sock, 1)
		if p.K.Now() == t {
			return // the socket failed without serving: stop rather than spin
		}
	}
}

// nfsSession creates a file, writes it in chunks and reads it back,
// timing every RPC.
func (c *bulkCell) nfsSession(p *aegis.Process) {
	sock := udp.NewSocket(c.stack(p, 1, bulkNFSVC), 900, udp.Options{Checksum: true})
	cl := nfs.NewClient(sock, c.ip2, 2049)
	cl.RetryUs, cl.MaxRetryUs, cl.Retries = 10_000, 200_000, 12
	c.nfsClient = cl
	p.SleepUntil(c.nfsStart)
	defer func() {
		c.nfsDone, c.nfsEnd = true, p.K.Now()
		_, _ = cl.GetAttr(p, nfs.RootHandle) // releases nfsd; its outcome is not an operation
	}()
	rpc := func(f func() bool) bool {
		t0 := p.K.Now()
		c.nfsCalls++
		if !f() {
			return false
		}
		c.nfsOK++
		c.samples = append(c.samples, p.K.Now()-t0)
		return true
	}
	var fh nfs.Handle
	if !rpc(func() bool {
		attr, err := cl.Create(p, nfs.RootHandle, fmt.Sprintf("bulk-%d", c.seed))
		fh = attr.Handle
		return err == nil
	}) {
		return
	}
	file := c.pat[len(c.pat)-bulkNFSBytes:]
	for off := 0; off < bulkNFSBytes; off += nfs.MaxIO {
		data := file[off : off+nfs.MaxIO]
		if !rpc(func() bool { _, err := cl.Write(p, fh, uint32(off), data); return err == nil }) {
			return
		}
	}
	for off := 0; off < bulkNFSBytes; off += nfs.MaxIO {
		if !rpc(func() bool {
			data, err := cl.Read(p, fh, uint32(off), nfs.MaxIO)
			return err == nil && bytes.Equal(data, file[off:off+nfs.MaxIO])
		}) {
			return
		}
	}
}

func (w *bulkWorld) run(e *env) {
	for _, c := range w.cells {
		limit := c.prof.Cycles(bulkLimitUs)
		slice := c.prof.Cycles(1_000_000)
		for c.running > 0 && c.eng.Now() < limit && c.eng.Pending() > 0 {
			c.eng.RunFor(slice)
		}
		// Drain what the transfers left behind (retransmission and
		// close timers) so the buffer-pool check below is meaningful.
		for c.eng.Pending() > 0 && c.eng.Now() < limit {
			c.eng.RunFor(slice)
		}
	}
}

const (
	tcpOps = bulkTCPBytes / bulkTCPChunk
	nfsOps = 1 + 2*bulkNFSBytes/nfs.MaxIO // create, writes, reads
)

func (w *bulkWorld) check(e *env) *outcome {
	o := &outcome{cyclesPerUs: float64(w.cells[0].prof.MHz)}
	for _, c := range w.cells {
		name := c.sched.Name
		o.attempted += uint64(tcpOps + nfsOps)
		var bytes uint64
		for i, bad := range c.tcpBad {
			if !bad && (i+1)*bulkTCPChunk <= c.tcpSunk {
				o.completed++
				bytes += bulkTCPChunk
			}
		}
		if c.tcpSunk != bulkTCPBytes {
			o.fail(fmt.Sprintf("%s: TCP sink got %d of %d bytes", name, c.tcpSunk, bulkTCPBytes))
		}
		o.completed += uint64(c.nfsOK)
		if c.nfsOK == nfsOps {
			bytes += 2 * bulkNFSBytes // written, then read back identical
		}
		o.transfer(bytes, max(c.tcpEnd, c.nfsEnd))
		o.samples = append(o.samples, c.samples...)
		if c.running != 0 {
			o.fail(fmt.Sprintf("%s: %d processes still running at %d cycles", name, c.running, c.eng.Now()))
		}
		if c.eng.Pending() != 0 {
			o.fail(fmt.Sprintf("%s: engine did not drain", name))
		} else if n := c.sw.Pool.InUse(); n != 0 {
			o.fail(fmt.Sprintf("%s: %d switch pool buffers leaked", name, n))
		}

		pool := c.sw.Pool
		o.count("netdev.frames", float64(pool.Leases))
		o.count("netdev.pool_grown", float64(pool.Grown))
		for _, a := range []*aegis.AN2If{c.a1, c.a2} {
			arrivals := float64(a.K.Interrupts + a.K.BatchedInterrupts)
			dropped := float64(a.InjectedRingDrops + a.InjectedPoolDrops + a.LoadDrops + a.LoadSheds + a.DroppedNoVC)
			o.count("aegis.accepted", arrivals-dropped)
			o.count("aegis.offered", arrivals+float64(a.CRCDrops))
			addAN2RxCycles(o, a)
		}
		for _, s := range []*core.System{c.sys1, c.sys2} {
			o.count("core.aborts", float64(s.InvoluntaryAborts+s.AbortFallbacks))
		}
		for _, conn := range []*tcp.Conn{c.srv, c.cli} {
			if conn != nil {
				o.count("tcp.retransmits", float64(conn.Retransmits))
				o.count("tcp.segs_out", float64(conn.SegsOut))
			}
		}
		if c.nfsClient != nil {
			o.count("nfs.resent", float64(c.nfsClient.Resent))
		}
		o.count("nfs.calls", float64(c.nfsCalls))
		f := c.plane.C
		o.count("fault.injected", float64(f.WireDrops+f.WireCorruptions+f.WireSneaks+f.WireDups+
			f.WireReorders+f.WireDelays+f.DeviceRingDrops+f.DevicePoolDrops+f.DeviceTruncations+
			f.AbortBudget+f.AbortTimer))
	}
	countSandboxCache(o)
	return o
}

// addAN2RxCycles counts an AN2 host's kernel receive cost the way the
// megascale experiment does for Ethernet: interrupt entries, device
// service and (VC) demultiplexing, per arriving frame.
func addAN2RxCycles(o *outcome, a *aegis.AN2If) {
	prof := a.K.Prof
	frames := a.K.Interrupts + a.K.BatchedInterrupts
	o.count("aegis.rx_frames", float64(frames))
	o.count("aegis.rx_cycles", float64(a.K.Interrupts)*float64(prof.InterruptCycles)+
		float64(frames)*float64(prof.DeviceRxService+prof.DemuxVCCycles))
}
