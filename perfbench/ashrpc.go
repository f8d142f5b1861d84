package main

import (
	"encoding/binary"
	"fmt"
	"math"

	"ashs/internal/aegis"
	"ashs/internal/core"
	"ashs/internal/crl"
	"ashs/internal/mach"
	"ashs/internal/netdev"
	"ashs/internal/proto/link"
	"ashs/internal/sim"
	"ashs/internal/vcode"
)

// ash-rpc: closed-loop active-message round trips over AN2 to sandboxed
// vcode ASHs. It opens with Table V's cell (one polling client, remote
// increment, sandboxed ASH); then a few polling clients, each on its own
// host, send a seeded mix of the replying crl handlers (increment, lock,
// generic write, with their failure paths) to per-client handlers on one
// server. Every request has the size its protocol defines. The benchmark
// keeps its own model of every counter, lock and segment and checks each
// reply and the server's final memory against it.
const (
	rpcClients   = 8
	rpcOps       = 1500 // per client in the mixed phase
	rpcModelOps  = 64   // Table V phase round trips after warm-up
	rpcWarmup    = 2
	rpcLocks     = 8
	rpcSegBytes  = 1024
	rpcModelVC   = 9
	rpcReplyVC   = 100
	rpcPaperRTUs = 152 // Table V, sandboxed ASH, polling
	rpcTimeoutUs = 20_000
	rpcMagic     = 0x44534d21 // the generic write protocol's "DSM!"
	rpcClientMem = 1 << 20

	// rpcMixStartUs is when the mixed phase starts: far beyond the
	// Table V phase, which must be over by then.
	rpcMixStartUs = 100_000
)

// Operation kinds, one handler (and one server VC) each per client.
const (
	opIncr = iota
	opLock
	opWrite
	opKinds
)

type rpcWorld struct {
	eng     *sim.Engine
	prof    *mach.Profile
	sw      *netdev.Switch
	srv     *aegis.Kernel
	srvIf   *aegis.AN2If
	owner   *aegis.Process
	node    *crl.Node
	clients []*rpcClient
	model   *rpcModelPhase
	ashes   []*core.ASH
	running int
}

// rpcClient is one client host, its seeded operation list and the
// benchmark's model of its server-side state.
type rpcClient struct {
	id     int
	k      *aegis.Kernel
	iface  *aegis.AN2If
	ep     *link.AN2Link
	ops    [][]byte // requests, in order
	kinds  []int
	ashes  [opKinds]*core.ASH
	seg    int      // the client's generic-write segment number
	insns  uint64   // handler instructions over its operations
	result struct { // what the client saw
		done     int
		samples  []sim.Time
		failed   []string
		staleIDs int // replies to header-refused writes with another request's id
	}

	// Model state.
	counter uint32
	locks   [rpcLocks]uint32
	segment [rpcSegBytes]byte
	reqID   uint32
}

// rpcModelPhase is Table V's polling sandboxed-ASH cell.
type rpcModelPhase struct {
	ep         *link.AN2Link
	start, end sim.Time
	counter    uint32
	ok         bool
	samples    []sim.Time
}

func setupASHRPC(e *env) world {
	w := &rpcWorld{}
	w.eng = e.engine()
	w.prof = mach.DS5000_240()
	w.sw = netdev.NewSwitch(w.eng, w.prof, netdev.AN2Config())
	e.time("aegis.kernel_new_s", func() { w.srv = aegis.NewKernel("srv", w.eng, w.prof) })
	w.srvIf = aegis.NewAN2(w.srv, w.sw)
	sys := core.NewSystem(w.srv)
	kernels := []*aegis.Kernel{w.srv}
	for c := 0; c < rpcClients; c++ {
		cl := &rpcClient{id: c}
		e.time("aegis.kernel_new_s", func() {
			cl.k = aegis.NewKernelMem(fmt.Sprintf("c%d", c), w.eng, w.prof, rpcClientMem)
		})
		cl.iface = aegis.NewAN2(cl.k, w.sw)
		kernels = append(kernels, cl.k)
		w.clients = append(w.clients, cl)
	}
	e.observe(w.eng, w.prof, w.sw, kernels...)

	w.owner = w.srv.Spawn("dsm-app", func(*aegis.Process) {})
	w.node = crl.NewNode(sys, w.owner)
	for _, cl := range w.clients {
		seg, _, err := w.node.AddSegment(rpcSegBytes, fmt.Sprintf("c%d", cl.id))
		if err != nil {
			panic(err)
		}
		cl.seg = seg
	}

	download := func(prog *vcode.Program, vc int) *core.ASH {
		var ash *core.ASH
		e.time("sandbox.download_s", func() {
			var err error
			if ash, err = sys.Download(w.owner, prog, core.Options{}); err != nil {
				panic(err)
			}
		})
		e.time("aegis.bind_s", func() {
			b, err := w.srvIf.BindVC(w.owner, vc, 8, 4096)
			if err != nil {
				panic(err)
			}
			ash.AttachVC(b)
		})
		w.ashes = append(w.ashes, ash)
		return ash
	}

	// Table V phase: the increment word past every client's.
	m := &rpcModelPhase{}
	w.model = m
	host0 := w.clients[0]
	download(crl.IncrementHandler(w.node.CounterSeg.Base+4*rpcClients, host0.iface.Addr(), rpcModelVC), rpcModelVC)
	m.ep = w.bind(e, host0.iface, w.spawn(host0.k, "table5-client", w.modelClient), rpcModelVC)

	// Mixed phase: three handlers per client, each on its own server VC.
	for _, cl := range w.clients {
		dst := cl.iface.Addr()
		vc := 16 + opKinds*cl.id
		cl.ashes[opIncr] = download(crl.IncrementHandler(w.node.CounterSeg.Base+4*uint32(cl.id), dst, rpcReplyVC), vc+opIncr)
		cl.ashes[opLock] = download(crl.LockHandler(w.node.LockSeg.Base+4*rpcLocks*uint32(cl.id), rpcLocks, dst, rpcReplyVC), vc+opLock)
		cl.ashes[opWrite] = download(crl.GenericWriteHandler(w.node.TableAddr(), rpcClients, dst, rpcReplyVC), vc+opWrite)
		e.exclude(func() { cl.generate(e.seed) })
		p := w.spawn(cl.k, fmt.Sprintf("client%d", cl.id), func(p *aegis.Process) { w.mixedClient(p, cl) })
		cl.ep = w.bind(e, cl.iface, p, rpcReplyVC)
	}
	return w
}

// spawn starts a client process and tracks whether it returns.
func (w *rpcWorld) spawn(k *aegis.Kernel, name string, body func(p *aegis.Process)) *aegis.Process {
	w.running++
	return k.Spawn(name, func(p *aegis.Process) {
		defer func() { w.running-- }()
		body(p)
	})
}

func (w *rpcWorld) bind(e *env, iface *aegis.AN2If, p *aegis.Process, vc int) *link.AN2Link {
	var ep *link.AN2Link
	e.time("aegis.bind_s", func() {
		var err error
		if ep, err = link.BindAN2(iface, p, vc, 8, 4096); err != nil {
			panic(err)
		}
	})
	return ep
}

// modelClient is remoteIncrementRT's client: increments of one, a
// generous reply timeout, round trip = window / iterations.
func (w *rpcWorld) modelClient(p *aegis.Process) {
	m := w.model
	dst := link.Addr{Port: w.srvIf.Addr(), VC: rpcModelVC}
	for i := 0; i < rpcWarmup+rpcModelOps; i++ {
		if i == rpcWarmup {
			m.start = p.K.Now()
		}
		t0 := p.K.Now()
		m.ep.Send(dst, []byte{0, 0, 0, 1})
		f, ok := m.ep.RecvUntil(true, p.K.Now()+w.prof.Cycles(rpcTimeoutUs))
		if !ok {
			return
		}
		v := f.U32(0)
		m.ep.Release(f)
		m.counter++
		if v != m.counter {
			return
		}
		if i >= rpcWarmup {
			m.samples = append(m.samples, p.K.Now()-t0)
		}
	}
	m.end = p.K.Now()
	m.ok = true
}

// generate draws the client's operations from the seed and applies each
// to the model, recording the reply the server must send.
func (cl *rpcClient) generate(seed int64) {
	rng := sim.NewRand(seed*131 + int64(cl.id))
	for i := 0; i < rpcOps; i++ {
		var msg []byte
		kind := opIncr
		switch r := rng.Intn(10); {
		case r < 4:
			msg = be32s(uint32(1 + rng.Intn(1000)))
		case r < 7:
			kind = opLock
			// Two requester ids per client, so acquires contend and
			// releases by the non-holder are denied.
			msg = be32s(uint32(rng.Intn(rpcLocks)), uint32(1+rng.Intn(2)), uint32(2*cl.id+1+rng.Intn(2)))
		default:
			kind = opWrite
			msg = cl.writeRequest(rng)
		}
		cl.ops = append(cl.ops, msg)
		cl.kinds = append(cl.kinds, kind)
	}
}

// writeRequest builds a generic remote write; one in five is refused
// by the handler's validation (bad magic or version, foreign or missing
// segment, misaligned offset, out of bounds).
func (cl *rpcClient) writeRequest(rng *sim.Rand) []byte {
	cl.reqID++
	words := 1 + rng.Intn(32)
	magic, ver := uint32(rpcMagic), uint32(1<<16)
	seg := uint32(cl.seg)
	off := uint32(4 * rng.Intn((rpcSegBytes-4*words)/4+1))
	if rng.Intn(5) == 0 {
		switch rng.Intn(5) {
		case 0:
			magic ^= 1 << uint(rng.Intn(32))
		case 1:
			ver = uint32(2+rng.Intn(3)) << 16
		case 2:
			seg = rpcClients + uint32(rng.Intn(4))
		case 3:
			off |= 2
		default:
			off = rpcSegBytes - 4*uint32(words) + 4
		}
	}
	msg := be32s(magic, ver, cl.reqID, seg, off, uint32(4*words))
	for j := 0; j < words; j++ {
		msg = binary.BigEndian.AppendUint32(msg, rng.Uint32())
	}
	return msg
}

func be32s(vs ...uint32) []byte {
	b := make([]byte, 0, 4*len(vs))
	for _, v := range vs {
		b = binary.BigEndian.AppendUint32(b, v)
	}
	return b
}

// expect applies request i to the model and returns the reply the
// server's handler must send.
func (cl *rpcClient) expect(i int) []byte {
	msg := cl.ops[i]
	u := func(j int) uint32 { return binary.BigEndian.Uint32(msg[4*j:]) }
	switch cl.kinds[i] {
	case opIncr:
		cl.counter += u(0)
		return be32s(cl.counter)
	case opLock:
		idx, op, who := u(0), u(1), u(2)
		cur := &cl.locks[idx]
		status := uint32(1)
		switch {
		case op == 2 && *cur == who:
			*cur, status = 0, 0
		case op == 1 && (*cur == 0 || *cur == who):
			*cur, status = who, 0
		}
		return be32s(status)
	}
	magic, ver, req, seg, off, n := u(0), u(1), u(2), u(3), u(4), u(5)
	status := uint32(1)
	if magic == rpcMagic && ver>>16 == 1 && seg == uint32(cl.seg) && off%4 == 0 && n%4 == 0 && off+n <= rpcSegBytes {
		copy(cl.segment[off:off+n], msg[24:24+n])
		status = 0
	}
	return be32s(rpcMagic, req, status)
}

// headerRefused reports whether request i is a generic write the handler
// refuses for its magic or version. The handler rejects those before it
// loads the request id, so its reply carries whatever id its register
// held from an earlier message (a defect of crl.GenericWriteHandler). The
// reply check exempts that one word and counts the stale ids instead.
func (cl *rpcClient) headerRefused(i int) bool {
	msg := cl.ops[i]
	return cl.kinds[i] == opWrite &&
		(binary.BigEndian.Uint32(msg) != rpcMagic || binary.BigEndian.Uint32(msg[4:])>>16 != 1)
}

// mixedClient waits for the mixed phase, then runs its operations closed
// loop, checking every reply against the model.
func (w *rpcWorld) mixedClient(p *aegis.Process, cl *rpcClient) {
	p.SleepUntil(w.prof.Cycles(rpcMixStartUs))
	srv := w.srvIf.Addr()
	vc := 16 + opKinds*cl.id
	for i, msg := range cl.ops {
		kind := cl.kinds[i]
		t0 := p.K.Now()
		cl.ep.Send(link.Addr{Port: srv, VC: vc + kind}, msg)
		f, ok := cl.ep.RecvUntil(true, p.K.Now()+w.prof.Cycles(rpcTimeoutUs))
		if !ok {
			cl.result.failed = append(cl.result.failed, fmt.Sprintf("client %d op %d: no reply", cl.id, i))
			return
		}
		got := make([]byte, f.Len())
		f.Bytes(got, 0, len(got))
		cl.ep.Release(f)
		cl.insns += uint64(cl.ashes[kind].LastInsns())
		want := cl.expect(i)
		if cl.headerRefused(i) && len(got) == len(want) {
			if string(got[4:8]) != string(want[4:8]) {
				cl.result.staleIDs++
			}
			copy(got[4:8], want[4:8])
		}
		if string(got) != string(want) {
			cl.result.failed = append(cl.result.failed, fmt.Sprintf("client %d op %d: reply %x, model says %x", cl.id, i, got, want))
			return
		}
		cl.result.done++
		cl.result.samples = append(cl.result.samples, p.K.Now()-t0)
	}
}

func (w *rpcWorld) run(e *env) { w.eng.Run() }

func (w *rpcWorld) check(e *env) *outcome {
	o := &outcome{cyclesPerUs: float64(w.prof.MHz)}
	m := w.model
	o.attempted = rpcModelOps
	if m.ok {
		o.completed = rpcModelOps
		o.samples = append(o.samples, m.samples...)
		o.transfer(8*rpcModelOps, m.end-m.start) // 4-byte requests and replies
		rt := w.prof.Us(m.end-m.start) / rpcModelOps
		o.count("model.table5_rtt_us", rt)
		o.count("model.table5_err_frac", math.Abs(rt-rpcPaperRTUs)/rpcPaperRTUs)
		if m.end > w.prof.Cycles(rpcMixStartUs) {
			o.fail("the Table V phase overran the mixed phase's start")
		}
	} else {
		o.fail("Table V phase: a reply was lost or wrong")
	}
	if w.running != 0 {
		o.fail(fmt.Sprintf("%d client processes still running", w.running))
	}
	if w.eng.Pending() != 0 {
		o.fail("engine did not drain")
	} else if n := w.sw.Pool.InUse(); n != 0 {
		o.fail(fmt.Sprintf("%d switch pool buffers leaked", n))
	}

	var ops, insns, bytes uint64
	for _, cl := range w.clients {
		o.attempted += rpcOps
		o.completed += uint64(cl.result.done)
		o.samples = append(o.samples, cl.result.samples...)
		for _, f := range cl.result.failed {
			o.fail(f)
		}
		for i := 0; i < cl.result.done; i++ {
			bytes += uint64(len(cl.ops[i]))
		}
		ops += uint64(cl.result.done)
		insns += cl.insns
		o.count("crl.stale_reply_ids", float64(cl.result.staleIDs))
		w.checkState(o, cl)
	}
	o.transfer(bytes, w.eng.Now()-w.prof.Cycles(rpcMixStartUs))

	o.count("vcode.handler_insns", float64(insns))
	o.count("vcode.handler_ops", float64(ops))
	for _, a := range w.ashes {
		o.count("sandbox.added_insns", float64(a.AddedStatic()))
		o.count("sandbox.downloads", 1)
	}
	o.count("netdev.frames", float64(w.sw.Pool.Leases))
	o.count("netdev.pool_grown", float64(w.sw.Pool.Grown))
	addAN2RxCycles(o, w.srvIf)
	o.count("aegis.accepted", float64(w.srv.Interrupts+w.srv.BatchedInterrupts))
	o.count("aegis.offered", float64(w.srv.Interrupts+w.srv.BatchedInterrupts+w.srvIf.CRCDrops))
	countSandboxCache(o)
	return o
}

// checkState compares the server's memory for one client with the
// model: its counter word, its lock words and its write segment.
func (w *rpcWorld) checkState(o *outcome, cl *rpcClient) {
	as := w.owner.AS
	if v, err := as.Load32(w.node.CounterSeg.Base + 4*uint32(cl.id)); err != nil || v != cl.counter {
		o.fail(fmt.Sprintf("client %d: counter %d, model %d (%v)", cl.id, v, cl.counter, err))
	}
	for j := 0; j < rpcLocks; j++ {
		v, err := as.Load32(w.node.LockSeg.Base + 4*uint32(rpcLocks*cl.id+j))
		if err != nil || v != cl.locks[j] {
			o.fail(fmt.Sprintf("client %d: lock %d holder %d, model %d (%v)", cl.id, j, v, cl.locks[j], err))
		}
	}
	seg := w.node.Segment(cl.seg)
	if b, err := as.Bytes(seg.Base, rpcSegBytes); err != nil || string(b) != string(cl.segment[:]) {
		o.fail(fmt.Sprintf("client %d: write segment differs from the model (%v)", cl.id, err))
	}
}
