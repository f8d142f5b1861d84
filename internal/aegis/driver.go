package aegis

import (
	"fmt"

	"ashs/internal/netdev"
	"ashs/internal/sim"
)

// Disposition is what a downloaded handler did with a message: from the
// kernel's point of view an ASH "either consumes the message it is given
// or returns it to the kernel to be handled normally" (Section II).
type Disposition int

const (
	// DispConsumed: the handler fully processed the message.
	DispConsumed Disposition = iota
	// DispToUser: deliver through the normal user-level path (the TCP
	// handler aborts this way when header prediction fails).
	DispToUser
)

// MsgHandler is the kernel's hook for downloaded message handlers. The ASH
// system (package core) implements it; so does the in-kernel hardwired
// handler used for Table I's first row.
type MsgHandler interface {
	// HandleMsg runs at message arrival, in the addressing context of the
	// owning process. All costs are charged through the context.
	HandleMsg(mc *MsgCtx) Disposition
}

// MsgCtx is the environment a message handler (ASH, upcall, or in-kernel
// code) runs in. It accumulates cycle costs; effects the handler initiates
// (sends, ring pushes) take place at arrival-time + accumulated-cost, so
// handler work is properly serialized on the virtual clock.
//
// Receive-path contexts are recycled through a per-kernel freelist: the
// driver acquires one per arriving frame and retires it once the last of
// its deferred effects (the commit-time transmits, the ring push) has
// fired, so the steady-state arrival path allocates nothing. Handlers must
// not hold a *MsgCtx past their return.
type MsgCtx struct {
	K     *Kernel
	Owner *Process // owning process (addressing context); nil for in-kernel
	Entry RingEntry
	VC    int
	Src   int

	// Striped marks an Ethernet arrival whose kernel buffer holds the
	// frame in the striping DMA's alternating 16-byte data/pad layout;
	// handlers that touch the buffer in place must index it through
	// StripedIndex (or use RawData and account for the doubling).
	Striped bool

	iface *AN2If
	ether *EthernetIf
	ring  *Ring // the binding's notification ring (for doorbells)
	t0    sim.Time
	cost  sim.Time

	// userLevel is set while an upcall handler runs: sends then go through
	// the system call interface rather than straight to the driver.
	userLevel bool

	// sends queues messages the handler initiated. They are released when
	// the handler commits (returns), at the path's completion time — an
	// aborted handler must not have sent (the commit/abort discipline of
	// Section II-A).
	sends []queuedSend

	// Freelist plumbing: pins counts scheduled events still holding this
	// context, done marks the receive path as returned, pooled marks
	// contexts owned by the kernel freelist (SyntheticMsg contexts are
	// not), next chains the freelist.
	pins   int
	done   bool
	pooled bool
	next   *MsgCtx
}

// queuedSend is one handler-initiated message awaiting commit. On the
// real receive path the frame is already leased from the wire pool; a
// synthetic context (no attached interface) falls back to a plain copy,
// matching its no-communication methodology.
type queuedSend struct {
	pkt     *netdev.PacketBuf
	dst, vc int
	data    []byte
}

// acquireMsgCtx takes a scrubbed context from the freelist.
func (k *Kernel) acquireMsgCtx() *MsgCtx {
	mc := k.mcFree
	if mc != nil {
		k.mcFree = mc.next
		mc.next = nil
	} else {
		mc = &MsgCtx{}
	}
	mc.pooled = true
	return mc
}

// retireMsgCtx scrubs a pooled context and returns it to the freelist.
func (k *Kernel) retireMsgCtx(mc *MsgCtx) {
	if !mc.pooled {
		return
	}
	sends := mc.sends[:0]
	*mc = MsgCtx{sends: sends}
	mc.next = k.mcFree
	k.mcFree = mc
}

// finishRx closes a receive path: it serializes subsequent kernel work
// behind this one and retires the context once no scheduled effect still
// needs it. Drivers defer it at the top of their receive functions.
func (k *Kernel) finishRx(mc *MsgCtx) {
	k.kernBusyUntil = mc.When()
	mc.done = true
	if mc.pins == 0 {
		k.retireMsgCtx(mc)
	}
}

// unpin drops one scheduled-effect reference.
func (k *Kernel) unpin(mc *MsgCtx) {
	mc.pins--
	if mc.done && mc.pins == 0 {
		k.retireMsgCtx(mc)
	}
}

// mcCommit is the commit-time event: transmit the queued sends.
func (k *Kernel) mcCommit(a any) {
	mc := a.(*MsgCtx)
	var port *netdev.Port
	if mc.iface != nil {
		port = mc.iface.Port
	} else {
		port = mc.ether.Port
	}
	for i := range mc.sends {
		_ = port.Transmit(mc.sends[i].pkt)
		mc.sends[i] = queuedSend{}
	}
	mc.sends = mc.sends[:0]
	k.unpin(mc)
}

// mcRingPush is the delivery-time event: push the arrival notification.
func (k *Kernel) mcRingPush(a any) {
	mc := a.(*MsgCtx)
	mc.ring.push(mc.Entry, sim.Time(k.Prof.SchedDecision))
	k.unpin(mc)
}

// mcDoorbell is the doorbell event: push a zero-length notification.
func (k *Kernel) mcDoorbell(a any) {
	mc := a.(*MsgCtx)
	mc.ring.push(RingEntry{Len: 0, BufIndex: -1}, sim.Time(k.Prof.SchedDecision))
	k.unpin(mc)
}

// shed is the ring high-watermark admission check both drivers run after
// demux: once r stands at its watermark the arrival is refused before it
// costs a buffer, a DMA, or any handler cycles, and the refusal is
// counted against the binding (bound) and the interface (iface).
func (k *Kernel) shed(r *Ring, bound, iface *uint64) bool {
	if hw := r.HighWater; hw <= 0 || r.Len() < hw {
		return false
	}
	*bound++
	*iface++
	if o := k.Obs; o.Enabled() {
		o.Inc("aegis/" + k.Name + "/ring_shed")
	}
	return true
}

// rxDispatch is the receive-path tail both drivers share: the downloaded
// handler, then the upcall, then ring delivery. The first stage that
// consumes the message commits its sends and returns the receive buffer
// to free; a message no stage consumes keeps its buffer until the owner
// frees it.
func (k *Kernel) rxDispatch(mc *MsgCtx, h MsgHandler, u *Upcall, free *bufFIFO) {
	if h != nil {
		s0 := mc.When()
		mc.Charge(sim.Time(k.Prof.ASHDispatch))
		k.Obs.Span(k.Name, "device", "kernel", "ash dispatch", s0, mc.When()-s0)
		if h.HandleMsg(mc) == DispConsumed {
			mc.commitSends()
			free.push(mc.Entry.BufIndex)
			return
		}
		mc.abortSends()
	}
	if u != nil {
		if u.dispatch(mc) == DispConsumed {
			mc.commitSends()
			free.push(mc.Entry.BufIndex)
			return
		}
		mc.abortSends()
	}
	k.ringDeliver(mc)
}

// ringDeliver pushes a ring notification at path-completion time and
// wakes a blocked owner (charging the wake/schedule path).
func (k *Kernel) ringDeliver(mc *MsgCtx) {
	s0 := mc.When()
	mc.Charge(sim.Time(k.Prof.RingUpdateCycles))
	k.Obs.Span(k.Name, "device", "kernel", "ring deliver", s0, mc.When()-s0)
	mc.pins++
	k.Eng.ScheduleArgAt(mc.When(), k.ringPushFn, mc)
}

// Charge adds handler cycles.
func (mc *MsgCtx) Charge(c sim.Time) { mc.cost += c }

// Cost reports cycles accumulated so far on this receive path.
func (mc *MsgCtx) Cost() sim.Time { return mc.cost }

// When reports the virtual time at which the path's work completes.
func (mc *MsgCtx) When() sim.Time { return mc.t0 + mc.cost }

// Data returns the received bytes (the DMA'd message in the owner's
// buffer). Handlers performing modeled data access must charge separately.
// For striped arrivals only the first data line is contiguous — use
// RawData with StripedIndex to address the rest.
func (mc *MsgCtx) Data() []byte {
	return mc.K.Bytes(mc.Entry.Addr, mc.Entry.Len)
}

// RawData returns the buffer as the device laid it out: for striped
// Ethernet arrivals that is the alternating data/pad window covering the
// whole frame (index it with StripedIndex); otherwise it is Data.
func (mc *MsgCtx) RawData() []byte {
	if !mc.Striped || mc.Entry.Len == 0 {
		return mc.Data()
	}
	return mc.K.Bytes(mc.Entry.Addr, StripedIndex(mc.Entry.Len-1)+1)
}

// Send initiates a message from the handler ("ASHs can send messages...
// allowing low-latency message replies"). The transmit setup is charged
// now; the packet is released when the handler commits.
func (mc *MsgCtx) Send(dst, vc int, data []byte) {
	if mc.userLevel {
		// Upcall handlers send from user level: full system call.
		mc.Charge(sim.Time(mc.K.Prof.SyscallCycles))
	}
	mc.Charge(sim.Time(mc.K.Prof.DeviceTxSetup))
	var sw *netdev.Switch
	switch {
	case mc.iface != nil:
		sw = mc.iface.Sw
	case mc.ether != nil:
		sw = mc.ether.Sw
	default:
		// Synthetic context (Section V-D isolation runs): there is no wire
		// to lease from and commit never transmits; keep a plain copy.
		buf := append([]byte(nil), data...)
		mc.sends = append(mc.sends, queuedSend{dst: dst, vc: vc, data: buf})
		return
	}
	pkt := sw.LeaseData(data)
	pkt.Dst, pkt.VC = dst, vc
	mc.sends = append(mc.sends, queuedSend{pkt: pkt, dst: dst, vc: vc})
}

// commitSends releases queued sends at the path's completion time.
func (mc *MsgCtx) commitSends() {
	if len(mc.sends) == 0 {
		return
	}
	if mc.iface == nil && mc.ether == nil {
		return // synthetic context: nothing reaches a wire
	}
	mc.pins++
	mc.K.Eng.ScheduleArgAt(mc.When(), mc.K.commitFn, mc)
}

// abortSends discards queued sends (the handler aborted), returning their
// leases to the wire pool.
func (mc *MsgCtx) abortSends() {
	for i := range mc.sends {
		if pkt := mc.sends[i].pkt; pkt != nil {
			pkt.Release()
		}
		mc.sends[i] = queuedSend{}
	}
	mc.sends = mc.sends[:0]
}

// Doorbell pushes a zero-length notification onto the owning binding's
// ring at path-completion time: a handler that consumed a message uses it
// to tell the user-level library to re-examine shared state. The ring
// update is charged like any other.
func (mc *MsgCtx) Doorbell() {
	if mc.ring == nil {
		return
	}
	mc.Charge(sim.Time(mc.K.Prof.RingUpdateCycles))
	mc.pins++
	mc.K.Eng.ScheduleArgAt(mc.When(), mc.K.doorbellFn, mc)
}

// SyntheticMsg fabricates a message context for running a handler in
// isolation — the paper's Section V-D methodology: "we take this
// measurement in isolation, without the cost of communication, but with
// both ASHs running in the kernel". The message is assumed already in
// memory at entry.Addr.
func SyntheticMsg(k *Kernel, owner *Process, entry RingEntry) *MsgCtx {
	return &MsgCtx{K: k, Owner: owner, Entry: entry, VC: entry.VC, Src: entry.Src,
		t0: k.Eng.Now()}
}

// DeviceFault is an injected device-level failure for one arriving frame.
// A fault plane installs an InjectFault hook on an interface; the driver
// consults it once per frame and models the requested failure.
type DeviceFault struct {
	// DropRing models AN2 notification-ring overflow: the board has no
	// ring entry for the arrival and the frame is lost.
	DropRing bool
	// DropPool models receive-pool exhaustion (the Ethernet's bounded
	// kernel pool, the AN2's per-VC buffers): nowhere to DMA, frame lost.
	DropPool bool
	// TruncateTo > 0 models a truncated DMA: only that many bytes land in
	// memory. The IP layer's length validation catches the damage.
	TruncateTo int
}

// --------------------------------------------------------------------
// AN2 (ATM) interface
// --------------------------------------------------------------------

// VCBinding is a process's binding to an AN2 virtual circuit: its receive
// buffers, its notification ring, and optionally a downloaded handler or
// an upcall (Section IV-A).
type VCBinding struct {
	VC      int
	Owner   *Process
	Ring    *Ring
	Handler MsgHandler
	Upcall  *Upcall

	// InKernel marks the hardwired kernel-level endpoint used for the
	// in-kernel row of Table I: a polled driver loop with no interrupt,
	// demux, or user-level delivery costs.
	InKernel bool
	// InKernelRx, when InKernel, handles the message.
	InKernelRx func(mc *MsgCtx)

	iface    *AN2If
	bufs     []Segment
	freeBufs bufFIFO

	// DroppedNoBuf counts messages lost to receive-buffer exhaustion;
	// DroppedTooBig counts messages larger than the bound buffers. Shed
	// counts arrivals refused by ring high-watermark admission control
	// (see Ring.HighWater): the circuit matched, but the owner was so far
	// behind that queueing more would only grow stale backlog.
	DroppedNoBuf  uint64
	DroppedTooBig uint64
	Shed          uint64
}

// AN2If is the AN2 driver instance for one host.
type AN2If struct {
	K    *Kernel
	Port *netdev.Port
	Sw   *netdev.Switch

	vcs map[int]*VCBinding

	// InjectFault, when set, is consulted once per arriving frame so a
	// fault plane can model device-level failures.
	InjectFault func(pkt *netdev.PacketBuf) DeviceFault

	// DroppedNoVC counts messages to unbound circuits. CRCDrops counts
	// frames the board's frame check rejected; the Injected* counters
	// record failures forced by the fault plane, and only those. LoadDrops
	// and LoadSheds aggregate the genuine load-induced losses across
	// circuits (buffer starvation; high-watermark refusals), so a soak can
	// assert shed-because-saturated separately from dropped-by-chaos.
	DroppedNoVC         uint64
	CRCDrops            uint64
	LoadDrops           uint64
	LoadSheds           uint64
	InjectedRingDrops   uint64
	InjectedPoolDrops   uint64
	InjectedTruncations uint64
}

// NewAN2 attaches an AN2 interface to host k on switch sw.
func NewAN2(k *Kernel, sw *netdev.Switch) *AN2If {
	a := &AN2If{K: k, Port: sw.NewPort(), Sw: sw, vcs: map[int]*VCBinding{}}
	a.Port.SetReceiver(a.receive)
	return a
}

// Addr is this host's address on the AN2 switch.
func (a *AN2If) Addr() int { return a.Port.Addr() }

// MaxFrame is the largest payload one packet can carry.
func (a *AN2If) MaxFrame() int { return a.Sw.Cfg.MaxFrame }

// BindVC binds a virtual circuit for process p with nbufs receive buffers
// of bufSize bytes, allocated in p's address space ("providing a section
// of their memory for messages to be DMA'ed to"). For in-kernel endpoints
// pass p == nil and buffers land in kernel memory.
func (a *AN2If) BindVC(p *Process, vc, nbufs, bufSize int) (*VCBinding, error) {
	if _, dup := a.vcs[vc]; dup {
		return nil, fmt.Errorf("aegis %s: VC %d already bound", a.K.Name, vc)
	}
	b := &VCBinding{VC: vc, Owner: p, Ring: NewRing(a.K), iface: a}
	b.freeBufs.init(nbufs)
	for i := 0; i < nbufs; i++ {
		var seg Segment
		if p != nil {
			s, err := p.AS.Alloc(bufSize, fmt.Sprintf("an2-rx-vc%d-%d", vc, i))
			if err != nil {
				return nil, err
			}
			seg = s
		} else {
			base, err := a.K.AllocPhys(bufSize, fmt.Sprintf("an2-krx-vc%d-%d", vc, i))
			if err != nil {
				return nil, err
			}
			seg = Segment{Base: base, Len: uint32(bufSize)}
		}
		b.bufs = append(b.bufs, seg)
	}
	a.vcs[vc] = b
	return b, nil
}

// FreeBuf returns a receive buffer to the DMA pool ("the application is
// allowed to use those message buffers directly, as long as it eventually
// returns or replaces them"). The caller pays BufferMgmtCycles separately
// (user code via Process.Compute, handlers via MsgCtx.Charge).
func (b *VCBinding) FreeBuf(idx int) {
	b.freeBufs.push(idx)
}

// receive is the arrival path (event context, at DMA-complete time). The
// frame buffer is borrowed from the wire for the duration of the call:
// the driver copies the payload into bound receive buffers and never
// retains pkt.
func (a *AN2If) receive(pkt *netdev.PacketBuf) {
	// The board verifies the frame check sequence before raising any
	// notification: frames damaged on the wire never reach software.
	data := pkt.Bytes()
	if pkt.FCS != netdev.FrameCheck(data) {
		a.CRCDrops++
		return
	}
	intr := a.K.interruptEntry()
	var df DeviceFault
	if a.InjectFault != nil {
		df = a.InjectFault(pkt)
	}
	if df.DropRing {
		// Notification-ring overflow: the arrival is never raised.
		a.InjectedRingDrops++
		return
	}
	b := a.vcs[pkt.VC]
	if b == nil {
		a.DroppedNoVC++
		return
	}
	if df.DropPool {
		// Injected exhaustion counts only as injected: b.DroppedNoBuf is
		// reserved for genuine load-induced buffer starvation, so the
		// chaos soak can assert the two causes separately.
		a.InjectedPoolDrops++
		return
	}
	if a.K.shed(b.Ring, &b.Shed, &a.LoadSheds) {
		return
	}
	if b.freeBufs.len() == 0 {
		b.DroppedNoBuf++
		a.LoadDrops++
		return
	}
	bufIdx := b.freeBufs.peek()
	seg := b.bufs[bufIdx]
	n := len(data)
	if df.TruncateTo > 0 && df.TruncateTo < n {
		a.InjectedTruncations++
		n = df.TruncateTo
	}
	if uint32(n) > seg.Len {
		// The bound receive buffers are too small for this message: the
		// DMA engine has nowhere to put it.
		b.DroppedTooBig++
		return
	}
	b.freeBufs.pop()
	// The DMA itself costs no CPU; the driver then flushes the cache over
	// the message location "to ensure consistency after the DMA".
	copy(a.K.Bytes(seg.Base, n), data[:n])
	a.K.Cache.FlushRange(seg.Base, n)

	mc := a.K.acquireMsgCtx()
	mc.K, mc.Owner, mc.VC, mc.Src = a.K, b.Owner, pkt.VC, pkt.Src
	mc.iface, mc.ring = a, b.Ring
	mc.Entry = RingEntry{Addr: seg.Base, Len: n, VC: pkt.VC, Src: pkt.Src, BufIndex: bufIdx}
	mc.t0 = a.K.kernStart()
	defer a.K.finishRx(mc)

	prof := a.K.Prof
	o := a.K.Obs
	switch {
	case b.InKernel:
		// Hardwired kernel endpoint: polled driver loop.
		mc.Charge(sim.Time(prof.KernelPollCycles + prof.DeviceRxService))
		o.Span(a.K.Name, "device", "device", "an2 rx poll", mc.t0, mc.Cost())
		s0 := mc.When()
		b.InKernelRx(mc)
		o.Span(a.K.Name, "device", "ash", "in-kernel rx", s0, mc.When()-s0)
		mc.commitSends()
		b.FreeBuf(bufIdx)
		return
	default:
		mc.Charge(intr + sim.Time(prof.DeviceRxService+prof.DemuxVCCycles))
		o.Span(a.K.Name, "device", "device", "an2 rx demux", mc.t0, mc.Cost())
		if o.Enabled() {
			o.Inc("aegis/" + a.K.Name + "/interrupts")
		}
	}

	// "ASHs are invoked directly from the AN2 device driver, just after it
	// performs a software cache flush of the message location."
	a.K.rxDispatch(mc, b.Handler, b.Upcall, &b.freeBufs)
}

// Send transmits from process p over vc: the user-level transmission path
// through the full system call interface plus device setup.
func (a *AN2If) Send(p *Process, dst, vc int, data []byte) {
	p.Syscall(sim.Time(a.K.Prof.DeviceTxSetup))
	a.KernelSend(dst, vc, data)
}

// KernelSend transmits from kernel context (in-kernel endpoints): device
// setup only, no system call.
func (a *AN2If) KernelSend(dst, vc int, data []byte) {
	pkt := a.Sw.LeaseData(data)
	pkt.Dst, pkt.VC = dst, vc
	_ = a.Port.Transmit(pkt)
}
