// Package hotpath holds wall-clock microbenchmarks for the simulator's
// two hottest loops: the DPF discrimination-trie walk (every delivered
// packet) and the event-queue schedule/dispatch cycle (every simulated
// action). The bodies live here, outside a _test.go file, so both
// `go test -bench` (internal/bench/hotpath) and the JSON-emitting
// harness (cmd/hotpathbench) run exactly the same code — the committed
// BENCH_hotpath.json numbers are the numbers the bench wrappers measure.
package hotpath

import (
	"testing"

	"ashs/internal/aegis"
	"ashs/internal/dpf"
	"ashs/internal/mach"
	"ashs/internal/netdev"
	"ashs/internal/sandbox"
	"ashs/internal/sim"
	"ashs/internal/vcode"
)

const (
	// Filters is the installed-filter population for the trie walk — the
	// many-client fan-in shape of the scale experiment, where each client
	// contributes one UDP port filter.
	Filters = 512

	// QueueDepth is the steady-state event population for the queue
	// benchmark: deep enough that heap reshuffles dominate, shallow
	// enough to stay cache-resident like a real run.
	QueueDepth = 1024

	// HandlerBytes is the packet the VCODE handler walks: one Ethernet
	// minimum frame, the message size every ASH invocation touches.
	HandlerBytes = 64

	// HandlerVariants is the distinct-program population for the
	// instrumentation benchmark. It deliberately exceeds the sandbox
	// compile cache's capacity so every Sandbox call measures a real
	// verify+instrument, not a memo hit.
	HandlerVariants = 512
)

// NewLoadedEngine builds a DPF engine with Filters per-client UDP port
// filters installed and returns it with a 64-byte packet that matches
// the median filter.
func NewLoadedEngine() (*dpf.Engine, []byte) {
	e := dpf.NewEngine()
	for i := 0; i < Filters; i++ {
		f := dpf.NewFilter().
			Eq16(12, 0x0800).        // ethertype IP
			Eq8(23, 17).             // protocol UDP
			Eq16(36, uint16(1000+i)) // destination port
		if _, err := e.Insert(f); err != nil {
			panic(err)
		}
	}
	pkt := make([]byte, 64)
	port := uint16(1000 + Filters/2)
	pkt[12], pkt[13] = 0x08, 0x00
	pkt[23] = 17
	pkt[36], pkt[37] = byte(port>>8), byte(port)
	return e, pkt
}

// DPFTrieWalk measures one Demux through the discrimination trie with
// Filters filters installed: shared atoms are tested once, then the
// port atom discriminates by hash — the walk the paper's dynamic code
// generation argument is about.
func DPFTrieWalk(b *testing.B) {
	e, pkt := NewLoadedEngine()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, ok := e.Demux(pkt); !ok {
			b.Fatal("demux missed")
		}
	}
}

// DPFLinearScan is the MPF-style baseline: the same population demuxed
// by scanning filters one at a time. Kept beside DPFTrieWalk so the
// committed numbers document the gap the trie buys.
func DPFLinearScan(b *testing.B) {
	e, pkt := NewLoadedEngine()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, ok := e.DemuxLinear(pkt); !ok {
			b.Fatal("demux missed")
		}
	}
}

// NewHandlerProgram builds the representative ASH body both VCODE
// benchmarks run: a checksum loop over a HandlerBytes packet (load, add,
// advance, backward branch) followed by one store — the load-heavy,
// tight-loop shape the SFI instrumenter has the most to say about. tweak
// perturbs an immediate so distinct variants have distinct fingerprints.
func NewHandlerProgram(tweak int32) *vcode.Program {
	b := vcode.NewBuilder("cksum")
	base, acc, i, end, w := b.Temp(), b.Temp(), b.Temp(), b.Temp(), b.Temp()
	b.MovI(base, 0x1000)
	b.MovI(acc, tweak)
	b.MovI(i, 0)
	b.MovI(end, HandlerBytes)
	loop := b.NewLabel()
	b.Bind(loop)
	b.Ld32X(w, base, i)
	b.AddU(acc, acc, w)
	b.AddIU(i, i, 4)
	b.BltU(i, end, loop)
	b.St32(base, 0, acc)
	b.Mov(vcode.RRet, acc)
	b.Ret()
	return b.MustAssemble()
}

// VCODEDispatch measures the vcode interpreter's dispatch loop: one full
// handler execution (16 loads + ALU + a store) over a resident packet.
// This is the per-message cost floor of every ASH invocation — the loop
// the paper attacks with dynamic code generation.
func VCODEDispatch(b *testing.B) {
	prog := NewHandlerProgram(0)
	mem := vcode.NewFlatMem(0x1000, HandlerBytes)
	m := vcode.NewMachine(mach.DS5000_240(), mem)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if f := m.Run(prog); f != nil {
			b.Fatal(f)
		}
	}
}

// SandboxInstrument measures the download-time verify+instrument pass
// under the default MIPS software-protection policy. The variant pool
// overflows the compile cache, so every iteration pays the real static
// analysis and rewrite, the cost a kernel pays to accept one untrusted
// handler.
func SandboxInstrument(b *testing.B) {
	variants := make([]*vcode.Program, HandlerVariants)
	for i := range variants {
		variants[i] = NewHandlerProgram(int32(i + 1))
	}
	pol := sandbox.DefaultPolicy()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sandbox.Sandbox(variants[i%HandlerVariants], pol); err != nil {
			b.Fatal(err)
		}
	}
}

// SimEventQueue measures one schedule+dispatch through the engine's
// event queue at a steady depth of QueueDepth events: each fired event
// reschedules itself QueueDepth ticks out, so every iteration is exactly
// one pop and one push at full depth. Steady state must allocate
// nothing: the engine recycles fired events through its freelist.
func SimEventQueue(b *testing.B) {
	eng := sim.NewEngine()
	fired := 0
	for i := 0; i < QueueDepth; i++ {
		var self func()
		self = func() {
			fired++
			eng.Schedule(QueueDepth, self)
		}
		eng.ScheduleAt(sim.Time(i), self)
	}
	// One event fires per tick (initial events sit on distinct ticks and
	// every reschedule preserves that), so running through tick b.N-1
	// dispatches exactly b.N events.
	b.ReportAllocs()
	b.ResetTimer()
	eng.RunUntil(sim.Time(b.N - 1))
	b.StopTimer()
	if fired != b.N {
		b.Fatalf("fired %d events, want %d", fired, b.N)
	}
}

// TimerChurn measures the retransmit-timer pattern against the engine's
// event queue — the dominant schedule shape of the megascale fleet, where
// every request arms a far-future reply-wait timer that the reply almost
// always cancels. Each dispatched event arms a timer a billion ticks out,
// cancels it, and reschedules itself QueueDepth ticks out through the
// closure-free ScheduleArg path, so one iteration is one pop, one far
// insert, one remove, and one near insert — all at 0 allocs/op through
// the engine's event freelist.
func TimerChurn(b *testing.B) {
	eng := sim.NewEngine()
	fired := 0
	var tick func(any)
	tick = func(a any) {
		fired++
		t := eng.ScheduleArg(1_000_000_000, tick, nil) // arm the reply-wait timer
		eng.Cancel(t)                                  // the reply arrived first
		eng.ScheduleArg(QueueDepth, tick, a)
	}
	for i := 0; i < QueueDepth; i++ {
		eng.ScheduleArgAt(sim.Time(i), tick, nil)
	}
	// As in SimEventQueue, exactly one event fires per tick.
	b.ReportAllocs()
	b.ResetTimer()
	eng.RunUntil(sim.Time(b.N - 1))
	b.StopTimer()
	if fired != b.N {
		b.Fatalf("fired %d events, want %d", fired, b.N)
	}
}

// packetPathWorld is the PacketPath fixture: one full aegis server host
// (Ethernet driver, DPF demux, downloaded handler) ping-ponging with a
// raw client port over a switch — the complete per-message path of the
// paper's Table I, wire to wire.
type packetPathWorld struct {
	eng *sim.Engine
	sw  *netdev.Switch
	srv *aegis.EthernetIf
	cli *netdev.Port
	req []byte

	count, target int
}

// HandleMsg is the downloaded server handler: consume the message and
// send a fixed reply back to the client — the low-latency reply shape
// ASHs exist for.
func (w *packetPathWorld) HandleMsg(mc *aegis.MsgCtx) aegis.Disposition {
	mc.Send(w.cli.Addr(), 0, w.req[:32])
	return aegis.DispConsumed
}

// send leases a pooled buffer for the request frame and puts it on the
// wire from the client port.
func (w *packetPathWorld) send() {
	pkt := w.sw.LeaseData(w.req)
	pkt.Dst = w.srv.Addr()
	if err := w.cli.Transmit(pkt); err != nil {
		panic(err)
	}
}

// rx is the client's receive path: re-arm the ping-pong until target
// round trips have completed.
func (w *packetPathWorld) rx(pkt *netdev.PacketBuf) {
	w.count++
	if w.count >= w.target {
		w.eng.Stop()
		return
	}
	w.send()
}

func newPacketPathWorld() *packetPathWorld {
	eng := sim.NewEngine()
	prof := mach.DS5000_240()
	w := &packetPathWorld{eng: eng}
	w.sw = netdev.NewSwitch(eng, prof, netdev.EthernetConfig())
	k := aegis.NewKernel("srv", eng, prof)
	w.srv = aegis.NewEthernet(k, w.sw)
	w.cli = w.sw.NewPort()
	w.cli.SetReceiver(w.rx)

	w.req = make([]byte, HandlerBytes)
	w.req[12], w.req[13] = 0x08, 0x00 // ethertype IP
	w.req[23] = 17                    // protocol UDP
	w.req[36], w.req[37] = 1000>>8, 1000&0xff
	f := dpf.NewFilter().Eq16(12, 0x0800).Eq8(23, 17).Eq16(36, 1000)
	bind, err := w.srv.BindFilter(nil, f)
	if err != nil {
		panic(err)
	}
	bind.Handler = w
	return w
}

// run drives n round trips through the world.
func (w *packetPathWorld) run(n int) {
	w.target = w.count + n
	w.send()
	w.eng.Run()
	if w.count != w.target {
		panic("packet path bench: ping-pong stalled")
	}
}

// PacketPath measures one complete request/reply round trip through the
// redesigned buffer-lease pipeline: client transmit (pool lease) → switch
// delivery → Ethernet driver (frame check, DPF demux, striping DMA) →
// downloaded handler → committed reply lease → switch delivery → client
// re-arm. After warmup the pools and freelists are primed and the whole
// wire-to-wire path must run at 0 allocs/op.
func PacketPath(b *testing.B) {
	w := newPacketPathWorld()
	w.run(64) // warmup: mint pool buffers, contexts, events
	b.ReportAllocs()
	b.ResetTimer()
	w.run(b.N)
}
