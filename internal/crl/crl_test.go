package crl

import (
	"encoding/binary"
	"testing"

	"ashs/internal/aegis"
	"ashs/internal/core"
	"ashs/internal/mach"
	"ashs/internal/netdev"
	"ashs/internal/sim"
	"ashs/internal/vcode"
)

type world struct {
	eng    *sim.Engine
	k1, k2 *aegis.Kernel
	a1, a2 *aegis.AN2If
	sys    *core.System // server-side ASH system
	node   *Node
	owner  *aegis.Process

	cliBind   *aegis.VCBinding
	lastReply []byte
}

func newWorld(t *testing.T) *world {
	t.Helper()
	eng := sim.NewEngine()
	prof := mach.DS5000_240()
	sw := netdev.NewSwitch(eng, prof, netdev.AN2Config())
	k1 := aegis.NewKernel("client", eng, prof)
	k2 := aegis.NewKernel("server", eng, prof)
	w := &world{eng: eng, k1: k1, k2: k2,
		a1: aegis.NewAN2(k1, sw), a2: aegis.NewAN2(k2, sw)}
	w.sys = core.NewSystem(k2)
	w.owner = k2.Spawn("dsm-app", func(p *aegis.Process) {})
	w.node = NewNode(w.sys, w.owner)
	return w
}

// install downloads prog as an ASH on VC vc of the server.
func (w *world) install(t *testing.T, prog *vcode.Program, vc int, unsafe bool) *core.ASH {
	t.Helper()
	ash, err := w.sys.Download(w.owner, prog, core.Options{Unsafe: unsafe})
	if err != nil {
		t.Fatal(err)
	}
	b, err := w.a2.BindVC(w.owner, vc, 8, 8192)
	if err != nil {
		t.Fatal(err)
	}
	ash.AttachVC(b)
	return ash
}

// rpc sends msg from an in-kernel client endpoint and returns the reply.
func (w *world) rpc(t *testing.T, vc int, msg []byte) []byte {
	t.Helper()
	var reply []byte
	cb, err := w.a1.BindVC(nil, vc, 8, 8192)
	if err != nil {
		t.Fatal(err)
	}
	cb.InKernel = true
	cb.InKernelRx = func(mc *aegis.MsgCtx) {
		reply = append([]byte(nil), mc.Data()...)
	}
	w.a1.KernelSend(w.a2.Addr(), vc, msg)
	w.eng.Run()
	return reply
}

func u32(v uint32) []byte { return binary.BigEndian.AppendUint32(nil, v) }

func TestRemoteIncrement(t *testing.T) {
	w := newWorld(t)
	prog := IncrementHandler(w.node.CounterSeg.Base, 0, 5)
	ash := w.install(t, prog, 5, false)

	reply := w.rpc(t, 5, u32(7))
	if len(reply) != 4 || binary.BigEndian.Uint32(reply) != 7 {
		t.Fatalf("reply = %v", reply)
	}
	if v, _ := w.k2.Mem.Load32(w.node.CounterSeg.Base); v != 7 {
		t.Fatalf("counter = %d", v)
	}
	if ash.Invocations != 1 || ash.InvoluntaryFault != nil {
		t.Fatalf("invocations=%d fault=%v", ash.Invocations, ash.InvoluntaryFault)
	}
}

func TestTrustedRemoteWrite(t *testing.T) {
	w := newWorld(t)
	_, seg, err := w.node.AddSegment(4096, "shared")
	if err != nil {
		t.Fatal(err)
	}
	ash := w.install(t, TrustedWriteHandler(), 6, false)

	data := []byte("trusted peers write fast!!!!")
	msg := append(u32(seg.Base+128), u32(uint32(len(data)))...)
	msg = append(msg, data...)
	w.a1.KernelSend(w.a2.Addr(), 6, msg)
	w.eng.Run()
	if ash.InvoluntaryFault != nil {
		t.Fatal(ash.InvoluntaryFault)
	}
	got := w.k2.Bytes(seg.Base+128, len(data))
	if string(got) != string(data) {
		t.Fatalf("wrote %q", got)
	}
}

func TestTrustedWriteInstructionCounts(t *testing.T) {
	// Section V-D: the hand-crafted application-specific write is ~10
	// instructions; sandboxing adds ~28 (2 per memory op + entry/exit).
	w := newWorld(t)
	_, seg, _ := w.node.AddSegment(4096, "shared")

	run := func(unsafe bool, vc int) int64 {
		ash := w.install(t, TrustedWriteHandler(), vc, unsafe)
		data := make([]byte, 40)
		msg := append(u32(seg.Base), u32(uint32(len(data)))...)
		msg = append(msg, data...)
		w.a1.KernelSend(w.a2.Addr(), vc, msg)
		w.eng.Run()
		if ash.InvoluntaryFault != nil {
			t.Fatal(ash.InvoluntaryFault)
		}
		return ash.LastInsns()
	}
	plain := run(true, 6)
	sandboxed := run(false, 7)
	if plain < 7 || plain > 13 {
		t.Fatalf("hand-crafted write = %d instructions, want ~10 (Section V-D)", plain)
	}
	added := sandboxed - plain
	if added < 24 || added > 32 {
		t.Fatalf("sandboxing added %d instructions, want ~28 (Section V-D)", added)
	}
}

func TestGenericVsSpecificInstructionCounts(t *testing.T) {
	// Section V-D: "even the sandboxed version of the specialized remote
	// write uses fewer instructions than the generic hand-crafted one."
	w := newWorld(t)
	segID, seg, _ := w.node.AddSegment(4096, "shared")

	generic := w.install(t, GenericWriteHandler(w.node.TableAddr(), MaxSegments, 0, 8), 8, true)
	data := make([]byte, 40)
	msg := append(u32(0x44534d21), u32(1<<16)...)
	msg = append(msg, u32(99)...)                // request id
	msg = append(msg, u32(uint32(segID))...)     // segment
	msg = append(msg, u32(64)...)                // offset
	msg = append(msg, u32(uint32(len(data)))...) // length
	msg = append(msg, data...)
	reply := w.rpc(t, 8, msg)
	if generic.InvoluntaryFault != nil {
		t.Fatal(generic.InvoluntaryFault)
	}
	if len(reply) != 12 || binary.BigEndian.Uint32(reply[8:]) != 0 {
		t.Fatalf("generic write reply = %v", reply)
	}
	genericInsns := generic.LastInsns()

	// Sandboxed application-specific version.
	w2 := newWorld(t)
	_, seg2, _ := w2.node.AddSegment(4096, "shared")
	spec := w2.install(t, TrustedWriteHandler(), 6, false)
	msg2 := append(u32(seg2.Base), u32(uint32(len(data)))...)
	msg2 = append(msg2, data...)
	w2.a1.KernelSend(w2.a2.Addr(), 6, msg2)
	w2.eng.Run()
	if spec.InvoluntaryFault != nil {
		t.Fatal(spec.InvoluntaryFault)
	}
	specInsns := spec.LastInsns()

	if specInsns >= genericInsns {
		t.Fatalf("sandboxed specific (%d) not below generic hand-crafted (%d)",
			specInsns, genericInsns)
	}
	_ = seg
}

func TestGenericWriteValidation(t *testing.T) {
	w := newWorld(t)
	segID, seg, _ := w.node.AddSegment(4096, "shared")
	w.install(t, GenericWriteHandler(w.node.TableAddr(), MaxSegments, 0, 8), 8, false)

	before := append([]byte(nil), w.k2.Bytes(seg.Base, 64)...)
	cases := []struct {
		name string
		msg  []byte
	}{
		{"bad magic", func() []byte {
			m := append(u32(0xbadbad), u32(1<<16)...)
			m = append(m, u32(1)...)
			m = append(m, u32(uint32(segID))...)
			m = append(m, u32(0)...)
			m = append(m, u32(16)...)
			return append(m, make([]byte, 16)...)
		}()},
		{"bad segment", func() []byte {
			m := append(u32(0x44534d21), u32(1<<16)...)
			m = append(m, u32(2)...)
			m = append(m, u32(250)...)
			m = append(m, u32(0)...)
			m = append(m, u32(16)...)
			return append(m, make([]byte, 16)...)
		}()},
		{"out of bounds", func() []byte {
			m := append(u32(0x44534d21), u32(1<<16)...)
			m = append(m, u32(3)...)
			m = append(m, u32(uint32(segID))...)
			m = append(m, u32(4092)...)
			m = append(m, u32(64)...)
			return append(m, make([]byte, 64)...)
		}()},
		{"unaligned", func() []byte {
			m := append(u32(0x44534d21), u32(1<<16)...)
			m = append(m, u32(4)...)
			m = append(m, u32(uint32(segID))...)
			m = append(m, u32(6)...)
			m = append(m, u32(16)...)
			return append(m, make([]byte, 16)...)
		}()},
	}
	for _, tc := range cases {
		reply := w.rpcOnce(t, 8, tc.msg)
		if len(reply) != 12 || binary.BigEndian.Uint32(reply[8:]) != 1 {
			t.Fatalf("%s: reply = %v, want status 1", tc.name, reply)
		}
	}
	after := w.k2.Bytes(seg.Base, 64)
	for i := range before {
		if after[i] != before[i] {
			t.Fatalf("rejected write still modified memory at %d", i)
		}
	}
}

// A write refused for its magic must still echo its own request id, not
// the id a previous message left in the handler's register.
func TestGenericWriteRefusalEchoesOwnID(t *testing.T) {
	w := newWorld(t)
	segID, _, _ := w.node.AddSegment(4096, "shared")
	w.install(t, GenericWriteHandler(w.node.TableAddr(), MaxSegments, 0, 8), 8, false)
	write := func(magic, id uint32) []byte {
		m := append(u32(magic), u32(1<<16)...)
		m = append(m, u32(id)...)
		m = append(m, u32(uint32(segID))...)
		m = append(m, u32(0)...)
		m = append(m, u32(16)...)
		return w.rpcOnce(t, 8, append(m, make([]byte, 16)...))
	}
	for _, tc := range []struct {
		name       string
		magic, id  uint32
		wantStatus uint32
	}{
		{"good", 0x44534d21, 41, 0},
		{"bad magic", 0xbadbad, 42, 1},
	} {
		reply := write(tc.magic, tc.id)
		if len(reply) != 12 {
			t.Fatalf("%s: reply = %x", tc.name, reply)
		}
		if id, st := binary.BigEndian.Uint32(reply[4:]), binary.BigEndian.Uint32(reply[8:]); id != tc.id || st != tc.wantStatus {
			t.Fatalf("%s: reply id %d status %d, want id %d status %d", tc.name, id, st, tc.id, tc.wantStatus)
		}
	}
}

// rpcOnce is rpc for repeated calls on one world (client endpoint reused).
func (w *world) rpcOnce(t *testing.T, vc int, msg []byte) []byte {
	t.Helper()
	if w.cliBind == nil {
		cb, err := w.a1.BindVC(nil, vc, 8, 8192)
		if err != nil {
			t.Fatal(err)
		}
		cb.InKernel = true
		cb.InKernelRx = func(mc *aegis.MsgCtx) {
			w.lastReply = append([]byte(nil), mc.Data()...)
		}
		w.cliBind = cb
	}
	w.lastReply = nil
	w.a1.KernelSend(w.a2.Addr(), vc, msg)
	w.eng.Run()
	return w.lastReply
}

func TestFixedRecordWrite(t *testing.T) {
	// The loop handler copies a whole record and publishes completion,
	// under both the naive and the optimizing sandbox; the optimizer must
	// not change what the handler computes, only what it costs.
	for _, optimize := range []bool{false, true} {
		w := newWorld(t)
		_, seg, err := w.node.AddSegment(4096, "shared")
		if err != nil {
			t.Fatal(err)
		}
		prog := FixedRecordWriteHandler(seg.Base+64, seg.Base)
		ash, err := w.sys.Download(w.owner, prog, core.Options{OptimizeSFI: optimize})
		if err != nil {
			t.Fatal(err)
		}
		b, err := w.a2.BindVC(w.owner, 7, 8, 8192)
		if err != nil {
			t.Fatal(err)
		}
		ash.AttachVC(b)

		record := make([]byte, RecordBytes)
		for i := range record {
			record[i] = byte(0x40 + i)
		}
		w.a1.KernelSend(w.a2.Addr(), 7, record)
		w.eng.Run()
		if ash.InvoluntaryFault != nil {
			t.Fatalf("optimize=%v: %v", optimize, ash.InvoluntaryFault)
		}
		if got := w.k2.Bytes(seg.Base+64, RecordBytes); string(got) != string(record) {
			t.Fatalf("optimize=%v: wrote %q", optimize, got)
		}
		if v, _ := w.k2.Mem.Load32(seg.Base); v != RecordBytes {
			t.Fatalf("optimize=%v: progress word = %d, want %d", optimize, v, RecordBytes)
		}
	}
}

func TestRemoteLock(t *testing.T) {
	w := newWorld(t)
	w.install(t, LockHandler(w.node.LockSeg.Base, 64, 0, 9), 9, false)

	acquire := func(idx, who uint32) []byte {
		m := append(u32(idx), u32(1)...)
		return append(m, u32(who)...)
	}
	release := func(idx, who uint32) []byte {
		m := append(u32(idx), u32(2)...)
		return append(m, u32(who)...)
	}
	if r := w.rpcOnce(t, 9, acquire(3, 111)); binary.BigEndian.Uint32(r) != 0 {
		t.Fatalf("first acquire denied: %v", r)
	}
	if r := w.rpcOnce(t, 9, acquire(3, 222)); binary.BigEndian.Uint32(r) != 1 {
		t.Fatalf("conflicting acquire granted: %v", r)
	}
	if r := w.rpcOnce(t, 9, acquire(3, 111)); binary.BigEndian.Uint32(r) != 0 {
		t.Fatalf("reentrant acquire denied: %v", r)
	}
	if r := w.rpcOnce(t, 9, release(3, 222)); binary.BigEndian.Uint32(r) != 1 {
		t.Fatalf("foreign release allowed: %v", r)
	}
	if r := w.rpcOnce(t, 9, release(3, 111)); binary.BigEndian.Uint32(r) != 0 {
		t.Fatalf("owner release denied: %v", r)
	}
	if r := w.rpcOnce(t, 9, acquire(3, 222)); binary.BigEndian.Uint32(r) != 0 {
		t.Fatalf("acquire after release denied: %v", r)
	}
}

func TestLockHandlerVoluntaryAbortOnMalformed(t *testing.T) {
	w := newWorld(t)
	ash := w.install(t, LockHandler(w.node.LockSeg.Base, 64, 0, 9), 9, false)
	// Lock index out of range: the handler defers to the library.
	m := append(u32(9999), u32(1)...)
	m = append(m, u32(1)...)
	w.a1.KernelSend(w.a2.Addr(), 9, m)
	w.eng.Run()
	if ash.VoluntaryAborts != 1 {
		t.Fatalf("voluntary aborts = %d, want 1", ash.VoluntaryAborts)
	}
}

func TestAllHandlersVerify(t *testing.T) {
	// Every handler in the library must pass the verifier (be downloadable).
	w := newWorld(t)
	progs := []*vcode.Program{
		IncrementHandler(w.node.CounterSeg.Base, 0, 1),
		TrustedWriteHandler(),
		GenericWriteHandler(w.node.TableAddr(), MaxSegments, 0, 1),
		LockHandler(w.node.LockSeg.Base, 16, 0, 1),
		FixedRecordWriteHandler(0x2000, 0x3000),
	}
	for _, prog := range progs {
		if _, err := w.sys.Download(w.owner, prog, core.Options{}); err != nil {
			t.Errorf("%s does not verify: %v", prog.Name, err)
		}
	}
}
