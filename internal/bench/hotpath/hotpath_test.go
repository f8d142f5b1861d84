package hotpath

import (
	"testing"

	"ashs/internal/mach"
	"ashs/internal/sandbox"
	"ashs/internal/vcode"
)

func BenchmarkDPFTrieWalk(b *testing.B)       { DPFTrieWalk(b) }
func BenchmarkDPFLinearScan(b *testing.B)     { DPFLinearScan(b) }
func BenchmarkVCODEDispatch(b *testing.B)     { VCODEDispatch(b) }
func BenchmarkSandboxInstrument(b *testing.B) { SandboxInstrument(b) }
func BenchmarkSimEventQueue(b *testing.B)     { SimEventQueue(b) }
func BenchmarkTimerChurn(b *testing.B)        { TimerChurn(b) }
func BenchmarkPacketPath(b *testing.B)        { PacketPath(b) }

// TestBodiesRun drives each benchmark body through testing.Benchmark —
// the exact harness cmd/hotpathbench uses — so a fixture regression
// fails `go test` even when -bench is not passed.
func TestBodiesRun(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark bodies are slow under -short")
	}
	for _, bm := range []struct {
		name string
		fn   func(*testing.B)
	}{
		{"DPFTrieWalk", DPFTrieWalk},
		{"DPFLinearScan", DPFLinearScan},
		{"VCODEDispatch", VCODEDispatch},
		{"SandboxInstrument", SandboxInstrument},
		{"SimEventQueue", SimEventQueue},
		{"TimerChurn", TimerChurn},
		{"PacketPath", PacketPath},
	} {
		if r := testing.Benchmark(bm.fn); r.N == 0 {
			t.Errorf("%s did not run", bm.name)
		}
	}
}

// TestHandlerProgramShape pins the VCODE fixture: the handler really sums
// the packet words, and the default policy really instruments it (the
// SandboxInstrument benchmark must be measuring a non-trivial rewrite).
func TestHandlerProgramShape(t *testing.T) {
	prog := NewHandlerProgram(0)
	mem := vcode.NewFlatMem(0x1000, HandlerBytes)
	want := uint32(0)
	for j := 0; j < HandlerBytes/4; j++ {
		if err := mem.Store32(uint32(0x1000+4*j), uint32(j)); err != nil {
			t.Fatal(err)
		}
		want += uint32(j)
	}
	m := vcode.NewMachine(mach.DS5000_240(), mem)
	if f := m.Run(prog); f != nil {
		t.Fatal(f)
	}
	if m.Regs[vcode.RRet] != want {
		t.Fatalf("checksum = %d, want %d", m.Regs[vcode.RRet], want)
	}
	sp, err := sandbox.Sandbox(prog, sandbox.DefaultPolicy())
	if err != nil {
		t.Fatal(err)
	}
	if sp.AddedStatic == 0 {
		t.Fatal("default policy added no instrumentation to the handler")
	}
}

// TestLoadedEngineShape pins the fixture: the trie and the linear scan
// must agree on the demux result for the benchmark packet.
func TestLoadedEngineShape(t *testing.T) {
	e, pkt := NewLoadedEngine()
	if e.Len() != Filters {
		t.Fatalf("engine has %d filters, want %d", e.Len(), Filters)
	}
	id, _, ok := e.Demux(pkt)
	if !ok {
		t.Fatal("trie demux missed the benchmark packet")
	}
	lid, _, lok := e.DemuxLinear(pkt)
	if !lok || lid != id {
		t.Fatalf("linear demux disagrees: got (%v,%v), want (%v,true)", lid, lok, id)
	}
}
