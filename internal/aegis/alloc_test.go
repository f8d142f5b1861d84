package aegis

import (
	"runtime"
	"strings"
	"testing"

	"ashs/internal/dpf"
	"ashs/internal/mach"
	"ashs/internal/netdev"
	"ashs/internal/sim"
)

// Regression: a guest asking for more physical memory than the host has
// must get an error back, not crash the whole simulation (AllocPhys and
// AddrSpace.Alloc used to panic on exhaustion).
func TestAllocExhaustionSurfacesError(t *testing.T) {
	eng := sim.NewEngine()
	k := newHost(eng, "h")
	ran := false
	k.Spawn("greedy", func(p *Process) {
		ran = true
		// Far more than HostMemSize: must fail, not panic.
		if _, err := p.AS.Alloc(HostMemSize*2, "huge"); err == nil {
			t.Error("Alloc of 2x physical memory succeeded")
		} else if !strings.Contains(err.Error(), "out of physical memory") {
			t.Errorf("unexpected error: %v", err)
		}
		// The kernel survives and keeps serving reasonable requests.
		seg, err := p.AS.Alloc(4096, "small")
		if err != nil {
			t.Errorf("small Alloc after failed big one: %v", err)
		}
		b := p.AS.MustBytes(seg.Base, 16)
		b[0] = 0xAB
		p.Compute(100)
	})
	eng.Run()
	if !ran {
		t.Fatal("guest never ran")
	}
}

// Exhaustion must also surface through the device syscall layer: binding
// a VC with oversized DMA buffers returns an error and leaves the
// interface usable.
func TestBindVCExhaustionSurfacesError(t *testing.T) {
	eng := sim.NewEngine()
	sw := netdev.NewSwitch(eng, mach.DS5000_240(), netdev.AN2Config())
	k := newHost(eng, "h")
	an2 := NewAN2(k, sw)
	k.Spawn("app", func(p *Process) {
		if _, err := an2.BindVC(p, 5, 4, HostMemSize+1); err == nil {
			t.Error("BindVC with oversized buffers succeeded")
		}
		// A sane binding still works afterwards.
		if _, err := an2.BindVC(p, 6, 2, 2048); err != nil {
			t.Errorf("sane BindVC after failed one: %v", err)
		}
	})
	eng.Run()
}

// Kernel-memory bindings (p == nil) go through AllocPhys directly and
// must fail the same way.
func TestKernelBindVCExhaustionSurfacesError(t *testing.T) {
	eng := sim.NewEngine()
	sw := netdev.NewSwitch(eng, mach.DS5000_240(), netdev.AN2Config())
	k := newHost(eng, "h")
	an2 := NewAN2(k, sw)
	if _, err := an2.BindVC(nil, 7, 1, HostMemSize+1); err == nil {
		t.Fatal("kernel BindVC with oversized buffer succeeded")
	}
}

// bindMallocs is the measured heap-allocation count of 2^16 BindFilter
// calls of freshly built 3-atom filters into one interface, 2.0176 per
// bind: the filter's atom array (garbage once installed), the binding
// with its embedded ring, and the amortized growth of the trie arenas,
// the kid map and the binding table.
const bindMallocs = 132228

// BindFilter is the setup path of every fan-in world, a million binds
// deep at the largest scale, so its allocation count is gated exactly:
// 2^16 client filters sharing two trie levels and branching on the
// source address, the shape the fan-in experiments install.
func TestBindFilterAllocs(t *testing.T) {
	const n = 1 << 16
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var eth *EthernetIf
	bind := func() uint64 {
		eng := sim.NewEngine()
		sw := netdev.NewSwitch(eng, mach.DS5000_240(), netdev.EthernetConfig())
		eth = NewEthernet(newHost(eng, "h"), sw)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := uint32(0); i < n; i++ {
			f := dpf.NewFilter().Eq16(12, 0x0800).Eq8(23, 17).Eq32(26, 0x0a000000+i)
			if _, err := eth.BindFilter(nil, f); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs
	}
	// The better of two runs: a collection the runtime happens to start
	// mid-loop may allocate for itself, and that is not BindFilter's cost.
	if got := min(bind(), bind()); got > bindMallocs {
		t.Fatalf("%d binds made %d mallocs (%.4f each), gate is %d", n, got, float64(got)/n, bindMallocs)
	}
	if eth.Filters() != n || eth.TrieDepth() != 3 {
		t.Fatalf("%d filters at depth %d, want %d at depth 3", eth.Filters(), eth.TrieDepth(), n)
	}
}
