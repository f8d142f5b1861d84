package aegis

import (
	"testing"

	"ashs/internal/mach"
	"ashs/internal/netdev"
	"ashs/internal/sim"
)

// handlerFunc adapts a function to MsgHandler.
type handlerFunc func(mc *MsgCtx) Disposition

func (f handlerFunc) HandleMsg(mc *MsgCtx) Disposition { return f(mc) }

// rxRig is one receiver of the dispatch test: a bound endpoint on either
// NIC plus what the test reads back after the arrival.
type rxRig struct {
	eng      *sim.Engine
	owner    *Process
	bind     func(h MsgHandler, u *Upcall) *Ring
	send     func()
	freeBufs func() int
	poolBufs int
}

const dispatchPool = 4

func an2Rig() *rxRig {
	eng := sim.NewEngine()
	_, k2, a1, a2 := buildAN2Pair(eng)
	rig := &rxRig{eng: eng, poolBufs: dispatchPool}
	rig.owner = k2.Spawn("owner", func(p *Process) {})
	var b *VCBinding
	rig.bind = func(h MsgHandler, u *Upcall) *Ring {
		var err error
		b, err = a2.BindVC(rig.owner, 7, dispatchPool, 4096)
		if err != nil {
			panic(err)
		}
		b.Handler, b.Upcall = h, u
		return b.Ring
	}
	rig.send = func() { a1.KernelSend(a2.Addr(), 7, []byte{1, 2, 3, 4}) }
	rig.freeBufs = func() int { return b.freeBufs.len() }
	return rig
}

func ethRig() *rxRig {
	eng := sim.NewEngine()
	prof := mach.DS5000_240()
	sw := netdev.NewSwitch(eng, prof, netdev.EthernetConfig())
	k1 := NewKernel("tx", eng, prof)
	k2 := NewKernel("rx", eng, prof)
	e1, e2 := NewEthernet(k1, sw), NewEthernetPool(k2, sw, dispatchPool)
	rig := &rxRig{eng: eng, poolBufs: dispatchPool}
	rig.owner = k2.Spawn("owner", func(p *Process) {})
	rig.bind = func(h MsgHandler, u *Upcall) *Ring {
		b, err := e2.BindFilter(rig.owner, dpfFilter(0x5a))
		if err != nil {
			panic(err)
		}
		b.Handler, b.Upcall = h, u
		return b.Ring
	}
	rig.send = func() { _ = ethTx(e1, e2.Addr(), []byte{0x5a, 1, 2, 3}) }
	rig.freeBufs = func() int { return e2.freeBufs.len() }
	return rig
}

// TestReceiveDispatchTail drives one arrival through each NIC's
// handler → upcall → ring sequence: the first stage that consumes the
// message ends the path and frees its receive buffer; a message nobody
// consumes lands on the ring and keeps its buffer until the owner frees
// it.
func TestReceiveDispatchTail(t *testing.T) {
	nics := []struct {
		name string
		rig  func() *rxRig
	}{{"an2", an2Rig}, {"ethernet", ethRig}}
	cases := []struct {
		name            string
		handler, upcall Disposition
		wantUpcalls     int
		wantRing        int
		wantHeld        int // receive buffers still held after the run
	}{
		{"handler-consumes", DispConsumed, DispConsumed, 0, 0, 0},
		{"upcall-consumes", DispToUser, DispConsumed, 1, 0, 0},
		{"ring-delivers", DispToUser, DispToUser, 1, 1, 1},
	}
	for _, nic := range nics {
		for _, tc := range cases {
			t.Run(nic.name+"/"+tc.name, func(t *testing.T) {
				rig := nic.rig()
				var ranHandler, ranUpcall int
				h := handlerFunc(func(mc *MsgCtx) Disposition {
					ranHandler++
					return tc.handler
				})
				u := NewUpcall(rig.owner, func(mc *MsgCtx) Disposition {
					ranUpcall++
					return tc.upcall
				})
				ring := rig.bind(h, u)
				rig.send()
				rig.eng.Run()

				if ranHandler != 1 {
					t.Errorf("handler ran %d times, want 1", ranHandler)
				}
				if ranUpcall != tc.wantUpcalls {
					t.Errorf("upcall ran %d times, want %d", ranUpcall, tc.wantUpcalls)
				}
				if ring.Len() != tc.wantRing {
					t.Errorf("ring length %d, want %d", ring.Len(), tc.wantRing)
				}
				if held := rig.poolBufs - rig.freeBufs(); held != tc.wantHeld {
					t.Errorf("%d receive buffers held, want %d", held, tc.wantHeld)
				}
			})
		}
	}
}
