package tcp

import (
	"encoding/binary"
	"math/rand"
	"testing"

	"ashs/internal/aegis"
	"ashs/internal/core"
	"ashs/internal/mach"
	"ashs/internal/netdev"
	"ashs/internal/proto/ip"
	"ashs/internal/proto/link"
	"ashs/internal/sim"
)

// world is a two-host AN2 testbed with ASH systems.
type world struct {
	eng        *sim.Engine
	k1, k2     *aegis.Kernel
	a1, a2     *aegis.AN2If
	sys1, sys2 *core.System
	ip1, ip2   ip.Addr
	sw         *netdev.Switch
}

func newWorld() *world {
	eng := sim.NewEngine()
	prof := mach.DS5000_240()
	sw := netdev.NewSwitch(eng, prof, netdev.AN2Config())
	k1 := aegis.NewKernel("h1", eng, prof)
	k2 := aegis.NewKernel("h2", eng, prof)
	w := &world{eng: eng, k1: k1, k2: k2, sw: sw,
		a1: aegis.NewAN2(k1, sw), a2: aegis.NewAN2(k2, sw)}
	w.sys1, w.sys2 = core.NewSystem(k1), core.NewSystem(k2)
	w.ip1 = ip.HostAddr(w.a1.Addr())
	w.ip2 = ip.HostAddr(w.a2.Addr())
	return w
}

func (w *world) stackFor(p *aegis.Process, iface *aegis.AN2If, vc int, local ip.Addr) *ip.Stack {
	ep, err := link.BindAN2(iface, p, vc, 16, iface.MaxFrame())
	if err != nil {
		panic(err)
	}
	res := ip.StaticResolver{
		w.ip1: {Port: w.a1.Addr(), VC: vc},
		w.ip2: {Port: w.a2.Addr(), VC: vc},
	}
	return ip.NewStack(ep, local, res)
}

func (w *world) cfg(mode Mode, host int) Config {
	c := DefaultConfig()
	c.Mode = mode
	if host == 1 {
		c.Sys = w.sys1
	} else {
		c.Sys = w.sys2
	}
	return c
}

// transferTest moves payload from client to server (which echoes a digest
// back), in the given mode, and verifies stream integrity.
func transferTest(t *testing.T, mode Mode, payloadLen int, seed int64, mutate func(w *world)) (cliConn, srvConn *Conn) {
	t.Helper()
	w := newWorld()
	if mutate != nil {
		mutate(w)
	}
	payload := make([]byte, payloadLen)
	rand.New(rand.NewSource(seed)).Read(payload)

	srvDone := make(chan *Conn, 1)
	cliDone := make(chan *Conn, 1)

	w.k2.Spawn("server", func(p *aegis.Process) {
		st := w.stackFor(p, w.a2, 7, w.ip2)
		conn, err := Accept(st, w.cfg(mode, 2), 80)
		if err != nil {
			t.Errorf("accept: %v", err)
			srvDone <- nil
			return
		}
		buf := p.AS.MustAlloc(payloadLen+16, "rxdata")
		if err := conn.ReadFull(buf.Base, payloadLen); err != nil {
			t.Errorf("server read: %v", err)
			srvDone <- nil
			return
		}
		got := w.k2.Bytes(buf.Base, payloadLen)
		for i := range payload {
			if got[i] != payload[i] {
				t.Errorf("stream corrupted at byte %d: %#x != %#x", i, got[i], payload[i])
				break
			}
		}
		// Echo a 4-byte completion marker.
		if err := conn.WriteBytes([]byte{0xd, 0xe, 0xa, 0xd}); err != nil {
			t.Errorf("server write: %v", err)
		}
		_ = conn.Close()
		srvDone <- conn
	})

	w.k1.Spawn("client", func(p *aegis.Process) {
		st := w.stackFor(p, w.a1, 7, w.ip1)
		conn, err := Connect(st, w.cfg(mode, 1), 1234, w.ip2, 80)
		if err != nil {
			t.Errorf("connect: %v", err)
			cliDone <- nil
			return
		}
		if err := conn.WriteBytes(payload); err != nil {
			t.Errorf("client write: %v", err)
			cliDone <- nil
			return
		}
		buf := p.AS.MustAlloc(16, "marker")
		if err := conn.ReadFull(buf.Base, 4); err != nil {
			t.Errorf("client read: %v", err)
			cliDone <- nil
			return
		}
		m := w.k1.Bytes(buf.Base, 4)
		if m[0] != 0xd || m[3] != 0xd {
			t.Errorf("bad completion marker % x", m)
		}
		_ = conn.Close()
		cliDone <- conn
	})

	w.eng.Run()
	select {
	case srvConn = <-srvDone:
	default:
		t.Fatal("server never finished")
	}
	select {
	case cliConn = <-cliDone:
	default:
		t.Fatal("client never finished")
	}
	return cliConn, srvConn
}

func TestHandshakeAndSmallTransfer(t *testing.T) {
	cli, srv := transferTest(t, ModeUser, 100, 1, nil)
	if cli == nil || srv == nil {
		t.Fatal("missing conns")
	}
	if cli.State() != Closed || srv.State() != Closed {
		t.Fatalf("states after close: %v / %v", cli.State(), srv.State())
	}
}

func TestBulkTransferUserMode(t *testing.T) {
	cli, srv := transferTest(t, ModeUser, 100_000, 2, nil)
	if srv.PredictHits == 0 {
		t.Fatal("no header-prediction hits during bulk transfer")
	}
	// "Except during connection set up and tear down, all segments were
	// processed by the TCP header-prediction code."
	frac := float64(srv.PredictHits) / float64(srv.PredictHits+srv.PredictMisses)
	if frac < 0.85 {
		t.Fatalf("prediction rate = %.2f, want ~1", frac)
	}
	if cli.Retransmits != 0 || srv.Retransmits != 0 {
		t.Fatalf("lossless transfer retransmitted (%d/%d)", cli.Retransmits, srv.Retransmits)
	}
}

func TestBulkTransferASH(t *testing.T) {
	cli, srv := transferTest(t, ModeASH, 100_000, 3, nil)
	if srv.HandlerConsumed == 0 {
		t.Fatal("ASH fast path never consumed a segment")
	}
	// Data flows client->server: the server's handler should eat nearly
	// every data segment; the client's handler eats the ACKs.
	if cli.HandlerConsumed == 0 {
		t.Fatal("client-side ASH never consumed an ACK")
	}
	abortFrac := float64(srv.HandlerAborts) / float64(srv.HandlerConsumed+srv.HandlerAborts)
	if abortFrac > 0.1 {
		t.Fatalf("handler abort fraction = %.3f, want tiny (paper: <0.2%%)", abortFrac)
	}
}

func TestBulkTransferASHUnsafe(t *testing.T) {
	_, srv := transferTest(t, ModeASHUnsafe, 50_000, 4, nil)
	if srv.HandlerConsumed == 0 {
		t.Fatal("unsafe ASH fast path never ran")
	}
}

func TestBulkTransferUpcall(t *testing.T) {
	_, srv := transferTest(t, ModeUpcall, 50_000, 5, nil)
	if srv.HandlerConsumed == 0 {
		t.Fatal("upcall fast path never ran")
	}
}

func TestLossRecovery(t *testing.T) {
	var dropped int
	cli, srv := transferTest(t, ModeUser, 60_000, 6, func(w *world) {
		rng := rand.New(rand.NewSource(99))
		w.sw.Inject = func(pkt *netdev.PacketBuf) bool {
			// Drop 3% of packets (but never the first few, so the
			// handshake converges quickly).
			if w.sw.Delivered > 4 && rng.Float64() < 0.03 {
				dropped++
				return false
			}
			return true
		}
	})
	if dropped == 0 {
		t.Skip("injector dropped nothing")
	}
	if cli.Retransmits == 0 && srv.Retransmits == 0 {
		t.Fatalf("%d drops but no retransmissions", dropped)
	}
}

func TestCorruptionDetectedByChecksum(t *testing.T) {
	corrupted := 0
	cli, srv := transferTest(t, ModeUser, 30_000, 7, func(w *world) {
		w.sw.Inject = func(pkt *netdev.PacketBuf) bool {
			// Flip a payload byte in one large data segment, refreshing
			// the FCS so the damage sneaks past the board's frame check
			// and only the end-to-end checksum can catch it.
			if corrupted == 0 && pkt.Len() > 2000 {
				data := pkt.Bytes()
				data[1500] ^= 0xff
				pkt.FCS = netdev.FrameCheck(data)
				corrupted++
			}
			return true
		}
	})
	if corrupted == 0 {
		t.Fatal("injector never corrupted")
	}
	if srv.BadChecksum == 0 {
		t.Fatal("corruption not detected by checksum")
	}
	if cli.Retransmits == 0 {
		t.Fatal("corrupted segment never retransmitted")
	}
}

func TestCorruptionDetectedByASHFastPath(t *testing.T) {
	corrupted := 0
	_, srv := transferTest(t, ModeASH, 30_000, 8, func(w *world) {
		w.sw.Inject = func(pkt *netdev.PacketBuf) bool {
			if corrupted == 0 && pkt.Len() > 2000 {
				data := pkt.Bytes()
				data[1500] ^= 0xff
				pkt.FCS = netdev.FrameCheck(data) // sneak past the board CRC
				corrupted++
			}
			return true
		}
	})
	if srv.BadChecksum == 0 {
		t.Fatal("handler did not detect corruption")
	}
}

// TestCorruptedPureACKDroppedByASHFastPath: a pure ACK whose
// acknowledgment number the wire changed (its frame check refreshed, so
// the board accepts it) must fail the handler's header checksum. The fast
// path counts it in BadChecksum and drops it: sndUna must not move past
// data the receiver never acknowledged.
func TestCorruptedPureACKDroppedByASHFastPath(t *testing.T) {
	w := newWorld()
	payload := make([]byte, 30_000)
	rand.New(rand.NewSource(9)).Read(payload)
	var cli *Conn
	var unaBefore uint32
	corrupted, pending := 0, false
	check := func() {
		if pending && cli.sndUna != unaBefore {
			t.Errorf("corrupted ACK moved sndUna from %d to %d", unaBefore-cli.iss, cli.sndUna-cli.iss)
		}
		pending = false
	}
	w.sw.Inject = func(pkt *netdev.PacketBuf) bool {
		check() // the previous frame, if it was the corrupted ACK, is handled
		data := pkt.Bytes()
		if corrupted > 0 || cli == nil || pkt.Src != w.a2.Addr() || len(data) != ip.HeaderLen+HeaderLen {
			return true
		}
		ackOff := ip.HeaderLen + 8
		if ack := binary.BigEndian.Uint32(data[ackOff:]); !seqLT(ack, cli.sndNxt) {
			return true
		}
		// Acknowledge everything sent, though the peer has not.
		binary.BigEndian.PutUint32(data[ackOff:], cli.sndNxt)
		pkt.FCS = netdev.FrameCheck(data)
		corrupted++
		unaBefore, pending = cli.sndUna, true
		return true
	}
	w.k2.Spawn("server", func(p *aegis.Process) {
		conn, err := Accept(w.stackFor(p, w.a2, 7, w.ip2), w.cfg(ModeASH, 2), 80)
		if err != nil {
			t.Errorf("accept: %v", err)
			return
		}
		buf := p.AS.MustAlloc(len(payload), "rxdata")
		if err := conn.ReadFull(buf.Base, len(payload)); err != nil {
			t.Errorf("server read: %v", err)
		} else if string(w.k2.Bytes(buf.Base, len(payload))) != string(payload) {
			t.Error("stream corrupted")
		}
		_ = conn.Close()
	})
	w.k1.Spawn("client", func(p *aegis.Process) {
		conn, err := Connect(w.stackFor(p, w.a1, 7, w.ip1), w.cfg(ModeASH, 1), 1234, w.ip2, 80)
		if err != nil {
			t.Errorf("connect: %v", err)
			return
		}
		cli = conn
		if err := conn.WriteBytes(payload); err != nil {
			t.Errorf("client write: %v", err)
		}
		_ = conn.Close()
	})
	w.eng.Run()
	check()
	if corrupted == 0 {
		t.Fatal("no pure ACK with data outstanding to corrupt")
	}
	if cli.BadChecksum == 0 {
		t.Fatal("corrupted pure ACK not counted in BadChecksum")
	}
}

func TestRandomSegmentationProperty(t *testing.T) {
	// Property: for random MSS and payload sizes, the stream arrives
	// intact in every mode.
	for trial := 0; trial < 6; trial++ {
		rng := rand.New(rand.NewSource(int64(trial) + 100))
		mss := 64 + rng.Intn(3072)
		size := 1 + rng.Intn(20000)
		mode := []Mode{ModeUser, ModeASH, ModeUpcall}[trial%3]
		func() {
			w := newWorld()
			payload := make([]byte, size)
			rng.Read(payload)
			ok := false
			w.k2.Spawn("server", func(p *aegis.Process) {
				st := w.stackFor(p, w.a2, 7, w.ip2)
				cfg := w.cfg(mode, 2)
				cfg.MSS = mss
				conn, err := Accept(st, cfg, 80)
				if err != nil {
					t.Error(err)
					return
				}
				buf := p.AS.MustAlloc(size+16, "rx")
				if err := conn.ReadFull(buf.Base, size); err != nil {
					t.Error(err)
					return
				}
				got := w.k2.Bytes(buf.Base, size)
				for i := range payload {
					if got[i] != payload[i] {
						t.Errorf("trial %d (mss=%d size=%d mode=%v): corrupt at %d",
							trial, mss, size, mode, i)
						return
					}
				}
				ok = true
				_ = conn.Close()
			})
			w.k1.Spawn("client", func(p *aegis.Process) {
				st := w.stackFor(p, w.a1, 7, w.ip1)
				cfg := w.cfg(mode, 1)
				cfg.MSS = mss
				conn, err := Connect(st, cfg, 1234, w.ip2, 80)
				if err != nil {
					t.Error(err)
					return
				}
				if err := conn.WriteBytes(payload); err != nil {
					t.Error(err)
				}
				_ = conn.Close()
			})
			w.eng.Run()
			if !ok {
				t.Fatalf("trial %d (mss=%d size=%d mode=%v) failed", trial, mss, size, mode)
			}
		}()
	}
}

func TestSynchronousWriteSemantics(t *testing.T) {
	// Write must not return before the data is acknowledged: after Write
	// returns, sndUna == sndNxt.
	w := newWorld()
	w.k2.Spawn("server", func(p *aegis.Process) {
		st := w.stackFor(p, w.a2, 7, w.ip2)
		conn, err := Accept(st, w.cfg(ModeUser, 2), 80)
		if err != nil {
			t.Error(err)
			return
		}
		buf := p.AS.MustAlloc(8192, "rx")
		_ = conn.ReadFull(buf.Base, 8000)
		_ = conn.Close()
	})
	w.k1.Spawn("client", func(p *aegis.Process) {
		st := w.stackFor(p, w.a1, 7, w.ip1)
		conn, err := Connect(st, w.cfg(ModeUser, 1), 1234, w.ip2, 80)
		if err != nil {
			t.Error(err)
			return
		}
		data := make([]byte, 8000)
		if err := conn.WriteBytes(data); err != nil {
			t.Error(err)
			return
		}
		if conn.sndUna != conn.sndNxt {
			t.Errorf("write returned with %d unacknowledged bytes",
				conn.sndNxt-conn.sndUna)
		}
		_ = conn.Close()
	})
	w.eng.Run()
}

func TestWindowLimitsInFlightData(t *testing.T) {
	// With an 8-KB window, the sender never has more than 8 KB in flight.
	w := newWorld()
	maxInFlight := 0
	w.k2.Spawn("server", func(p *aegis.Process) {
		st := w.stackFor(p, w.a2, 7, w.ip2)
		conn, err := Accept(st, w.cfg(ModeUser, 2), 80)
		if err != nil {
			t.Error(err)
			return
		}
		buf := p.AS.MustAlloc(65536, "rx")
		_ = conn.ReadFull(buf.Base, 50000)
		_ = conn.Close()
	})
	w.k1.Spawn("client", func(p *aegis.Process) {
		st := w.stackFor(p, w.a1, 7, w.ip1)
		conn, err := Connect(st, w.cfg(ModeUser, 1), 1234, w.ip2, 80)
		if err != nil {
			t.Error(err)
			return
		}
		data := make([]byte, 50000)
		seg, err := conn.scratch(len(data))
		if err != nil {
			t.Error(err)
			return
		}
		copy(w.k1.Bytes(seg, len(data)), data)
		go func() {}() // no-op: keep structure clear
		// Interleave writes with in-flight checks.
		sent := 0
		for sent < len(data) {
			n := min(8192, len(data)-sent)
			if err := conn.Write(seg+uint32(sent), n); err != nil {
				t.Error(err)
				return
			}
			if fl := int(conn.sndNxt - conn.sndUna); fl > maxInFlight {
				maxInFlight = fl
			}
			sent += n
		}
		_ = conn.Close()
	})
	w.eng.Run()
	if maxInFlight > 8192 {
		t.Fatalf("in-flight data reached %d bytes, window is 8192", maxInFlight)
	}
}

func TestASHLatencyBeatsUserWhenSuspended(t *testing.T) {
	// The Table VI headline: with the application not scheduled at
	// message arrival, the ASH fast path saves tens of microseconds per
	// round trip over the user-level library.
	measure := func(mode Mode, polling bool) float64 {
		w := newWorld()
		const iters = 8
		// "Suspended (interrupts)": the app is not polling; message
		// arrival reschedules it promptly (the paper simulates taking an
		// interrupt), at the cost of the full context-switch path. A
		// competitor makes the switch real.
		if !polling {
			w.k1.Sched = aegis.NewPriorityBoost(w.k1)
			w.k2.Sched = aegis.NewPriorityBoost(w.k2)
			w.k1.Spawn("spin1", func(p *aegis.Process) { p.SpinForever() })
			w.k2.Spawn("spin2", func(p *aegis.Process) { p.SpinForever() })
		}
		var rt sim.Time
		w.k2.Spawn("server", func(p *aegis.Process) {
			st := w.stackFor(p, w.a2, 7, w.ip2)
			cfg := w.cfg(mode, 2)
			cfg.Polling = polling
			conn, err := Accept(st, cfg, 80)
			if err != nil {
				t.Error(err)
				return
			}
			buf := p.AS.MustAlloc(64, "rx")
			for i := 0; i < iters; i++ {
				if err := conn.ReadFull(buf.Base, 4); err != nil {
					t.Error(err)
					return
				}
				if err := conn.Write(buf.Base, 4); err != nil {
					t.Error(err)
					return
				}
			}
			_ = conn.Close()
		})
		w.k1.Spawn("client", func(p *aegis.Process) {
			st := w.stackFor(p, w.a1, 7, w.ip1)
			cfg := w.cfg(mode, 1)
			cfg.Polling = polling
			conn, err := Connect(st, cfg, 1234, w.ip2, 80)
			if err != nil {
				t.Error(err)
				return
			}
			buf := p.AS.MustAlloc(64, "tx")
			start := p.K.Now()
			for i := 0; i < iters; i++ {
				if err := conn.Write(buf.Base, 4); err != nil {
					t.Error(err)
					return
				}
				if err := conn.ReadFull(buf.Base, 4); err != nil {
					t.Error(err)
					return
				}
			}
			rt = p.K.Now() - start
			_ = conn.Close()
		})
		// Spinners never exit; run long enough for the measurement.
		w.eng.RunUntil(w.k1.Prof.Cycles(3_000_000_000)) // 3 simulated seconds
		if rt == 0 {
			t.Fatalf("mode %v polling=%v: ping-pong did not complete", mode, polling)
		}
		return w.k1.Prof.Us(rt) / iters
	}

	userSusp := measure(ModeUser, false)
	ashSusp := measure(ModeASH, false)
	if ashSusp >= userSusp {
		t.Fatalf("suspended: ASH %.1f us not better than user %.1f us", ashSusp, userSusp)
	}
	saving := userSusp - ashSusp
	if saving < 20 {
		t.Fatalf("suspended saving = %.1f us, want tens of us (Table VI: ~65)", saving)
	}
}

func TestWindowStallAndRecovery(t *testing.T) {
	// The receiver stops reading: the 8-KB window fills and the sender
	// stalls; when the receiver drains, transfer completes intact.
	w := newWorld()
	payload := make([]byte, 40000)
	rand.New(rand.NewSource(11)).Read(payload)
	ok := false
	w.k2.Spawn("server", func(p *aegis.Process) {
		st := w.stackFor(p, w.a2, 7, w.ip2)
		conn, err := Accept(st, w.cfg(ModeUser, 2), 80)
		if err != nil {
			t.Error(err)
			return
		}
		// Stall: compute for 50 ms before reading anything.
		p.Compute(w.k2.Prof.Cycles(50_000))
		buf := p.AS.MustAlloc(len(payload)+16, "rx")
		if err := conn.ReadFull(buf.Base, len(payload)); err != nil {
			t.Error(err)
			return
		}
		got := w.k2.Bytes(buf.Base, len(payload))
		for i := range payload {
			if got[i] != payload[i] {
				t.Errorf("corrupt at %d", i)
				return
			}
		}
		ok = true
		_ = conn.Close()
	})
	w.k1.Spawn("client", func(p *aegis.Process) {
		st := w.stackFor(p, w.a1, 7, w.ip1)
		conn, err := Connect(st, w.cfg(ModeUser, 1), 1234, w.ip2, 80)
		if err != nil {
			t.Error(err)
			return
		}
		if err := conn.WriteBytes(payload); err != nil {
			t.Error(err)
		}
		_ = conn.Close()
	})
	w.eng.Run()
	if !ok {
		t.Fatal("transfer did not complete after the stall")
	}
}

func TestSimultaneousClose(t *testing.T) {
	// Both ends close at once; both reach CLOSED without retransmission
	// storms.
	w := newWorld()
	var c1, c2 *Conn
	w.k2.Spawn("server", func(p *aegis.Process) {
		st := w.stackFor(p, w.a2, 7, w.ip2)
		conn, err := Accept(st, w.cfg(ModeUser, 2), 80)
		if err != nil {
			t.Error(err)
			return
		}
		c2 = conn
		_ = conn.Close()
	})
	w.k1.Spawn("client", func(p *aegis.Process) {
		st := w.stackFor(p, w.a1, 7, w.ip1)
		conn, err := Connect(st, w.cfg(ModeUser, 1), 1234, w.ip2, 80)
		if err != nil {
			t.Error(err)
			return
		}
		c1 = conn
		_ = conn.Close()
	})
	w.eng.Run()
	if c1 == nil || c2 == nil {
		t.Fatal("connections missing")
	}
	if c1.State() != Closed || c2.State() != Closed {
		t.Fatalf("states: %v / %v", c1.State(), c2.State())
	}
	if c1.Retransmits+c2.Retransmits > 2 {
		t.Fatalf("simultaneous close retransmitted %d times", c1.Retransmits+c2.Retransmits)
	}
}

func TestHandlerRingWrapAround(t *testing.T) {
	// Handler-mode transfers larger than the window exercise the receive
	// ring's wrap path (two DILP calls per wrapping segment).
	for trial := 0; trial < 3; trial++ {
		size := 30000 + trial*1111
		cli, srv := transferTest(t, ModeASH, size, int64(200+trial), nil)
		if cli == nil || srv == nil {
			t.Fatal("transfer failed")
		}
		if srv.HandlerConsumed < 5 {
			t.Fatalf("handler consumed only %d segments", srv.HandlerConsumed)
		}
	}
}
