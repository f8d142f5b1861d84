package nfs

import (
	"math/rand"
	"runtime"
	"testing"

	"ashs/internal/aegis"
	"ashs/internal/mach"
	"ashs/internal/netdev"
	"ashs/internal/proto/ip"
	"ashs/internal/proto/link"
	"ashs/internal/proto/udp"
	"ashs/internal/sim"
)

// world builds a client/server pair; body runs in the client process.
func world(t *testing.T, srv *Server, requests int, body func(p *aegis.Process, c *Client)) *netdev.Switch {
	t.Helper()
	eng := sim.NewEngine()
	prof := mach.DS5000_240()
	sw := netdev.NewSwitch(eng, prof, netdev.AN2Config())
	k1 := aegis.NewKernel("client", eng, prof)
	k2 := aegis.NewKernel("server", eng, prof)
	a1, a2 := aegis.NewAN2(k1, sw), aegis.NewAN2(k2, sw)
	ip1, ip2 := ip.HostAddr(a1.Addr()), ip.HostAddr(a2.Addr())

	stack := func(p *aegis.Process, iface *aegis.AN2If, local ip.Addr) *ip.Stack {
		ep, err := link.BindAN2(iface, p, 5, 16, iface.MaxFrame())
		if err != nil {
			t.Error(err)
			return nil
		}
		return ip.NewStack(ep, local, ip.StaticResolver{
			ip1: {Port: a1.Addr(), VC: 5},
			ip2: {Port: a2.Addr(), VC: 5},
		})
	}

	k2.Spawn("nfsd", func(p *aegis.Process) {
		st := stack(p, a2, ip2)
		if st == nil {
			return
		}
		sock := udp.NewSocket(st, 2049, udp.Options{Checksum: true})
		srv.Serve(p, sock, requests)
	})
	k1.Spawn("mount", func(p *aegis.Process) {
		st := stack(p, a1, ip1)
		if st == nil {
			return
		}
		sock := udp.NewSocket(st, 900, udp.Options{Checksum: true})
		body(p, NewClient(sock, ip2, 2049))
	})
	eng.Run()
	return sw
}

func TestLookupGetAttrRead(t *testing.T) {
	srv := NewServer()
	content := []byte("exokernels let applications manage their own resources")
	srv.AddFile("motd", content)

	world(t, srv, 3, func(p *aegis.Process, c *Client) {
		attr, err := c.Lookup(p, RootHandle, "motd")
		if err != nil {
			t.Error(err)
			return
		}
		if attr.IsDir || attr.Size != uint32(len(content)) {
			t.Errorf("attr = %+v", attr)
		}
		a2, err := c.GetAttr(p, attr.Handle)
		if err != nil || a2 != attr {
			t.Errorf("getattr = %+v, %v", a2, err)
		}
		data, err := c.Read(p, attr.Handle, 11, 10)
		if err != nil {
			t.Error(err)
			return
		}
		if string(data) != string(content[11:21]) {
			t.Errorf("read = %q", data)
		}
	})
}

func TestCreateWriteReadBack(t *testing.T) {
	srv := NewServer()
	payload := make([]byte, 5000)
	rand.New(rand.NewSource(8)).Read(payload)

	world(t, srv, 4, func(p *aegis.Process, c *Client) {
		attr, err := c.Create(p, RootHandle, "data.bin")
		if err != nil {
			t.Error(err)
			return
		}
		if _, err := c.Write(p, attr.Handle, 0, payload[:4096]); err != nil {
			t.Error(err)
			return
		}
		if a, err := c.Write(p, attr.Handle, 4096, payload[4096:]); err != nil || a.Size != 5000 {
			t.Errorf("write 2: %+v, %v", a, err)
			return
		}
		got, err := c.Read(p, attr.Handle, 0, 5000)
		if err != nil {
			t.Error(err)
			return
		}
		for i := range payload {
			if got[i] != payload[i] {
				t.Errorf("read-back mismatch at %d", i)
				return
			}
		}
	})
}

func TestLookupMissingFails(t *testing.T) {
	srv := NewServer()
	world(t, srv, 1, func(p *aegis.Process, c *Client) {
		if _, err := c.Lookup(p, RootHandle, "nope"); err == nil {
			t.Error("lookup of missing file succeeded")
		}
	})
}

func TestWriteIdempotent(t *testing.T) {
	// Applying the same absolute write twice leaves the same state (the
	// property that makes NFS retransmission safe).
	srv := NewServer()
	fh := srv.AddFile("f", []byte("0123456789"))
	world(t, srv, 3, func(p *aegis.Process, c *Client) {
		if _, err := c.Write(p, fh, 4, []byte("XY")); err != nil {
			t.Error(err)
			return
		}
		if _, err := c.Write(p, fh, 4, []byte("XY")); err != nil {
			t.Error(err)
			return
		}
		got, err := c.Read(p, fh, 0, 10)
		if err != nil {
			t.Error(err)
			return
		}
		if string(got) != "0123XY6789" {
			t.Errorf("after duplicate writes: %q", got)
		}
	})
}

func TestRetransmissionWithLoss(t *testing.T) {
	srv := NewServer()
	fh := srv.AddFile("f", []byte("0123456789"))
	// The switch drops the first server reply.
	// world() runs the engine, so inject before by wrapping: rebuild
	// manually with an injector.
	eng := sim.NewEngine()
	prof := mach.DS5000_240()
	sw := netdev.NewSwitch(eng, prof, netdev.AN2Config())
	k1 := aegis.NewKernel("client", eng, prof)
	k2 := aegis.NewKernel("server", eng, prof)
	a1, a2 := aegis.NewAN2(k1, sw), aegis.NewAN2(k2, sw)
	ip1, ip2 := ip.HostAddr(a1.Addr()), ip.HostAddr(a2.Addr())
	drops := 0
	sw.Inject = func(pkt *netdev.PacketBuf) bool {
		// Reply packets travel from server (port 1) to client (port 0).
		if pkt.Src == a2.Addr() && drops == 0 {
			drops++
			return false
		}
		return true
	}
	stack := func(p *aegis.Process, iface *aegis.AN2If, local ip.Addr) *ip.Stack {
		ep, err := link.BindAN2(iface, p, 5, 16, iface.MaxFrame())
		if err != nil {
			t.Fatal(err)
		}
		return ip.NewStack(ep, local, ip.StaticResolver{
			ip1: {Port: a1.Addr(), VC: 5},
			ip2: {Port: a2.Addr(), VC: 5},
		})
	}
	k2.Spawn("nfsd", func(p *aegis.Process) {
		sock := udp.NewSocket(stack(p, a2, ip2), 2049, udp.Options{Checksum: true})
		srv.Serve(p, sock, 3)
	})
	ok := false
	k1.Spawn("mount", func(p *aegis.Process) {
		sock := udp.NewSocket(stack(p, a1, ip1), 900, udp.Options{Checksum: true})
		c := NewClient(sock, ip2, 2049)
		c.RetryUs = 20_000
		if _, err := c.Write(p, fh, 0, []byte("AB")); err != nil {
			t.Error(err)
			return
		}
		got, err := c.Read(p, fh, 0, 10)
		if err != nil {
			t.Error(err)
			return
		}
		if string(got) != "AB23456789" {
			t.Errorf("got %q", got)
			return
		}
		if c.Resent == 0 {
			t.Error("loss did not trigger retransmission")
		}
		ok = true
	})
	eng.Run()
	if !ok {
		t.Fatal("client did not complete")
	}
	if drops != 1 {
		t.Fatalf("injector dropped %d", drops)
	}
}

func TestCreateIdempotent(t *testing.T) {
	srv := NewServer()
	world(t, srv, 2, func(p *aegis.Process, c *Client) {
		a1, err := c.Create(p, RootHandle, "same")
		if err != nil {
			t.Error(err)
			return
		}
		a2, err := c.Create(p, RootHandle, "same")
		if err != nil {
			t.Error(err)
			return
		}
		if a1.Handle != a2.Handle {
			t.Errorf("retransmitted CREATE made a second file: %v vs %v", a1.Handle, a2.Handle)
		}
	})
}

// TestWriteHugeOffset: a WRITE whose offset comes straight off the wire
// near 2^32 must be refused with ErrFBig, leave the file as it was, and
// not make the server allocate for the bogus extent.
func TestWriteHugeOffset(t *testing.T) {
	srv := NewServer()
	fh := srv.AddFile("f", []byte("0123456789"))
	for _, off := range []uint32{MaxFileSize - 1, 1 << 31, 0xffff_fff0} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		reply := srv.dispatch(request(7, ProcWrite, fh, off, 0, []byte("XY")))
		runtime.ReadMemStats(&after)
		if st := be32(reply[4:]); st != ErrFBig {
			t.Fatalf("offset %#x: status %d, want ErrFBig", off, st)
		}
		if f := srv.files[fh]; f.attr.Size != 10 || string(f.data) != "0123456789" {
			t.Fatalf("offset %#x: file changed to size %d, %d bytes", off, f.attr.Size, len(f.data))
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Fatalf("offset %#x: refused write allocated %d bytes", off, grew)
		}
	}
	// The largest file the store allows is still writable.
	reply := srv.dispatch(request(8, ProcWrite, fh, MaxFileSize-2, 0, []byte("XY")))
	if st := be32(reply[4:]); st != OK || srv.files[fh].attr.Size != MaxFileSize {
		t.Fatalf("write ending at MaxFileSize: status %d, size %d", st, srv.files[fh].attr.Size)
	}
}
