package netdev

// PacketBuf is a frame in flight, leased from a switch's BufPool. The
// lease discipline is explicit, exokernel-style resource ownership:
//
//   - Lease hands out a buffer with one reference, owned by the caller.
//   - Transmit and Redeliver consume the caller's reference; after either
//     call the caller must not touch the buffer again.
//   - A receiver that wants the frame past the rx callback's return calls
//     Retain (the switch releases its own reference when the callback
//     returns).
//   - Release returns the reference; the last Release recycles the buffer
//     into the pool. Releasing a buffer that is already free panics.
//
// VC carries the ATM virtual-circuit identifier on AN2 links (ignored on
// Ethernet).
type PacketBuf struct {
	Src, Dst int // port addresses
	VC       int

	// FCS is the frame check sequence computed by the transmitting board
	// over the payload. Transmit fills it in; receiving boards verify it
	// and discard frames whose payload was damaged in flight. An injector
	// that mutates the payload without refreshing FCS models wire
	// corruption the board catches; refreshing it models corruption that
	// sneaks past the CRC and must be caught by the end-to-end checksums.
	FCS uint32

	pool *BufPool
	refs int32
	buf  []byte // backing store, cap fixed at the pool's frame size
	n    int
	next *PacketBuf // pool freelist
}

// Bytes is the frame payload. The slice aliases pooled storage: it is
// valid only while the caller holds a reference.
func (b *PacketBuf) Bytes() []byte { return b.buf[:b.n] }

// Len reports the payload length.
func (b *PacketBuf) Len() int { return b.n }

// SetData copies d into the buffer, replacing the payload. Payloads
// beyond the pool's frame size grow this buffer's backing store (the
// switch still rejects them at Transmit; growing keeps that error path
// reachable instead of turning it into a pool panic).
func (b *PacketBuf) SetData(d []byte) {
	copy(b.Grow(len(d)), d)
}

// Grow sets the payload length to n — enlarging the backing store on the
// rare oversize request — and returns the writable payload slice, so
// protocol layers can marshal frames in place instead of building a
// scratch slice and copying it in.
func (b *PacketBuf) Grow(n int) []byte {
	if n > cap(b.buf) {
		b.buf = make([]byte, n)
	}
	b.n = n
	return b.buf[:n]
}

// Retain adds a reference: the holder promises a matching Release.
func (b *PacketBuf) Retain() {
	if b.refs <= 0 {
		panic("netdev: Retain of a released PacketBuf")
	}
	b.refs++
}

// Release drops a reference; the last one recycles the buffer into its
// pool. Releasing an already-free buffer panics — a double release means
// two owners both believed the frame was theirs, which the lease API
// exists to make impossible.
func (b *PacketBuf) Release() {
	b.refs--
	if b.refs > 0 {
		return
	}
	if b.refs < 0 {
		panic("netdev: double Release of PacketBuf")
	}
	p := b.pool
	p.inUse--
	p.Releases++
	b.n = 0
	b.Src, b.Dst, b.VC, b.FCS = 0, 0, 0, 0
	b.next = p.free
	p.free = b
}

// Refs reports the current reference count (diagnostics and tests).
func (b *PacketBuf) Refs() int { return int(b.refs) }

// BufPool recycles PacketBufs of one frame size. Pools are per-switch and
// single-threaded like everything else under one engine; the accounting
// fields make leaks observable — a drained simulation must end with
// InUse() == 0.
type BufPool struct {
	frameCap int
	free     *PacketBuf
	inUse    int

	// Leases and Releases count lifecycle events since the pool was
	// created; Grown counts buffers ever minted. In steady state Grown
	// stops moving: every lease is served from the freelist.
	Leases, Releases uint64
	Grown            uint64
}

// NewBufPool creates a pool whose buffers hold frames up to frameCap bytes.
func NewBufPool(frameCap int) *BufPool {
	return &BufPool{frameCap: frameCap}
}

// Lease takes a zero-length buffer with one reference from the pool.
func (p *BufPool) Lease() *PacketBuf {
	b := p.free
	if b != nil {
		p.free = b.next
		b.next = nil
	} else {
		b = &PacketBuf{pool: p, buf: make([]byte, p.frameCap)}
		p.Grown++
	}
	b.refs = 1
	p.inUse++
	p.Leases++
	return b
}

// InUse reports the number of leased buffers not yet fully released.
func (p *BufPool) InUse() int { return p.inUse }
