package transport

import (
	"fmt"
	"net"
	"sync/atomic"
	"syscall"

	"embeddedmpls/internal/packet"
	"embeddedmpls/internal/telemetry"
)

// maxReadSize bounds one datagram read; a 64 KiB slice covers the
// largest UDP payload, so no datagram is ever truncated by the reader.
const maxReadSize = 64 << 10

// Inbound is one decoded arrival: the packet and the name of the
// neighbour that sent it, resolved from the datagram's NodeID (or
// pinned by WithPeer on single-peer sockets).
type Inbound struct {
	P    *packet.Packet
	From string
}

// Receiver owns one UDP socket and turns its datagrams into batches of
// decoded packets. One recvmmsg syscall pulls up to WithSysBatch
// datagrams off the kernel queue, each datagram may be a coalesced
// frame carrying many packets, and a batch is what the socket holds
// right now: the loop keeps reading without parking while packets are
// pending and hands them to the sink as soon as a read finds the socket
// empty, or the batch (WithBatch) is full. Nothing waits on a timer, so
// a burst reaches the sink one syscall after its last datagram landed.
//
// The sink owns the packets only for the duration of the call: the
// receiver reuses their stack and payload storage for the next batch,
// which is what keeps the decode path allocation-free. A sink that
// keeps packets past the call must Clone them; one that forwards them
// before returning (router.Network.FeedTo) need not.
type Receiver struct {
	conn    *net.UDPConn
	rc      syscall.RawConn
	deliver func(batch []Inbound)

	peer  string
	names []string

	batch   []Inbound
	pending int

	readBufs [][]byte
	sizes    []int
	io       *mmsgIO
	// recvFn (parks on EAGAIN) and pollFn (returns on EAGAIN) are the
	// raw-connection read callbacks, stored once: no per-read closure
	// alloc.
	recvFn  func(fd uintptr) bool
	pollFn  func(fd uintptr) bool
	segFn   func(seg []byte) error
	recvN   int
	recvErr syscall.Errno

	m         *Metrics
	drop      func(telemetry.Reason)
	preAdmit  func(peer string, labelled bool) bool
	malformed func(peer string)
	closed    atomic.Bool
	done      chan struct{}
}

// Listen opens a UDP receive socket on addr (":0" picks a free port)
// and starts the read loop, delivering decoded batches to sink.
func Listen(addr string, sink func(batch []Inbound), opts ...Option) (*Receiver, error) {
	cfg := defaultConfig()
	for _, opt := range opts {
		opt(&cfg)
	}
	la, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", addr, err)
	}
	conn, err := net.ListenUDP("udp", la)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", addr, err)
	}
	return newReceiver(conn, sink, cfg)
}

// newReceiver wraps an already-bound socket — the seam ListenSharded
// uses to start one receiver per SO_REUSEPORT socket.
func newReceiver(conn *net.UDPConn, sink func(batch []Inbound), cfg config) (*Receiver, error) {
	rc, err := conn.SyscallConn()
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("transport: listen: %w", err)
	}
	// Size the kernel's receive queue too: bursts larger than SO_RCVBUF
	// are silently shed by the kernel before the read loop ever sees
	// them. Best effort — some platforms clamp it.
	_ = conn.SetReadBuffer(cfg.readBuffer)
	r := &Receiver{
		conn:      conn,
		rc:        rc,
		deliver:   sink,
		peer:      cfg.peer,
		names:     cfg.names,
		batch:     make([]Inbound, cfg.batch),
		readBufs:  make([][]byte, cfg.sysBatch),
		sizes:     make([]int, cfg.sysBatch),
		m:         cfg.metrics,
		drop:      cfg.drop,
		preAdmit:  cfg.preAdmit,
		malformed: cfg.malformed,
		done:      make(chan struct{}),
	}
	if r.m == nil {
		r.m = &Metrics{}
	}
	for i := range r.readBufs {
		r.readBufs[i] = make([]byte, maxReadSize)
	}
	for i := range r.batch {
		r.batch[i].P = &packet.Packet{}
	}
	if haveMmsg && cfg.sysBatch > 1 {
		r.io = newMmsgIO(cfg.sysBatch)
	}
	r.recvFn = r.recvStep
	r.pollFn = r.pollStep
	r.segFn = func(seg []byte) error { r.ingestPacket(seg); return nil }
	go r.loop()
	return r, nil
}

// Addr returns the socket's bound address — the port to hand peers
// when listening on ":0".
func (r *Receiver) Addr() net.Addr { return r.conn.LocalAddr() }

// Metrics exposes the receiver's transport counters.
func (r *Receiver) Metrics() *Metrics { return r.m }

// Close stops the read loop and releases the socket. Idempotent; it
// returns after the loop has flushed its last batch and exited, so no
// sink call is in flight afterwards.
func (r *Receiver) Close() error {
	if r.closed.Swap(true) {
		return nil
	}
	err := r.conn.Close()
	<-r.done
	return err
}

// recv issues one read syscall: a recvmmsg filling up to the loaded
// buffer ring, or a single datagram read without the batched call.
func (r *Receiver) recv(fd uintptr) {
	r.m.RxSyscalls.Add(1)
	if r.io != nil {
		r.recvN, r.recvErr = r.io.recvStep(fd)
		return
	}
	r.sizes[0], r.recvErr = readOne(fd, r.readBufs[0])
	if r.recvErr == 0 {
		r.recvN = 1
	}
}

// readOne reads one datagram into buf without blocking — the
// receiver's path when the syscall batch is one.
func readOne(fd uintptr, buf []byte) (int, syscall.Errno) {
	n, err := syscall.Read(int(fd), buf)
	if err != nil {
		return 0, err.(syscall.Errno)
	}
	return n, 0
}

// recvStep parks the read loop in the netpoller while the socket is
// empty; pollStep returns either way, so EAGAIN reaches the loop.
func (r *Receiver) recvStep(fd uintptr) bool {
	r.recv(fd)
	return r.recvErr != syscall.EAGAIN
}

func (r *Receiver) pollStep(fd uintptr) bool {
	r.recv(fd)
	return true
}

// readBatch reads what the socket holds and returns how many datagrams
// arrived, with their lengths in r.sizes. With block set it waits for
// at least one; without, it returns 0 at once when the socket is empty.
func (r *Receiver) readBatch(block bool) (int, error) {
	fn := r.pollFn
	if block {
		fn = r.recvFn
	}
	if r.io != nil {
		r.io.load(r.readBufs)
	}
	r.recvN, r.recvErr = 0, 0
	if err := r.rc.Read(fn); err != nil {
		return 0, err
	}
	switch r.recvErr {
	case 0:
	case syscall.EAGAIN:
		return 0, nil
	default:
		return 0, r.recvErr
	}
	if r.io != nil {
		for i := 0; i < r.recvN; i++ {
			r.sizes[i] = r.io.size(i)
		}
	}
	return r.recvN, nil
}

// loop is the socket read loop: block for the first datagram of a
// batch, then read on without parking until the socket is empty, and
// flush then. The read that finds the socket empty is the only wait a
// batch pays.
func (r *Receiver) loop() {
	defer close(r.done)
	for {
		n, err := r.readBatch(r.pending == 0)
		if err != nil {
			// Socket closed (or unrecoverable): deliver what we have
			// and stop.
			r.flush()
			return
		}
		if n == 0 {
			r.flush()
			continue
		}
		var bytes uint64
		for i := 0; i < n; i++ {
			bytes += uint64(r.sizes[i])
		}
		r.m.RxDatagrams.Add(uint64(n))
		r.m.RxBytes.Add(bytes)
		for i := 0; i < n; i++ {
			r.ingestDatagram(r.readBufs[i][:r.sizes[i]])
		}
	}
}

// ingestDatagram routes one datagram to the right decoder: coalesced
// frames unpack segment by segment, anything else decodes as a single
// packet. Malformed framing — zero counts, count/length mismatches,
// truncated tails — surfaces as one wire-decode drop for the datagram;
// segment decode failures count individually.
func (r *Receiver) ingestDatagram(buf []byte) {
	if IsFrame(buf) {
		if err := ForEachFrameSegment(buf, r.segFn); err != nil {
			// Frame headers carry no NodeID; only a pinned single-peer
			// socket can attribute a malformed frame.
			r.decodeFailure(err, r.peer)
		}
		return
	}
	r.ingestPacket(buf)
}

// peerOf attributes a raw datagram to a neighbour before (or without)
// a successful decode: the pinned peer of a single-peer socket wins,
// otherwise the claimed NodeID is peeked from an intact header prefix.
// A spoofed NodeID attributes the datagram to whoever the sender
// claims to be — which is exactly what the quarantine breaker wants,
// since the real origin of hostile bytes is unknowable at this layer.
func (r *Receiver) peerOf(buf []byte) string {
	if r.peer != "" {
		return r.peer
	}
	if len(buf) >= 6 && buf[0] == magic0 && buf[1] == magic1 {
		if id := NodeID(buf[4])<<8 | NodeID(buf[5]); int(id) < len(r.names) {
			return r.names[id]
		}
	}
	return ""
}

// ingestPacket decodes one packet encoding into the next batch slot,
// accounting failures as wire-decode drops and flushing the batch when
// it fills.
func (r *Receiver) ingestPacket(buf []byte) {
	// Pre-decode admission: once the header prefix identifies the
	// claimed sender and whether the datagram carries labels, a guard
	// hook may refuse it before any decode work is spent. Datagrams too
	// damaged to peek fall through to the decoder, which rejects them.
	if r.preAdmit != nil && len(buf) >= 6 && buf[0] == magic0 && buf[1] == magic1 {
		if !r.preAdmit(r.peerOf(buf), buf[3]&flagLabelled != 0) {
			return
		}
	}
	slot := &r.batch[r.pending]
	src, err := DecodePacket(slot.P, buf)
	if err != nil {
		r.decodeFailure(err, r.peerOf(buf))
		return
	}
	r.m.RxPackets.Add(1)
	slot.From = r.peer
	if slot.From == "" && int(src) < len(r.names) {
		slot.From = r.names[src]
	}
	r.pending++
	if r.pending == len(r.batch) {
		r.flush()
	}
}

// decodeFailure accounts one undecodable datagram or frame segment,
// attributed to peer ("" when unattributable).
func (r *Receiver) decodeFailure(err error, peer string) {
	r.m.DecodeErrors.Add(1)
	if truncation(err) {
		r.m.ShortReads.Add(1)
	}
	if r.drop != nil {
		r.drop(telemetry.ReasonWireDecode)
	}
	if r.malformed != nil {
		r.malformed(peer)
	}
}

// flush hands the accumulated batch to the sink and rearms the slots.
func (r *Receiver) flush() {
	if r.pending == 0 {
		return
	}
	n := r.pending
	r.pending = 0
	r.deliver(r.batch[:n])
}
