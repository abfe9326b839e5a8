package transport

import (
	"bytes"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"embeddedmpls/internal/netsim"
	"embeddedmpls/internal/packet"
	"embeddedmpls/internal/telemetry"
)

// UDPLink is a unidirectional transport link toward one neighbour: it
// encodes packets with the wire codec and writes them to a connected
// UDP socket. It implements netsim.Wire, so a router attaches it
// exactly like a simulated link — SetDown, fault hooks, keepalive
// probes and failover all behave identically, except that loss and
// delay now also come from a real network path.
//
// SendBatch is the primary egress path; Send is a batch of one.
// Both feed one coalescer: with WithCoalesce, packets pack into
// coalesced frame datagrams (many packets per datagram), and sealed
// frames move up to WithSysBatch datagrams per sendmmsg syscall where
// the platform has it. SendBatch writes everything it was given before
// it returns; only Send leaves a partial frame open, sealed by the next
// call or after the flush interval. The whole path reuses link-owned
// buffers, so steady-state batched sends allocate nothing.
//
// Fault semantics mirror netsim.Link: the hook sees the packet when
// its transmission starts, a Drop verdict eats it, ExtraDelay defers
// the socket write. A fault that mutates the packet (the corruption
// window of package faults) is materialised as on-the-wire damage —
// the datagram's magic is smashed, so the receiver's decode fails and
// the loss surfaces as a wire-decode drop, which is what label
// corruption on a physical wire looks like from the far end.
type UDPLink struct {
	from, to string
	src      NodeID
	conn     *net.UDPConn
	rc       syscall.RawConn

	// mu guards fault and onDrop; Send, SetFault and SetOnDrop may run
	// on different goroutines (pump, fault injector, collector).
	mu     sync.Mutex
	fault  netsim.Fault
	onDrop func(p *packet.Packet, reason telemetry.Reason)

	now   func() float64
	start time.Time

	down   atomic.Bool
	closed atomic.Bool
	// inflight tracks deferred sends (delayed fault re-sends) so Close
	// can wait for buffers to drain back to the pool.
	inflight sync.WaitGroup
	closing  sync.Once

	coalesce int
	sysBatch int
	flushIvl time.Duration

	// smu guards the batching state below. Send and SendBatch share one
	// coalescer: both feed the open frame (frBuf/fr), sealed frames
	// become datagram views, and views drain through batched syscalls. A
	// frame a Send left partially filled stays open for the next call or
	// the timer, so single-packet Sends coalesce with each other.
	smu       sync.Mutex
	pendTimer *time.Timer

	frames   []*[]byte // per-view encode buffers, grown once, reused
	views    [][]byte
	viewPkts []int
	nview    int
	frBuf    *[]byte // dedicated buffer behind the open frame
	frOpen   bool
	fr       FrameEncoder
	frPkts   int
	one      [1]*packet.Packet // Send's batch-of-one scratch

	io     *mmsgIO
	sendFn func(fd uintptr) bool // stored once: no per-write closure alloc
	werrno syscall.Errno

	m    *Metrics
	drop func(telemetry.Reason)
}

// Dial opens a transport link from node `from` toward neighbour `to`
// at the remote UDP address. The link owns the socket; Close releases
// it.
func Dial(from, to, raddr string, opts ...Option) (*UDPLink, error) {
	cfg := defaultConfig()
	for _, opt := range opts {
		opt(&cfg)
	}
	ra, err := net.ResolveUDPAddr("udp", raddr)
	if err != nil {
		return nil, fmt.Errorf("transport: dial %s->%s: %w", from, to, err)
	}
	conn, err := net.DialUDP("udp", nil, ra)
	if err != nil {
		return nil, fmt.Errorf("transport: dial %s->%s: %w", from, to, err)
	}
	rc, err := conn.SyscallConn()
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("transport: dial %s->%s: %w", from, to, err)
	}
	l := &UDPLink{
		from:     from,
		to:       to,
		src:      cfg.src,
		conn:     conn,
		rc:       rc,
		now:      cfg.now,
		start:    time.Now(),
		coalesce: cfg.coalesce,
		sysBatch: cfg.sysBatch,
		flushIvl: cfg.flushInterval,
		views:    make([][]byte, cfg.sysBatch),
		viewPkts: make([]int, cfg.sysBatch),
		m:        cfg.metrics,
		drop:     cfg.drop,
	}
	if l.m == nil {
		l.m = &Metrics{}
	}
	if haveMmsg && l.sysBatch > 1 {
		l.io = newMmsgIO(l.sysBatch)
	}
	l.sendFn = l.sendStep
	l.pendTimer = time.AfterFunc(time.Hour, l.flushOpen)
	l.pendTimer.Stop()
	return l, nil
}

// From returns the sending node's name.
func (l *UDPLink) From() string { return l.from }

// To implements netsim.Wire.
func (l *UDPLink) To() string { return l.to }

// Metrics exposes the link's transport counters.
func (l *UDPLink) Metrics() *Metrics { return l.m }

// LocalAddr returns the socket's local address (useful in logs).
func (l *UDPLink) LocalAddr() net.Addr { return l.conn.LocalAddr() }

// SetDown implements netsim.Wire: a down link discards everything
// handed to it.
func (l *UDPLink) SetDown(down bool) { l.down.Store(down) }

// Down implements netsim.Wire.
func (l *UDPLink) Down() bool { return l.down.Load() }

// SetFault implements netsim.Wire.
func (l *UDPLink) SetFault(f netsim.Fault) {
	l.mu.Lock()
	l.fault = f
	l.mu.Unlock()
}

// SetOnDrop implements netsim.Wire.
func (l *UDPLink) SetOnDrop(fn func(p *packet.Packet, reason telemetry.Reason)) {
	l.mu.Lock()
	l.onDrop = fn
	l.mu.Unlock()
}

// clock returns the fault-window time in seconds: the injected clock
// if one was configured, wall time since the link was created
// otherwise.
func (l *UDPLink) clock() float64 {
	if l.now != nil {
		return l.now()
	}
	return time.Since(l.start).Seconds()
}

// lost accounts one packet that never reached the socket.
func (l *UDPLink) lost(p *packet.Packet, reason telemetry.Reason) {
	l.m.TxLost.Add(1)
	if l.drop != nil {
		l.drop(reason)
	}
	l.mu.Lock()
	fn := l.onDrop
	l.mu.Unlock()
	if fn != nil {
		fn(p, reason)
	}
}

// encodeOne encodes p into a pooled buffer, applying the fault hook's
// verdict. It returns a nil buffer when the packet was consumed (drop
// verdict, encode failure — both accounted) and the extra delay a
// delay verdict imposed.
func (l *UDPLink) encodeOne(p *packet.Packet, fault netsim.Fault) (*[]byte, float64) {
	buf := getBuf()
	enc, err := AppendPacket((*buf)[:0], p, l.src)
	if err != nil {
		l.m.EncodeErrors.Add(1)
		l.lost(p, telemetry.ReasonInconsistentOp)
		putBuf(buf)
		return nil, 0
	}
	*buf = enc

	var extra float64
	if fault != nil {
		v := fault.Transmit(p, l.clock())
		if v.Drop {
			l.lost(p, telemetry.ReasonNoRoute)
			putBuf(buf)
			return nil, 0
		}
		extra = v.ExtraDelay
		// Re-encode after the hook: a difference means the fault
		// corrupted the packet, which on a real wire is damage to the
		// bytes in flight. Smash the magic so the far end's decode
		// fails instead of silently forwarding a half-believable frame.
		buf2 := getBuf()
		enc2, err2 := AppendPacket((*buf2)[:0], p, l.src)
		if err2 != nil {
			// Corrupted beyond encodability: the wire would have
			// carried trash; model it as loss on this side.
			l.m.EncodeErrors.Add(1)
			l.lost(p, telemetry.ReasonNoRoute)
			putBuf(buf)
			putBuf(buf2)
			return nil, 0
		}
		*buf2 = enc2
		if !bytes.Equal(*buf, *buf2) {
			(*buf2)[0] ^= 0xff
		}
		putBuf(buf)
		buf = buf2
	}
	return buf, extra
}

// Send implements netsim.Wire: the one-packet helper. It is a
// batch-of-one through the same coalescer as SendBatch, so loss is
// counted, never reported — exactly the simulated link's contract —
// and with coalescing enabled the packet joins the open frame and
// reaches the socket when the frame fills, the next SendBatch seals it,
// or the flush interval expires. Send is safe to call concurrently with
// Close.
func (l *UDPLink) Send(p *packet.Packet) {
	if l.closed.Load() || l.down.Load() {
		l.lost(p, telemetry.ReasonNoRoute)
		return
	}
	l.mu.Lock()
	fault := l.fault
	l.mu.Unlock()
	l.smu.Lock()
	l.one[0] = p
	l.sendBatchLocked(l.one[:], fault)
	l.one[0] = nil
	if l.frOpen && l.fr.Count() == 1 {
		// This packet opened the frame: arm the flush timer. Arming on
		// the empty->nonempty transition bounds how long any packet
		// waits, even under a steady trickle that never fills frames.
		l.pendTimer.Reset(l.flushIvl)
	}
	l.writeViews()
	l.smu.Unlock()
}

// SendBatch implements netsim.Wire: it moves a whole slice of packets
// through the link in one call. Packets are packed into coalesced
// frames (per WithCoalesce) and written with batched syscalls (up to
// WithSysBatch datagrams per sendmmsg); the partial tail frame is
// sealed too, so every packet has reached the socket when SendBatch
// returns and none waits for the flush timer. The packets are encoded
// synchronously and never referenced afterwards: a caller may reuse
// them at once. Per-packet down/closed/fault semantics match Send,
// except the fault hook is sampled once per call. The steady-state
// path allocates nothing: encode buffers, scatter/gather state and the
// syscall closure are all link-owned and reused.
func (l *UDPLink) SendBatch(ps []*packet.Packet) {
	l.mu.Lock()
	fault := l.fault
	l.mu.Unlock()
	l.smu.Lock()
	l.sendBatchLocked(ps, fault)
	if l.frOpen && l.fr.Count() > 0 {
		l.sealFrame()
	}
	l.writeViews()
	l.smu.Unlock()
}

// sendBatchLocked is the single encode path: every packet — from Send
// or SendBatch — joins the open coalesced frame (or its own datagram
// view when coalescing is off), and sealed frames become views, which
// drain through writeViews when the syscall batch fills. The caller
// decides what happens to the open frame and the last views, and holds
// smu.
func (l *UDPLink) sendBatchLocked(ps []*packet.Packet, fault netsim.Fault) {
	for _, p := range ps {
		if l.closed.Load() || l.down.Load() {
			l.lost(p, telemetry.ReasonNoRoute)
			continue
		}
		if fault == nil && l.coalesce > 1 {
			// Fast path: encode straight into the open frame.
			if !l.frOpen {
				l.openFrame()
			}
			if err := l.fr.Append(p, l.src); err != nil {
				l.m.EncodeErrors.Add(1)
				l.lost(p, telemetry.ReasonInconsistentOp)
				continue
			}
			l.frPkts++
			l.frameAppended()
			continue
		}
		buf, extra := l.encodeOne(p, fault)
		if buf == nil {
			continue
		}
		if extra > 0 {
			l.inflight.Add(1)
			time.AfterFunc(time.Duration(extra*float64(time.Second)), func() { l.write(buf) })
			continue
		}
		if l.coalesce > 1 {
			if !l.frOpen {
				l.openFrame()
			}
			if err := l.fr.AppendEncoded(*buf); err != nil {
				l.sealFrame()
				l.openFrame()
				if err := l.fr.AppendEncoded(*buf); err != nil {
					l.m.EncodeErrors.Add(1)
					putBuf(buf)
					continue
				}
			}
			putBuf(buf)
			l.frPkts++
			l.frameAppended()
			continue
		}
		// Single-datagram views: copy the encoding into the view buffer
		// so the pooled buf can be released immediately.
		vb := l.viewBuf()
		*vb = append((*vb)[:0], *buf...)
		putBuf(buf)
		l.pushView(*vb, 1)
	}
}

// openFrame starts a coalesced frame in the link-owned frame buffer —
// deliberately not a view slot, so the frame can stay open across
// calls while sealed views drain underneath it. Callers hold smu.
func (l *UDPLink) openFrame() {
	if l.frBuf == nil {
		b := make([]byte, 0, MaxDatagram)
		l.frBuf = &b
	}
	l.fr = BeginFrame((*l.frBuf)[:0])
	l.frOpen = true
	l.frPkts = 0
}

// frameAppended seals the open frame once it is full. Callers hold
// smu.
func (l *UDPLink) frameAppended() {
	if l.fr.Count() >= l.coalesce || l.fr.Size() >= maxFrameSize-MaxDatagram {
		l.sealFrame()
	}
}

// sealFrame finishes the open frame and registers it as a view,
// flushing the view batch to the socket when it reaches the syscall
// batch size. The finished frame keeps its backing buffer: the buffer
// swaps into the view slot and the slot's old buffer becomes the next
// frame's backing store, so no copy and no allocation. Callers hold
// smu.
func (l *UDPLink) sealFrame() {
	frame, err := l.fr.Finish()
	l.frOpen = false
	if err != nil {
		return
	}
	vb := l.viewBuf()
	*l.frBuf = frame
	l.frames[l.nview] = l.frBuf
	l.frBuf = vb
	l.pushView(frame, l.frPkts)
}

// viewBuf returns the encode buffer backing view slot nview, growing
// the scratch list on first use. Callers hold smu.
func (l *UDPLink) viewBuf() *[]byte {
	for len(l.frames) <= l.nview {
		b := make([]byte, 0, MaxDatagram)
		l.frames = append(l.frames, &b)
	}
	return l.frames[l.nview]
}

// pushView registers one encoded datagram carrying pkts packets.
// Callers hold smu.
func (l *UDPLink) pushView(view []byte, pkts int) {
	l.views[l.nview] = view
	l.viewPkts[l.nview] = pkts
	l.nview++
	if l.nview == l.sysBatch {
		l.writeViews()
	}
}

// sendStep is the raw-connection write callback: one sendmmsg over the
// unsent tail of the loaded batch. Stored once in sendFn so issuing it
// allocates nothing.
func (l *UDPLink) sendStep(fd uintptr) bool {
	l.m.TxSyscalls.Add(1)
	_, errno := l.io.sendStep(fd)
	if errno == syscall.EAGAIN {
		return false
	}
	l.werrno = errno
	return true
}

// writeViews writes the accumulated datagram views with as few
// syscalls as the platform allows and accounts the outcome. Callers
// hold smu.
func (l *UDPLink) writeViews() {
	if l.nview == 0 {
		return
	}
	views := l.views[:l.nview]
	pkts := l.viewPkts[:l.nview]
	l.nview = 0
	if l.io == nil {
		// No batched syscalls on this platform: one write per datagram.
		// A transient error on one datagram does not doom the batch.
		for i, v := range views {
			l.m.TxSyscalls.Add(1)
			n, err := l.conn.Write(v)
			if err != nil {
				l.m.TxErrors.Add(1)
				continue
			}
			l.m.TxDatagrams.Add(1)
			l.m.TxPackets.Add(uint64(pkts[i]))
			l.m.TxBytes.Add(uint64(n))
		}
		return
	}
	l.io.load(views)
	for l.io.done < l.io.n {
		l.werrno = 0
		err := l.rc.Write(l.sendFn)
		if err != nil || l.werrno != 0 {
			l.m.TxErrors.Add(uint64(l.io.n - l.io.done))
			break
		}
	}
	var sentPkts, sentBytes uint64
	for i := 0; i < l.io.done; i++ {
		sentPkts += uint64(pkts[i])
		sentBytes += uint64(len(views[i]))
	}
	l.m.TxDatagrams.Add(uint64(l.io.done))
	l.m.TxPackets.Add(sentPkts)
	l.m.TxBytes.Add(sentBytes)
}

// flushOpen is the flush timer's callback: seal and write whatever the
// coalescer holds so no packet waits longer than the flush interval.
func (l *UDPLink) flushOpen() {
	l.smu.Lock()
	if l.frOpen && l.fr.Count() > 0 {
		l.sealFrame()
	}
	l.writeViews()
	l.smu.Unlock()
}

// write pushes one encoded single-packet datagram to the socket and
// recycles the buffer — the deferred path for delayed fault re-sends,
// which travel as their own datagram when their timer fires.
func (l *UDPLink) write(buf *[]byte) {
	defer l.inflight.Done()
	defer putBuf(buf)
	if l.closed.Load() {
		l.m.TxLost.Add(1)
		return
	}
	n, err := l.conn.Write(*buf)
	if err != nil {
		l.m.TxErrors.Add(1)
		return
	}
	l.m.TxSyscalls.Add(1)
	l.m.TxDatagrams.Add(1)
	l.m.TxPackets.Add(1)
	l.m.TxBytes.Add(uint64(n))
}

// Close implements netsim.Wire: idempotent, safe against concurrent
// Send (packets racing a Close are counted as lost or as socket
// errors, like a link that went away mid-flight). A pending coalesced
// frame is flushed before the socket closes.
func (l *UDPLink) Close() error {
	var err error
	l.closing.Do(func() {
		l.closed.Store(true)
		l.smu.Lock()
		if l.frOpen && l.fr.Count() > 0 {
			l.sealFrame()
		}
		l.writeViews()
		l.pendTimer.Stop()
		l.smu.Unlock()
		err = l.conn.Close()
		l.inflight.Wait()
	})
	return err
}

var _ netsim.Wire = (*UDPLink)(nil)
