package transport

import (
	"fmt"
	"sync"
	"sync/atomic"

	"embeddedmpls/internal/telemetry"
)

// Metrics is the per-link (or per-node, when shared) accounting of the
// transport plane. All counters are atomic, so links and receivers
// update them from their own goroutines while a registry scrapes.
type Metrics struct {
	// TxPackets/TxBytes count packets (and their wire bytes) written to
	// the socket; with frame coalescing one datagram carries several
	// packets, so TxDatagrams counts the datagrams and TxSyscalls the
	// send syscalls — batching is working when syscalls < datagrams <=
	// packets. TxErrors counts failed socket writes (per datagram);
	// TxLost counts packets discarded before the socket (link down or
	// closed, fault verdict).
	TxPackets   atomic.Uint64
	TxBytes     atomic.Uint64
	TxDatagrams atomic.Uint64
	TxSyscalls  atomic.Uint64
	TxErrors    atomic.Uint64
	TxLost      atomic.Uint64
	// EncodeErrors counts packets the codec refused to encode.
	EncodeErrors atomic.Uint64
	// RxPackets counts packets decoded from arrivals; RxBytes,
	// RxDatagrams and RxSyscalls mirror the send-side split for the
	// receive direction (RxBytes counts datagram bytes read, decodable
	// or not).
	RxPackets   atomic.Uint64
	RxBytes     atomic.Uint64
	RxDatagrams atomic.Uint64
	RxSyscalls  atomic.Uint64
	// DecodeErrors counts datagrams (or frame segments) that failed to
	// decode; ShortReads is the subset that were truncated rather than
	// corrupted.
	DecodeErrors atomic.Uint64
	ShortReads   atomic.Uint64
}

// SyscallsPerPacket reports the combined send+receive syscall cost per
// delivered packet, which proves batching is actually batching (the
// benchmark splits it by direction). Zero when nothing moved.
func (m *Metrics) SyscallsPerPacket() float64 {
	pkts := m.TxPackets.Load() + m.RxPackets.Load()
	if pkts == 0 {
		return 0
	}
	return float64(m.TxSyscalls.Load()+m.RxSyscalls.Load()) / float64(pkts)
}

// bufPool recycles encode buffers so steady-state sends allocate
// nothing. Buffers that had to grow past MaxDatagram are pooled at
// their grown size — a node forwarding jumbo payloads settles at the
// larger size instead of reallocating per packet.
var bufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, MaxDatagram)
		return &b
	},
}

func getBuf() *[]byte  { return bufPool.Get().(*[]byte) }
func putBuf(b *[]byte) { *b = (*b)[:0]; bufPool.Put(b) }

// Register wires the metrics into a telemetry registry under
// mpls_transport_* series with the given labels (typically
// {"node": ..., "link": ...}). Values are read live at scrape time.
func (m *Metrics) Register(reg *telemetry.Registry, labels telemetry.Labels) {
	counter := func(name, help string, v *atomic.Uint64) {
		reg.Counter(name, help, labels, v.Load)
	}
	counter("mpls_transport_tx_packets_total", "Packets written to transport sockets.", &m.TxPackets)
	counter("mpls_transport_tx_bytes_total", "Bytes written to transport sockets.", &m.TxBytes)
	counter("mpls_transport_tx_datagrams_total", "Datagrams written to transport sockets (coalesced frames count once).", &m.TxDatagrams)
	counter("mpls_transport_tx_syscalls_total", "Send syscalls issued (sendmmsg batches count once).", &m.TxSyscalls)
	counter("mpls_transport_tx_errors_total", "Failed transport socket writes.", &m.TxErrors)
	counter("mpls_transport_lost_packets_total", "Packets discarded before the socket (link down, closed, or fault).", &m.TxLost)
	counter("mpls_transport_encode_errors_total", "Packets the wire codec refused to encode.", &m.EncodeErrors)
	counter("mpls_transport_rx_packets_total", "Packets decoded from transport sockets.", &m.RxPackets)
	counter("mpls_transport_rx_bytes_total", "Bytes received on transport sockets.", &m.RxBytes)
	counter("mpls_transport_rx_datagrams_total", "Datagrams read from transport sockets.", &m.RxDatagrams)
	counter("mpls_transport_rx_syscalls_total", "Receive syscalls issued (recvmmsg batches count once).", &m.RxSyscalls)
	counter("mpls_transport_decode_errors_total", "Datagrams or frame segments that failed to decode (wire-decode drops).", &m.DecodeErrors)
	counter("mpls_transport_short_reads_total", "Decode failures caused by truncated datagrams.", &m.ShortReads)
}

// String summarises the counters for logs.
func (m *Metrics) String() string {
	return fmt.Sprintf("transport{tx=%d/%dB dgram=%d sys=%d txerr=%d lost=%d rx=%d/%dB dgram=%d sys=%d decerr=%d short=%d}",
		m.TxPackets.Load(), m.TxBytes.Load(), m.TxDatagrams.Load(), m.TxSyscalls.Load(),
		m.TxErrors.Load(), m.TxLost.Load(),
		m.RxPackets.Load(), m.RxBytes.Load(), m.RxDatagrams.Load(), m.RxSyscalls.Load(),
		m.DecodeErrors.Load(), m.ShortReads.Load())
}
