// Package transport moves labeled packets between router nodes over
// real sockets: a canonical binary wire codec plus a UDP link layer
// that implements the netsim.Wire contract, so the same topology specs
// that wire an in-process simulated network can wire routers across
// OS processes instead.
//
// The codec is the seam the paper draws between its two packet
// processing interfaces: the ingress interface extracts the label
// stack and packet identifier from the wire, the egress interface
// splices the modified stack back in. On the wire a packet is a small
// versioned transport header (packet id, CoS, trace context), the RFC
// 3032 label stack (top entry first, exactly as package label encodes
// it), the network-layer header, and the payload.
//
// Performance is first-class: encode appends into caller-owned (or
// pooled) buffers and decode reuses the target packet's stack and
// payload storage, so both are allocation-free at steady state — the
// codec benchmark pins 0 allocs/op.
package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"embeddedmpls/internal/label"
	"embeddedmpls/internal/packet"
)

// NodeID identifies the sending node inside a transport domain: an
// index into the topology's node table, carried in every datagram so a
// shared receive socket can attribute arrivals to the right adjacency.
type NodeID uint16

// Wire format constants.
const (
	// Version is the wire format version this package speaks. Decoding
	// rejects every other version instead of guessing.
	Version = 1

	// magic0/magic1 open every datagram — the transport-level analogue
	// of an Ethertype, so a foreign datagram hitting the port is
	// rejected before any field is trusted.
	magic0 = 0xE5
	magic1 = 0x4D

	// flagLabelled marks a datagram that carries an MPLS label stack
	// between the transport header and the network-layer header.
	flagLabelled = 1 << 0

	// flagFrame marks a coalesced frame: the datagram is not one packet
	// but a counted sequence of length-prefixed packet encodings (see
	// frame.go). The bit lives in the flags byte so a receiver can route
	// a datagram to the right decoder after reading four bytes.
	flagFrame = 1 << 7

	// headerSize is the fixed transport header: magic (2), version (1),
	// flags (1), source node (2), CoS (1), reserved (1), packet id (8),
	// trace context (8).
	headerSize = 24

	// ipHeaderSize mirrors packet.HeaderSize: src (4), dst (4), TTL
	// (1), proto (1), flow id (2), payload length (2).
	ipHeaderSize = packet.HeaderSize

	// MaxDatagram is the largest datagram the codec will produce for
	// default-pool sizing; larger payloads still encode, they just
	// bypass the steady-state buffer pool.
	MaxDatagram = 2048
)

// Codec errors.
var (
	ErrTruncated = errors.New("transport: datagram truncated")
	ErrMagic     = errors.New("transport: bad wire magic")
	ErrVersion   = errors.New("transport: unsupported wire version")
)

// EncodedSize returns the wire size of p in bytes.
func EncodedSize(p *packet.Packet) int {
	return headerSize + p.Stack.WireSize() + ipHeaderSize + len(p.Payload)
}

// AppendPacket appends the wire encoding of p, sent by node src, to dst
// and returns the extended slice. With sufficient capacity in dst it
// does not allocate. The packet's measurement bookkeeping (SeqNo as the
// packet id, SentAt as the trace context) crosses the wire so an egress
// in another process can still compute end-to-end latency.
func AppendPacket(dst []byte, p *packet.Packet, src NodeID) ([]byte, error) {
	if len(p.Payload) > 0xffff {
		return nil, fmt.Errorf("transport: payload %d exceeds the length field", len(p.Payload))
	}
	labelled := p.Labelled()
	var flags, cos byte
	if labelled {
		flags |= flagLabelled
		if top, err := p.Stack.Top(); err == nil {
			cos = byte(top.CoS)
		}
	}
	dst = append(dst, magic0, magic1, Version, flags)
	dst = binary.BigEndian.AppendUint16(dst, uint16(src))
	dst = append(dst, cos, 0)
	dst = binary.BigEndian.AppendUint64(dst, p.SeqNo)
	dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(p.SentAt))
	if labelled {
		var err error
		dst, err = p.Stack.AppendWire(dst)
		if err != nil {
			return nil, err
		}
	}
	dst = binary.BigEndian.AppendUint32(dst, uint32(p.Header.Src))
	dst = binary.BigEndian.AppendUint32(dst, uint32(p.Header.Dst))
	dst = append(dst, p.Header.TTL, p.Header.Proto)
	dst = binary.BigEndian.AppendUint16(dst, p.Header.FlowID)
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(p.Payload)))
	dst = append(dst, p.Payload...)
	return dst, nil
}

// DecodePacket parses one datagram into p, decoding the labels into p's
// embedded stack and reusing its payload storage (the allocation-free receive path), and returns the
// sending node's id. On error p's contents are unspecified; reuse it
// only for the next decode. Bytes beyond the declared payload length
// are treated as padding and dropped, like layer-2 padding.
func DecodePacket(p *packet.Packet, buf []byte) (NodeID, error) {
	if len(buf) < headerSize {
		return 0, fmt.Errorf("%w: %d bytes, want at least %d", ErrTruncated, len(buf), headerSize)
	}
	if buf[0] != magic0 || buf[1] != magic1 {
		return 0, fmt.Errorf("%w: %#02x%02x", ErrMagic, buf[0], buf[1])
	}
	if buf[2] != Version {
		return 0, fmt.Errorf("%w: %d", ErrVersion, buf[2])
	}
	flags := buf[3]
	if flags&flagFrame != 0 {
		return 0, fmt.Errorf("%w: coalesced frame in single-packet decode", ErrFrame)
	}
	src := NodeID(binary.BigEndian.Uint16(buf[4:]))
	p.SeqNo = binary.BigEndian.Uint64(buf[8:])
	p.SentAt = math.Float64frombits(binary.BigEndian.Uint64(buf[16:]))
	rest := buf[headerSize:]
	if flags&flagLabelled != 0 {
		n, err := p.Stack.DecodeWireInto(rest)
		if err != nil {
			return src, fmt.Errorf("transport: label stack: %w", err)
		}
		rest = rest[n:]
	} else {
		p.Stack.Reset()
	}
	if len(rest) < ipHeaderSize {
		return src, fmt.Errorf("%w: %d header bytes, want %d", ErrTruncated, len(rest), ipHeaderSize)
	}
	p.Header.Src = packet.Addr(binary.BigEndian.Uint32(rest))
	p.Header.Dst = packet.Addr(binary.BigEndian.Uint32(rest[4:]))
	p.Header.TTL = rest[8]
	p.Header.Proto = rest[9]
	p.Header.FlowID = binary.BigEndian.Uint16(rest[10:])
	n := int(binary.BigEndian.Uint16(rest[12:]))
	body := rest[ipHeaderSize:]
	if n > len(body) {
		return src, fmt.Errorf("%w: payload length %d exceeds %d available", ErrTruncated, n, len(body))
	}
	p.Payload = append(p.Payload[:0], body[:n]...)
	return src, nil
}

// truncation reports whether a decode error was a short read (as
// opposed to corruption of a well-sized datagram) for the receiver's
// short-read accounting.
func truncation(err error) bool {
	return errors.Is(err, ErrTruncated) || errors.Is(err, label.ErrNoBottom)
}
