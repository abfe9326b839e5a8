// Package packet models the packets that traverse an MPLS network: a
// minimal IPv4-style header, an optional MPLS shim (the label stack
// between the layer-2 header and the network-layer payload, per RFC
// 3032), and an opaque payload. It provides the wire encoding both packet
// processing interfaces of the embedded architecture operate on: the
// ingress interface extracts the label stack and packet identifier, the
// egress interface splices the modified stack back in.
package packet

import (
	"encoding/binary"
	"errors"
	"fmt"

	"embeddedmpls/internal/label"
)

// Addr is a 32-bit network address (an IPv4 address).
type Addr uint32

// AddrFrom builds an address from dotted-quad components.
func AddrFrom(a, b, c, d byte) Addr {
	return Addr(uint32(a)<<24 | uint32(b)<<16 | uint32(c)<<8 | uint32(d))
}

// String renders the address in dotted-quad form.
func (a Addr) String() string {
	return fmt.Sprintf("%d.%d.%d.%d", byte(a>>24), byte(a>>16), byte(a>>8), byte(a))
}

// Header is the network-layer header carried by every packet. Only the
// fields the MPLS data plane touches are modelled.
type Header struct {
	Src Addr
	Dst Addr
	TTL uint8
	// Proto is a demux hint for the receiving layer-2 network.
	Proto uint8
	// FlowID distinguishes flows sharing a source/destination pair (a
	// stand-in for the port pair of a transport header).
	FlowID uint16
}

// headerSize is the wire size of the encoded Header, including the
// 16-bit payload length that lets receivers strip layer-2 padding (the
// role of the IPv4 total-length field).
const headerSize = 14

// HeaderSize is the encoded header size in bytes, exported for
// throughput and pacing arithmetic.
const HeaderSize = headerSize

// Packet is one network packet, possibly labelled.
type Packet struct {
	Header Header
	// Stack is the MPLS label stack; empty (the zero value) for an
	// unlabelled packet. It is held by value, so copying a Packet copies
	// its labels.
	Stack label.Stack
	// Payload is the application data. Only its length matters to the
	// data plane, but contents round-trip so tests can check integrity.
	Payload []byte

	// SeqNo and SentAt are measurement bookkeeping stamped by traffic
	// generators; they are not part of the wire format.
	SeqNo  uint64
	SentAt float64
}

// New builds an unlabelled packet.
func New(src, dst Addr, ttl uint8, payload []byte) *Packet {
	return &Packet{
		Header:  Header{Src: src, Dst: dst, TTL: ttl},
		Payload: payload,
	}
}

// Labelled reports whether the packet carries any MPLS labels.
func (p *Packet) Labelled() bool { return !p.Stack.Empty() }

// Identifier returns the packet identifier the embedded architecture
// searches level 1 with: for IP packets, the destination address.
func (p *Packet) Identifier() uint32 { return uint32(p.Header.Dst) }

// Size returns the wire size of the packet in bytes, including the MPLS
// shim if present.
func (p *Packet) Size() int {
	return headerSize + p.Stack.WireSize() + len(p.Payload)
}

// Clone deep-copies the packet so simulated links can fan out without
// aliasing: one struct copy (labels included) and one payload copy.
func (p *Packet) Clone() *Packet {
	q := *p
	q.Payload = append([]byte(nil), p.Payload...)
	return &q
}

// Wire encoding errors.
var (
	ErrTruncated = errors.New("packet: buffer truncated")
	ErrBadMagic  = errors.New("packet: bad encoding magic")
)

// Encoding magic bytes: one for unlabelled packets, one for packets with
// an MPLS shim — the stand-in for the layer-2 protocol identifier that
// tells a receiver whether a label stack follows (the Ethertype 0x8847
// role).
const (
	magicIP   = 0x45
	magicMPLS = 0x88
)

// Marshal encodes the packet: magic, MPLS shim (if labelled), header,
// payload.
func (p *Packet) Marshal() ([]byte, error) {
	buf := make([]byte, 0, 1+p.Size())
	if p.Labelled() {
		buf = append(buf, magicMPLS)
		var err error
		buf, err = p.Stack.AppendWire(buf)
		if err != nil {
			return nil, err
		}
	} else {
		buf = append(buf, magicIP)
	}
	buf = binary.BigEndian.AppendUint32(buf, uint32(p.Header.Src))
	buf = binary.BigEndian.AppendUint32(buf, uint32(p.Header.Dst))
	buf = append(buf, p.Header.TTL, p.Header.Proto)
	buf = binary.BigEndian.AppendUint16(buf, p.Header.FlowID)
	if len(p.Payload) > 0xffff {
		return nil, fmt.Errorf("packet: payload %d exceeds the length field", len(p.Payload))
	}
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(p.Payload)))
	buf = append(buf, p.Payload...)
	return buf, nil
}

// Unmarshal decodes a packet from buf.
func Unmarshal(buf []byte) (*Packet, error) {
	if len(buf) < 1 {
		return nil, ErrTruncated
	}
	p := &Packet{}
	rest := buf[1:]
	switch buf[0] {
	case magicIP:
	case magicMPLS:
		n, err := p.Stack.DecodeWireInto(rest)
		if err != nil {
			return nil, err
		}
		rest = rest[n:]
	default:
		return nil, fmt.Errorf("%w: %#x", ErrBadMagic, buf[0])
	}
	if len(rest) < headerSize {
		return nil, ErrTruncated
	}
	p.Header.Src = Addr(binary.BigEndian.Uint32(rest))
	p.Header.Dst = Addr(binary.BigEndian.Uint32(rest[4:]))
	p.Header.TTL = rest[8]
	p.Header.Proto = rest[9]
	p.Header.FlowID = binary.BigEndian.Uint16(rest[10:])
	n := int(binary.BigEndian.Uint16(rest[12:]))
	body := rest[headerSize:]
	if n > len(body) {
		return nil, fmt.Errorf("%w: payload length %d exceeds %d available", ErrTruncated, n, len(body))
	}
	// Anything beyond the declared length is layer-2 padding; drop it.
	p.Payload = append([]byte(nil), body[:n]...)
	return p, nil
}

// String summarises the packet for logs and test failures.
func (p *Packet) String() string {
	lbl := "unlabelled"
	if p.Labelled() {
		lbl = p.Stack.String()
	}
	return fmt.Sprintf("pkt{%s->%s ttl=%d flow=%d %s %dB}",
		p.Header.Src, p.Header.Dst, p.Header.TTL, p.Header.FlowID, lbl, len(p.Payload))
}
