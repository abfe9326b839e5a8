// Package signaling implements an LDP-style label distribution
// protocol over the wire transport: per-neighbour sessions (discovery,
// initialisation, keepalive liveness) exchanging typed label messages,
// so each node learns its label bindings from its peers instead of
// computing them from a ghost copy of the whole topology.
//
// The package splits into three layers. The codec (this file) is the
// wire format — fixed-size header plus two short variable sections,
// encoded with the same zero-allocation discipline as the transport
// framing. The session FSM (session.go) runs one neighbour adjacency.
// The speaker (speaker.go) owns the sessions of one node and the
// downstream-on-demand label distribution logic on top of them.
package signaling

import (
	"errors"
	"fmt"
	"math"

	"embeddedmpls/internal/label"
	"embeddedmpls/internal/ldp"
	"embeddedmpls/internal/packet"
	"embeddedmpls/internal/transport"
)

// MsgType enumerates signaling message types.
type MsgType uint8

// Message types. Hello/Init/Keepalive drive the session FSM; the Label*
// types carry downstream-on-demand label distribution; Reroute is the
// resilience plane asking an ingress for a protection switch; Error is
// a terminal notification for a request that cannot be satisfied.
const (
	MsgHello MsgType = iota + 1
	MsgInit
	MsgKeepalive
	MsgLabelRequest
	MsgLabelMapping
	MsgLabelWithdraw
	MsgLabelRelease
	MsgReroute
	MsgError

	msgTypeEnd
)

var msgNames = [...]string{
	MsgHello:         "hello",
	MsgInit:          "init",
	MsgKeepalive:     "keepalive",
	MsgLabelRequest:  "label-request",
	MsgLabelMapping:  "label-mapping",
	MsgLabelWithdraw: "label-withdraw",
	MsgLabelRelease:  "label-release",
	MsgReroute:       "reroute",
	MsgError:         "error",
}

// String names the message type for logs and timelines.
func (t MsgType) String() string {
	if t >= 1 && t < msgTypeEnd {
		return msgNames[t]
	}
	return fmt.Sprintf("msgtype(%d)", uint8(t))
}

// Valid reports whether t is a defined message type.
func (t MsgType) Valid() bool { return t >= 1 && t < msgTypeEnd }

// Wire format constants.
const (
	// Version is the signaling wire version; every other version is
	// rejected at decode.
	Version = 1

	// magic0/magic1 open every message ("LD"), so a stray payload
	// punted to the control sink is rejected before any field is
	// trusted.
	magic0 = 0x4C
	magic1 = 0x44

	// headerSize is the fixed portion of every message. The ID bytes
	// and the route hops follow.
	headerSize = 40

	// MaxIDLen bounds the LSP identifier carried in label messages.
	MaxIDLen = 24

	// MaxRouteLen bounds the explicit route vector.
	MaxRouteLen = 255
)

// Codec errors. Decode failures carry one of these (wrapped with
// detail) so callers can drop bad messages by class.
var (
	ErrTruncated = errors.New("signaling: truncated message")
	ErrMagic     = errors.New("signaling: bad magic")
	ErrVersion   = errors.New("signaling: unsupported version")
	ErrBadField  = errors.New("signaling: bad field")
)

// Message is one signaling PDU. The field set is the union over all
// message types — session messages use only Type/Src/Hold, label
// messages the FEC/label/route block — kept flat so one reusable
// struct decodes every message with zero allocations.
type Message struct {
	Type MsgType
	// Src is the sending node.
	Src transport.NodeID
	// PHP requests penultimate-hop popping for the LSP.
	PHP bool
	// tunnel marks a label request for a hierarchical LSP: no FEC, a
	// pop-and-reexamine at the tail, and a hop other LSPs may ride.
	tunnel bool
	// Code qualifies Error messages (ErrCode* values).
	Code uint8
	// FEC is the forwarding equivalence class the label binds to.
	FEC ldp.FEC
	// CoS is stamped on ingress pushes of the LSP.
	CoS label.CoS
	// Label is the advertised binding (mapping/withdraw/release).
	Label label.Label
	// Bandwidth to reserve per hop, bits per second.
	Bandwidth float64
	// Hold is the session hold time offered in Hello/Init, seconds.
	Hold float64
	// Avoid names a link (by node pair) the receiver should route
	// around when acting on a Withdraw or Reroute. Both zero: unset.
	Avoid [2]transport.NodeID
	// IDLen and ID carry the LSP identifier (fixed array so decode
	// never allocates).
	IDLen uint8
	ID    [MaxIDLen]byte
	// Route is the LSP's explicit route, ingress first. Label requests
	// always carry it; any other label message carries it when it
	// crosses a tunnel hop, so the tunnel's transit speakers can relay
	// it.
	Route []transport.NodeID
}

// SetID stores s as the message's LSP identifier, truncating to
// MaxIDLen.
func (m *Message) SetID(s string) {
	n := copy(m.ID[:], s)
	m.IDLen = uint8(n)
}

// IDString returns the LSP identifier as a string (allocates; control
// path only).
func (m *Message) IDString() string { return string(m.ID[:m.IDLen]) }

// Error codes carried by MsgError.
const (
	ErrCodeNoRoute     uint8 = 1 // no path to the FEC
	ErrCodeNoBandwidth uint8 = 2 // admission control refused the reservation
	ErrCodeBadRequest  uint8 = 3 // malformed or unsupported request
)

// AppendMessage encodes m onto dst and returns the extended slice. The
// append-style signature keeps encoding allocation-free when the
// caller reuses its buffer.
func AppendMessage(dst []byte, m *Message) ([]byte, error) {
	if !m.Type.Valid() {
		return dst, fmt.Errorf("%w: type %d", ErrBadField, m.Type)
	}
	if int(m.IDLen) > MaxIDLen {
		return dst, fmt.Errorf("%w: id length %d > %d", ErrBadField, m.IDLen, MaxIDLen)
	}
	if len(m.Route) > MaxRouteLen {
		return dst, fmt.Errorf("%w: route length %d > %d", ErrBadField, len(m.Route), MaxRouteLen)
	}
	if m.FEC.PrefixLen < 0 || m.FEC.PrefixLen > 32 {
		return dst, fmt.Errorf("%w: prefix length %d", ErrBadField, m.FEC.PrefixLen)
	}
	dst = append(dst,
		magic0, magic1, Version, byte(m.Type),
		byte(m.Src>>8), byte(m.Src),
		m.flags(), m.Code,
		byte(m.FEC.Dst>>24), byte(m.FEC.Dst>>16), byte(m.FEC.Dst>>8), byte(m.FEC.Dst),
		byte(m.FEC.PrefixLen), byte(m.CoS),
		byte(m.Label>>24), byte(m.Label>>16), byte(m.Label>>8), byte(m.Label),
	)
	dst = appendFloat(dst, m.Bandwidth)
	dst = appendFloat(dst, m.Hold)
	dst = append(dst,
		byte(m.Avoid[0]>>8), byte(m.Avoid[0]),
		byte(m.Avoid[1]>>8), byte(m.Avoid[1]),
		m.IDLen, byte(len(m.Route)),
	)
	dst = append(dst, m.ID[:m.IDLen]...)
	for _, hop := range m.Route {
		dst = append(dst, byte(hop>>8), byte(hop))
	}
	return dst, nil
}

func appendFloat(dst []byte, v float64) []byte {
	bits := math.Float64bits(v)
	return append(dst,
		byte(bits>>56), byte(bits>>48), byte(bits>>40), byte(bits>>32),
		byte(bits>>24), byte(bits>>16), byte(bits>>8), byte(bits))
}

func readFloat(b []byte) float64 {
	bits := uint64(b[0])<<56 | uint64(b[1])<<48 | uint64(b[2])<<40 | uint64(b[3])<<32 |
		uint64(b[4])<<24 | uint64(b[5])<<16 | uint64(b[6])<<8 | uint64(b[7])
	return math.Float64frombits(bits)
}

func (m *Message) flags() byte {
	var f byte
	if m.PHP {
		f |= 1
	}
	if m.tunnel {
		f |= 2
	}
	return f
}

// DecodeMessage parses buf into m, reusing m's route storage so a
// long-lived receive-side Message never allocates. Every byte of buf
// must belong to the message; trailing garbage is an error.
func DecodeMessage(m *Message, buf []byte) error {
	if len(buf) < headerSize {
		return fmt.Errorf("%w: %d bytes < header %d", ErrTruncated, len(buf), headerSize)
	}
	if buf[0] != magic0 || buf[1] != magic1 {
		return fmt.Errorf("%w: %#02x %#02x", ErrMagic, buf[0], buf[1])
	}
	if buf[2] != Version {
		return fmt.Errorf("%w: %d", ErrVersion, buf[2])
	}
	t := MsgType(buf[3])
	if !t.Valid() {
		return fmt.Errorf("%w: type %d", ErrBadField, buf[3])
	}
	if buf[6]&^3 != 0 {
		return fmt.Errorf("%w: unknown flags %#02x", ErrBadField, buf[6])
	}
	if buf[12] > 32 {
		return fmt.Errorf("%w: prefix length %d", ErrBadField, buf[12])
	}
	idLen := int(buf[38])
	routeLen := int(buf[39])
	if idLen > MaxIDLen {
		return fmt.Errorf("%w: id length %d > %d", ErrBadField, idLen, MaxIDLen)
	}
	want := headerSize + idLen + 2*routeLen
	if len(buf) != want {
		return fmt.Errorf("%w: %d bytes, want %d", ErrTruncated, len(buf), want)
	}
	m.Type = t
	m.Src = transport.NodeID(buf[4])<<8 | transport.NodeID(buf[5])
	m.PHP = buf[6]&1 != 0
	m.tunnel = buf[6]&2 != 0
	m.Code = buf[7]
	m.FEC.Dst = packet.Addr(buf[8])<<24 | packet.Addr(buf[9])<<16 | packet.Addr(buf[10])<<8 | packet.Addr(buf[11])
	m.FEC.PrefixLen = int(buf[12])
	m.CoS = label.CoS(buf[13])
	m.Label = label.Label(buf[14])<<24 | label.Label(buf[15])<<16 | label.Label(buf[16])<<8 | label.Label(buf[17])
	m.Bandwidth = readFloat(buf[18:])
	m.Hold = readFloat(buf[26:])
	m.Avoid[0] = transport.NodeID(buf[34])<<8 | transport.NodeID(buf[35])
	m.Avoid[1] = transport.NodeID(buf[36])<<8 | transport.NodeID(buf[37])
	m.IDLen = uint8(idLen)
	copy(m.ID[:], buf[headerSize:headerSize+idLen])
	if cap(m.Route) < routeLen {
		m.Route = make([]transport.NodeID, routeLen)
	}
	m.Route = m.Route[:routeLen]
	for i := 0; i < routeLen; i++ {
		off := headerSize + idLen + 2*i
		m.Route[i] = transport.NodeID(buf[off])<<8 | transport.NodeID(buf[off+1])
	}
	return nil
}
