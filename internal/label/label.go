// Package label implements MPLS labels, label stack entries and label
// stacks following the generic label format of RFC 3032 ("MPLS Label Stack
// Encoding"), which is the 32-bit layout shown in Figure 5 of Peterkin &
// Ionescu, "Embedded MPLS Architecture" (2005):
//
//	| label (20 bits) | CoS (3 bits) | S (1 bit) | TTL (8 bits) |
//
// The paper calls the 3 experimental bits "Class of Service" (CoS); RFC 3032
// calls the same field "Exp". The S bit marks the bottom entry of the stack,
// and the TTL is decremented at every label switch router.
package label

import (
	"errors"
	"fmt"
)

// Label is a 20-bit MPLS label value.
type Label uint32

// MaxLabel is the largest encodable label value (2^20 - 1).
const MaxLabel Label = 1<<20 - 1

// Reserved label values defined by RFC 3032 §2.1. Values 4-15 are reserved
// for future use; an information base must never hand them out.
const (
	IPv4ExplicitNull Label = 0 // pop and forward as IPv4
	RouterAlert      Label = 1 // deliver to the local software path
	IPv6ExplicitNull Label = 2 // pop and forward as IPv6
	ImplicitNull     Label = 3 // signalled only, never appears on the wire
)

// FirstUnreserved is the smallest label value an allocator may assign.
const FirstUnreserved Label = 16

// ErrLabelSpaceExhausted is what a label allocator returns once it has
// handed out MaxLabel: a larger value would not fit on the wire.
var ErrLabelSpaceExhausted = errors.New("label: 20-bit label space exhausted")

// Reserved reports whether l is one of the reserved label values (0-15).
func (l Label) Reserved() bool { return l < FirstUnreserved }

// Valid reports whether l fits in 20 bits.
func (l Label) Valid() bool { return l <= MaxLabel }

// CoS is the 3-bit class-of-service field of a label stack entry.
type CoS uint8

// MaxCoS is the largest encodable CoS value.
const MaxCoS CoS = 7

// Valid reports whether c fits in 3 bits.
func (c CoS) Valid() bool { return c <= MaxCoS }

// Entry is one 32-bit label stack entry.
type Entry struct {
	Label  Label
	CoS    CoS
	Bottom bool  // S bit: set only on the bottom-of-stack entry
	TTL    uint8 // time to live, decremented per hop
}

// Bit layout of the packed 32-bit entry, most significant bits first.
const (
	labelShift = 12
	cosShift   = 9
	bottomBit  = 1 << 8
	ttlMask    = 0xff
)

// ErrFieldRange reports an entry field that does not fit its wire width.
var ErrFieldRange = errors.New("label: field out of range")

// Pack encodes the entry into its 32-bit wire form. Fields that exceed
// their widths are an error rather than being silently truncated, because a
// truncated label would silently steer the packet onto a different LSP.
func (e Entry) Pack() (uint32, error) {
	if !e.Label.Valid() {
		return 0, fmt.Errorf("%w: label %d exceeds 20 bits", ErrFieldRange, e.Label)
	}
	if !e.CoS.Valid() {
		return 0, fmt.Errorf("%w: CoS %d exceeds 3 bits", ErrFieldRange, e.CoS)
	}
	w := uint32(e.Label)<<labelShift | uint32(e.CoS)<<cosShift | uint32(e.TTL)
	if e.Bottom {
		w |= bottomBit
	}
	return w, nil
}

// MustPack is Pack for entries known to be in range; it panics otherwise.
func (e Entry) MustPack() uint32 {
	w, err := e.Pack()
	if err != nil {
		panic(err)
	}
	return w
}

// Unpack decodes a 32-bit wire word into an Entry. Every 32-bit pattern is
// a valid entry, so Unpack cannot fail.
func Unpack(w uint32) Entry {
	return Entry{
		Label:  Label(w >> labelShift),
		CoS:    CoS(w >> cosShift & 0x7),
		Bottom: w&bottomBit != 0,
		TTL:    uint8(w & ttlMask),
	}
}

// String renders the entry in the form used throughout the test suite and
// the trace tooling, e.g. "lbl=504 cos=3 S=1 ttl=63".
func (e Entry) String() string {
	s := 0
	if e.Bottom {
		s = 1
	}
	return fmt.Sprintf("lbl=%d cos=%d S=%d ttl=%d", e.Label, e.CoS, s, e.TTL)
}
