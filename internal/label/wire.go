package label

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
)

// EntrySize is the wire size of one label stack entry in bytes.
const EntrySize = 4

// ErrNoBottom is the decode error for a buffer that ends before a
// bottom-of-stack entry.
var ErrNoBottom = errors.New("label: stack encoding has no bottom-of-stack entry")

// AppendWire appends the stack in wire order (top entry first, as RFC 3032
// lays entries after the layer-2 header) to dst and returns the extended
// slice. An empty stack appends nothing.
func (s Stack) AppendWire(dst []byte) ([]byte, error) {
	for i := int(s.n) - 1; i >= 0; i-- {
		w, err := s.entries[i].Pack()
		if err != nil {
			return nil, err
		}
		dst = binary.BigEndian.AppendUint32(dst, w)
	}
	return dst, nil
}

// WireSize returns the encoded size of the stack in bytes.
func (s Stack) WireSize() int { return int(s.n) * EntrySize }

// DecodeWireInto parses a label stack from the front of buf into s and
// returns the number of bytes consumed. Entries are consumed until the
// one with the S bit set; the bytes after it are not looked at. It fails
// with ErrNoBottom when buf ends before a bottom-of-stack entry, and with
// ErrStackFull when the bottom entry is deeper than MaxDepth. On error s
// is left empty.
func (s *Stack) DecodeWireInto(buf []byte) (int, error) {
	*s = Stack{}
	var st Stack
	for n := 0; ; n++ {
		off := n * EntrySize
		if off+EntrySize > len(buf) {
			return 0, fmt.Errorf("%w (offset %d)", ErrNoBottom, off)
		}
		e := Unpack(binary.BigEndian.Uint32(buf[off:]))
		if n == MaxDepth {
			if e.Bottom {
				return 0, ErrStackFull
			}
			return 0, fmt.Errorf("label: wire stack deeper than max depth %d without bottom bit", MaxDepth)
		}
		// Wire order is top-first; storage is bottom-first, so the
		// entries are reversed once the bottom is found. Only the
		// bottom entry carries S, so the invariant holds as decoded.
		st.entries[n] = e
		if e.Bottom {
			st.n = uint8(n + 1)
			slices.Reverse(st.entries[:st.n])
			*s = st
			return off + EntrySize, nil
		}
	}
}
