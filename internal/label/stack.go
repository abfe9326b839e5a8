package label

import (
	"errors"
	"fmt"
)

// MaxDepth is the deepest label stack the embedded architecture supports.
// The paper (after [5]) observes that practical MPLS networks rarely nest
// more than two or three LSP levels, and sizes its information base with
// three memory levels accordingly.
const MaxDepth = 3

// Stack is an MPLS label stack. The top of the stack is the entry that a
// router examines; on the wire the top entry appears first (closest to the
// layer-2 header). The zero value is an empty, usable stack.
//
// Stack is a value: MaxDepth entry registers and an item count, the
// register file of the paper's data path (Figs. 12-13). Assigning a
// Stack copies it; nothing is shared and nothing is allocated. Slots
// above the count are always zero, so two stacks are equal exactly when
// they compare equal with ==.
//
// Stack enforces the RFC 3032 invariant that exactly the bottom entry has
// its S bit set: Push and Pop maintain the bits, so callers never set
// Entry.Bottom themselves (it is overwritten).
type Stack struct {
	// entries[0] is the bottom of the stack, entries[n-1] the top.
	entries [MaxDepth]Entry
	n       uint8
}

// Stack manipulation errors.
var (
	ErrStackEmpty = errors.New("label: stack is empty")
	ErrStackFull  = errors.New("label: stack exceeds max depth")
)

// NewStack builds a stack from bottom to top, normalising S bits.
func NewStack(bottomToTop ...Entry) (Stack, error) {
	var s Stack
	for _, e := range bottomToTop {
		if err := s.Push(e); err != nil {
			return Stack{}, err
		}
	}
	return s, nil
}

// Depth returns the number of entries on the stack.
func (s Stack) Depth() int { return int(s.n) }

// Empty reports whether the stack has no entries.
func (s Stack) Empty() bool { return s.n == 0 }

// Top returns the top entry. It fails on an empty stack.
func (s Stack) Top() (Entry, error) {
	if s.n == 0 {
		return Entry{}, ErrStackEmpty
	}
	return s.entries[s.n-1], nil
}

// Push adds e on top of the stack. The S bit of e is forced: set when the
// stack was empty, clear otherwise. Pushing beyond MaxDepth fails — the
// hardware data path has registers for only MaxDepth entries.
func (s *Stack) Push(e Entry) error {
	if s.n >= MaxDepth {
		return ErrStackFull
	}
	e.Bottom = s.n == 0
	s.entries[s.n] = e
	s.n++
	return nil
}

// Pop removes and returns the top entry. The next entry, if any, keeps its
// S bit (it was already correct by construction).
func (s *Stack) Pop() (Entry, error) {
	if s.n == 0 {
		return Entry{}, ErrStackEmpty
	}
	s.n--
	e := s.entries[s.n]
	s.entries[s.n] = Entry{}
	return e, nil
}

// Swap replaces the top entry's label with lbl, leaving CoS, S and TTL
// untouched. The TTL adjustment is the caller's job (the label stack
// modifier decrements it before swapping).
func (s *Stack) Swap(lbl Label) error {
	if s.n == 0 {
		return ErrStackEmpty
	}
	s.entries[s.n-1].Label = lbl
	return nil
}

// SetTopTTL overwrites the TTL of the top entry.
func (s *Stack) SetTopTTL(ttl uint8) error {
	if s.n == 0 {
		return ErrStackEmpty
	}
	s.entries[s.n-1].TTL = ttl
	return nil
}

// At returns the entry at depth i, where 0 is the bottom of the stack.
func (s Stack) At(i int) (Entry, error) {
	if i < 0 || i >= int(s.n) {
		return Entry{}, fmt.Errorf("label: no stack entry at depth %d (depth %d)", i, s.n)
	}
	return s.entries[i], nil
}

// Reset empties the stack. The label stack modifier uses this to discard a
// packet: a packet whose stack has been reset is dropped.
func (s *Stack) Reset() { *s = Stack{} }

// Consistent verifies the S-bit invariant: every entry except the bottom
// has S clear, and the bottom (if any) has S set.
func (s Stack) Consistent() bool {
	for i, e := range s.entries[:s.n] {
		if e.Bottom != (i == 0) {
			return false
		}
	}
	return true
}

// Equal reports whether two stacks hold identical entries.
func (s Stack) Equal(o Stack) bool { return s == o }

// String renders the stack top-first, e.g. "[top lbl=7 ... | lbl=3 ...]".
func (s Stack) String() string {
	if s.n == 0 {
		return "[empty]"
	}
	out := "["
	for i := int(s.n) - 1; i >= 0; i-- {
		if i < int(s.n)-1 {
			out += " | "
		}
		out += s.entries[i].String()
	}
	return out + "]"
}
