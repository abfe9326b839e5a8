package label

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestPackUnpackKnownValues(t *testing.T) {
	cases := []struct {
		name string
		e    Entry
		want uint32
	}{
		{"zero", Entry{}, 0},
		{"label only", Entry{Label: 1}, 1 << 12},
		{"max label", Entry{Label: MaxLabel}, 0xfffff << 12},
		{"cos only", Entry{CoS: 7}, 7 << 9},
		{"bottom only", Entry{Bottom: true}, 1 << 8},
		{"ttl only", Entry{TTL: 255}, 255},
		{
			"paper fig 14 output",
			Entry{Label: 504, CoS: 3, Bottom: true, TTL: 63},
			504<<12 | 3<<9 | 1<<8 | 63,
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got, err := c.e.Pack()
			if err != nil {
				t.Fatalf("Pack(%v): %v", c.e, err)
			}
			if got != c.want {
				t.Errorf("Pack(%v) = %#x, want %#x", c.e, got, c.want)
			}
			if back := Unpack(got); back != c.e {
				t.Errorf("Unpack(Pack(%v)) = %v", c.e, back)
			}
		})
	}
}

func TestPackRejectsOutOfRange(t *testing.T) {
	if _, err := (Entry{Label: MaxLabel + 1}).Pack(); err == nil {
		t.Error("Pack accepted a 21-bit label")
	}
	if _, err := (Entry{CoS: 8}).Pack(); err == nil {
		t.Error("Pack accepted a 4-bit CoS")
	}
}

func TestMustPackPanicsOnBadEntry(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustPack did not panic on an out-of-range label")
		}
	}()
	Entry{Label: MaxLabel + 1}.MustPack()
}

// TestUnpackPackRoundTrip: every 32-bit word decodes to an entry that
// re-encodes to the same word.
func TestUnpackPackRoundTrip(t *testing.T) {
	f := func(w uint32) bool {
		return Unpack(w).MustPack() == w
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestReservedLabels(t *testing.T) {
	for l := Label(0); l < FirstUnreserved; l++ {
		if !l.Reserved() {
			t.Errorf("label %d should be reserved", l)
		}
	}
	if FirstUnreserved.Reserved() {
		t.Errorf("label %d should not be reserved", FirstUnreserved)
	}
	if IPv4ExplicitNull != 0 || RouterAlert != 1 || IPv6ExplicitNull != 2 || ImplicitNull != 3 {
		t.Error("reserved label constants do not match RFC 3032")
	}
}

func TestEntryString(t *testing.T) {
	e := Entry{Label: 504, CoS: 3, Bottom: true, TTL: 63}
	if got, want := e.String(), "lbl=504 cos=3 S=1 ttl=63"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

func TestStackPushPopLIFO(t *testing.T) {
	s := &Stack{}
	if !s.Empty() || s.Depth() != 0 {
		t.Fatal("zero stack should be empty")
	}
	for i := 1; i <= MaxDepth; i++ {
		if err := s.Push(Entry{Label: Label(100 * i), TTL: 64}); err != nil {
			t.Fatalf("push %d: %v", i, err)
		}
		if s.Depth() != i {
			t.Fatalf("depth = %d after %d pushes", s.Depth(), i)
		}
	}
	if err := s.Push(Entry{Label: 999}); err != ErrStackFull {
		t.Errorf("push beyond MaxDepth: err = %v, want ErrStackFull", err)
	}
	for i := MaxDepth; i >= 1; i-- {
		e, err := s.Pop()
		if err != nil {
			t.Fatalf("pop: %v", err)
		}
		if e.Label != Label(100*i) {
			t.Errorf("pop %d: label = %d, want %d", i, e.Label, 100*i)
		}
	}
	if _, err := s.Pop(); err != ErrStackEmpty {
		t.Errorf("pop on empty: err = %v, want ErrStackEmpty", err)
	}
}

func TestStackBottomBitMaintained(t *testing.T) {
	s := &Stack{}
	// Push entries with deliberately wrong S bits; Push must normalise.
	if err := s.Push(Entry{Label: 10, Bottom: false}); err != nil {
		t.Fatal(err)
	}
	if err := s.Push(Entry{Label: 20, Bottom: true}); err != nil {
		t.Fatal(err)
	}
	if !s.Consistent() {
		t.Fatalf("stack inconsistent after pushes: %v", s)
	}
	bottom, _ := s.At(0)
	top, _ := s.Top()
	if !bottom.Bottom || top.Bottom {
		t.Errorf("S bits wrong: bottom=%v top=%v", bottom, top)
	}
}

func TestStackSwapPreservesOtherFields(t *testing.T) {
	s := &Stack{}
	if err := s.Push(Entry{Label: 10, CoS: 5, TTL: 42}); err != nil {
		t.Fatal(err)
	}
	if err := s.Swap(777); err != nil {
		t.Fatal(err)
	}
	top, _ := s.Top()
	want := Entry{Label: 777, CoS: 5, Bottom: true, TTL: 42}
	if top != want {
		t.Errorf("after swap top = %v, want %v", top, want)
	}
	empty := &Stack{}
	if err := empty.Swap(1); err != ErrStackEmpty {
		t.Errorf("swap on empty: err = %v, want ErrStackEmpty", err)
	}
}

func TestStackSetTopTTL(t *testing.T) {
	s := &Stack{}
	if err := s.SetTopTTL(5); err != ErrStackEmpty {
		t.Errorf("SetTopTTL on empty: err = %v, want ErrStackEmpty", err)
	}
	_ = s.Push(Entry{Label: 10, TTL: 64})
	if err := s.SetTopTTL(63); err != nil {
		t.Fatal(err)
	}
	top, _ := s.Top()
	if top.TTL != 63 {
		t.Errorf("TTL = %d, want 63", top.TTL)
	}
}

func TestStackResetDiscardsEverything(t *testing.T) {
	s, err := NewStack(Entry{Label: 1}, Entry{Label: 2})
	if err != nil {
		t.Fatal(err)
	}
	s.Reset()
	if !s.Empty() {
		t.Error("stack not empty after Reset")
	}
	// A reset stack must be reusable.
	if err := s.Push(Entry{Label: 3}); err != nil {
		t.Fatal(err)
	}
	if top, _ := s.Top(); !top.Bottom {
		t.Error("first push after Reset should be the bottom entry")
	}
}

// TestStackCloneIsIndependent: a Stack is a value, so assignment is the
// clone; and popped slots are cleared, so equal contents compare ==.
func TestStackCloneIsIndependent(t *testing.T) {
	s, _ := NewStack(Entry{Label: 1, TTL: 9}, Entry{Label: 2, TTL: 9})
	c := s
	if _, err := c.Pop(); err != nil {
		t.Fatal(err)
	}
	if s.Depth() != 2 {
		t.Error("popping the clone changed the original")
	}
	if one, _ := NewStack(Entry{Label: 1, TTL: 9}); c != one || !c.Equal(one) {
		t.Errorf("popped clone %v differs from %v", c, one)
	}
}

// TestStackOpsDoNotAllocate pins the register-file stack at zero
// allocations for every operation, on an empty and on a full stack.
func TestStackOpsDoNotAllocate(t *testing.T) {
	full, _ := NewStack(Entry{Label: 1}, Entry{Label: 2}, Entry{Label: 3})
	for _, tc := range []struct {
		name string
		s    Stack
	}{{"empty", Stack{}}, {"full", full}} {
		var s Stack
		if n := testing.AllocsPerRun(100, func() {
			s = tc.s
			_ = s.Push(Entry{Label: 9})
			_, _ = s.Pop()
			_ = s.Swap(8)
			_, _ = s.Pop()
		}); n != 0 {
			t.Errorf("%s stack: %v allocations per Push/Pop/Swap, want 0", tc.name, n)
		}
	}
}

func TestStackAtRange(t *testing.T) {
	s, _ := NewStack(Entry{Label: 1}, Entry{Label: 2})
	if _, err := s.At(-1); err == nil {
		t.Error("At(-1) should fail")
	}
	if _, err := s.At(2); err == nil {
		t.Error("At(depth) should fail")
	}
	e, err := s.At(1)
	if err != nil || e.Label != 2 {
		t.Errorf("At(1) = %v, %v", e, err)
	}
}

func TestWireRoundTripFixed(t *testing.T) {
	s, err := NewStack(
		Entry{Label: 100, CoS: 1, TTL: 254},
		Entry{Label: 200, CoS: 2, TTL: 254},
		Entry{Label: 300, CoS: 3, TTL: 254},
	)
	if err != nil {
		t.Fatal(err)
	}
	buf, err := s.AppendWire(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(buf) != s.WireSize() || len(buf) != 12 {
		t.Fatalf("wire size = %d, want 12", len(buf))
	}
	// Top entry (label 300) must come first on the wire.
	if first := Unpack(uint32(buf[0])<<24 | uint32(buf[1])<<16 | uint32(buf[2])<<8 | uint32(buf[3])); first.Label != 300 {
		t.Errorf("first wire entry label = %d, want 300 (top first)", first.Label)
	}
	var got Stack
	n, err := got.DecodeWireInto(buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != 12 {
		t.Errorf("consumed %d bytes, want 12", n)
	}
	if !got.Equal(s) {
		t.Errorf("decoded stack %v != original %v", got, s)
	}
}

func TestDecodeWireTrailingBytesIgnored(t *testing.T) {
	s, _ := NewStack(Entry{Label: 42, TTL: 1})
	buf, _ := s.AppendWire(nil)
	buf = append(buf, 0xde, 0xad)
	var got Stack
	n, err := got.DecodeWireInto(buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != 4 {
		t.Errorf("consumed %d, want 4", n)
	}
	if top, _ := got.Top(); top.Label != 42 {
		t.Errorf("label = %d, want 42", top.Label)
	}
}

// wireOf encodes entries top-first exactly as given, S bits included.
func wireOf(topFirst ...Entry) []byte {
	var buf []byte
	for _, e := range topFirst {
		buf = binary.BigEndian.AppendUint32(buf, e.MustPack())
	}
	return buf
}

func TestDecodeWireErrors(t *testing.T) {
	mid, bot := Entry{Label: 5, TTL: 1}, Entry{Label: 6, TTL: 1, Bottom: true}
	maxDepth := fmt.Sprintf("deeper than max depth %d without bottom bit", MaxDepth)
	for _, tc := range []struct {
		name string
		buf  []byte
		is   error  // wanted via errors.Is, or
		msg  string // wanted as a substring
	}{
		{"empty buffer", nil, ErrNoBottom, ""},
		{"truncated mid-entry", wireOf(mid, mid, bot)[:10], ErrNoBottom, ""},
		{"no S bit before the end", wireOf(mid, mid), ErrNoBottom, ""},
		{"four deep without S", wireOf(mid, mid, mid, mid), nil, maxDepth},
		{"five deep without S", wireOf(mid, mid, mid, mid, mid), nil, maxDepth},
		{"four deep with S", wireOf(mid, mid, mid, bot), ErrStackFull, ""},
	} {
		s, _ := NewStack(Entry{Label: 77}, Entry{Label: 78})
		n, err := s.DecodeWireInto(tc.buf)
		switch {
		case err == nil:
			t.Errorf("%s: decoded %d bytes, want an error", tc.name, n)
		case tc.is != nil && !errors.Is(err, tc.is):
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.is)
		case tc.msg != "" && !strings.Contains(err.Error(), tc.msg):
			t.Errorf("%s: err = %v, want %q", tc.name, err, tc.msg)
		}
		if s != (Stack{}) {
			t.Errorf("%s: stack after error = %v, want empty", tc.name, s)
		}
	}
	// Three deep with S on the third is the deepest legal stack.
	var s Stack
	if n, err := s.DecodeWireInto(wireOf(mid, mid, bot)); err != nil || n != 12 || s.Depth() != 3 {
		t.Errorf("three deep: n=%d depth=%d err=%v", n, s.Depth(), err)
	}
}

// TestWireRoundTripProperty: any valid stack survives encode→decode.
func TestWireRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 500; trial++ {
		s := &Stack{}
		depth := 1 + rng.Intn(MaxDepth)
		for i := 0; i < depth; i++ {
			e := Entry{
				Label: Label(rng.Intn(int(MaxLabel) + 1)),
				CoS:   CoS(rng.Intn(8)),
				TTL:   uint8(rng.Intn(256)),
			}
			if err := s.Push(e); err != nil {
				t.Fatal(err)
			}
		}
		buf, err := s.AppendWire(nil)
		if err != nil {
			t.Fatal(err)
		}
		var got Stack
		n, err := got.DecodeWireInto(buf)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if n != len(buf) || !got.Equal(*s) {
			t.Fatalf("trial %d: round trip mismatch: %v -> %v", trial, s, got)
		}
		if !got.Consistent() {
			t.Fatalf("trial %d: decoded stack inconsistent", trial)
		}
	}
}

func TestOpString(t *testing.T) {
	cases := map[Op]string{OpNone: "none", OpPush: "push", OpPop: "pop", OpSwap: "swap", Op(9): "op(9)"}
	for op, want := range cases {
		if got := op.String(); got != want {
			t.Errorf("Op(%d).String() = %q, want %q", op, got, want)
		}
	}
	for op := Op(0); op < NumOps; op++ {
		if !op.Valid() {
			t.Errorf("op %d should be valid", op)
		}
	}
	if Op(4).Valid() {
		t.Error("op 4 should be invalid")
	}
}

func TestStackStringForms(t *testing.T) {
	s := &Stack{}
	if s.String() != "[empty]" {
		t.Errorf("empty stack String() = %q", s.String())
	}
	_ = s.Push(Entry{Label: 1, TTL: 2})
	if s.String() == "" || s.String() == "[empty]" {
		t.Errorf("non-empty stack String() = %q", s.String())
	}
}
