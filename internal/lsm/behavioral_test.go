package lsm

import (
	"testing"

	"embeddedmpls/internal/infobase"
	"embeddedmpls/internal/label"
)

func TestBehavioralUserOps(t *testing.T) {
	m := NewBehavioral(LER)
	if err := m.UserPush(label.Entry{Label: 1, TTL: 64}); err != nil {
		t.Fatal(err)
	}
	if err := m.UserPush(label.Entry{Label: 2, TTL: 64}); err != nil {
		t.Fatal(err)
	}
	e, err := m.UserPop()
	if err != nil || e.Label != 2 {
		t.Fatalf("pop = %v, %v", e, err)
	}
	if m.Stack().Depth() != 1 {
		t.Errorf("depth = %d, want 1", m.Stack().Depth())
	}
	m.Reset()
	if !m.Stack().Empty() {
		t.Error("Reset did not clear the stack")
	}
	if m.RouterType() != LER {
		t.Errorf("router type = %v, want LER", m.RouterType())
	}
}

func TestBehavioralLookupPositions(t *testing.T) {
	m := NewBehavioral(LER)
	for i := 0; i < 5; i++ {
		if err := m.WritePair(infobase.Level2, infobase.Pair{Index: infobase.Key(10 + i), NewLabel: label.Label(100 + i), Op: label.OpSwap}); err != nil {
			t.Fatal(err)
		}
	}
	lbl, op, pos, found := m.Lookup(infobase.Level2, 12)
	if !found || lbl != 102 || op != label.OpSwap || pos != 3 {
		t.Errorf("lookup 12 = (%d, %v, pos %d, %v), want (102, swap, 3, true)", lbl, op, pos, found)
	}
	_, _, pos, found = m.Lookup(infobase.Level2, 99)
	if found || pos != 5 {
		t.Errorf("miss = (pos %d, %v), want (5, false)", pos, found)
	}
	_, _, pos, found = m.Lookup(infobase.Level3, 99)
	if found || pos != 0 {
		t.Errorf("empty level miss = (pos %d, %v), want (0, false)", pos, found)
	}
}

func TestBehavioralUpdateIngressPush(t *testing.T) {
	m := NewBehavioral(LER)
	if err := m.WritePair(infobase.Level1, infobase.Pair{Index: 0x0a000001, NewLabel: 777, Op: label.OpPush}); err != nil {
		t.Fatal(err)
	}
	res := m.Update(UpdateRequest{PacketID: 0x0a000001, TTLIn: 64, CoSIn: 5})
	if res.Discarded() {
		t.Fatalf("ingress push discarded: %v", res.Discard)
	}
	top, err := m.Stack().Top()
	if err != nil {
		t.Fatal(err)
	}
	want := label.Entry{Label: 777, CoS: 5, Bottom: true, TTL: 63}
	if top != want {
		t.Errorf("pushed entry = %v, want %v", top, want)
	}
	if UpdateCycles(res) != SearchCycles(1)+CyclesPushFromIB {
		t.Errorf("cost = %d, want %d", UpdateCycles(res), SearchCycles(1)+CyclesPushFromIB)
	}
}

func TestBehavioralUpdateSwapPreservesCoS(t *testing.T) {
	m := NewBehavioral(LSR)
	_ = m.UserPush(label.Entry{Label: 42, CoS: 6, TTL: 10})
	_ = m.WritePair(infobase.Level2, infobase.Pair{Index: 42, NewLabel: 99, Op: label.OpSwap})
	res := m.Update(UpdateRequest{CoSIn: 1}) // control CoS must be ignored
	if res.Discarded() {
		t.Fatalf("swap discarded: %v", res.Discard)
	}
	top, _ := m.Stack().Top()
	if top.Label != 99 || top.CoS != 6 || top.TTL != 9 || !top.Bottom {
		t.Errorf("top = %v, want lbl=99 cos=6 ttl=9 S=1", top)
	}
}

func TestBehavioralUpdatePopToEmpty(t *testing.T) {
	m := NewBehavioral(LER)
	_ = m.UserPush(label.Entry{Label: 42, TTL: 5})
	_ = m.WritePair(infobase.Level2, infobase.Pair{Index: 42, NewLabel: 0, Op: label.OpPop})
	res := m.Update(UpdateRequest{})
	if res.Discarded() {
		t.Fatalf("egress pop discarded: %v", res.Discard)
	}
	if !m.Stack().Empty() {
		t.Error("stack not empty after egress pop")
	}
}

func TestBehavioralUpdatePopPropagatesTTL(t *testing.T) {
	m := NewBehavioral(LSR)
	_ = m.UserPush(label.Entry{Label: 10, TTL: 200})
	_ = m.UserPush(label.Entry{Label: 42, TTL: 7})
	_ = m.WritePair(infobase.Level3, infobase.Pair{Index: 42, NewLabel: 0, Op: label.OpPop})
	res := m.Update(UpdateRequest{})
	if res.Discarded() {
		t.Fatalf("pop discarded: %v", res.Discard)
	}
	top, _ := m.Stack().Top()
	// RFC 3032 TTL propagation: the exposed entry inherits the
	// decremented TTL of the removed one.
	if top.Label != 10 || top.TTL != 6 {
		t.Errorf("exposed top = %v, want lbl=10 ttl=6", top)
	}
}

func TestBehavioralUpdateDiscards(t *testing.T) {
	t.Run("not found", func(t *testing.T) {
		m := NewBehavioral(LSR)
		_ = m.UserPush(label.Entry{Label: 42, TTL: 64})
		res := m.Update(UpdateRequest{})
		if res.Discard != DiscardNotFound {
			t.Errorf("discard = %v, want not-found", res.Discard)
		}
		if !m.Stack().Empty() {
			t.Error("discard must reset the stack")
		}
	})
	t.Run("ttl expired", func(t *testing.T) {
		m := NewBehavioral(LSR)
		_ = m.UserPush(label.Entry{Label: 42, TTL: 1})
		_ = m.WritePair(infobase.Level2, infobase.Pair{Index: 42, NewLabel: 9, Op: label.OpSwap})
		if res := m.Update(UpdateRequest{}); res.Discard != DiscardTTLExpired {
			t.Errorf("discard = %v, want ttl-expired", res.Discard)
		}
	})
	t.Run("op none is inconsistent", func(t *testing.T) {
		m := NewBehavioral(LSR)
		_ = m.UserPush(label.Entry{Label: 42, TTL: 64})
		_ = m.WritePair(infobase.Level2, infobase.Pair{Index: 42, NewLabel: 9, Op: label.OpNone})
		if res := m.Update(UpdateRequest{}); res.Discard != DiscardInconsistent {
			t.Errorf("discard = %v, want inconsistent", res.Discard)
		}
	})
	t.Run("unlabelled packet at an LSR", func(t *testing.T) {
		m := NewBehavioral(LSR)
		_ = m.WritePair(infobase.Level1, infobase.Pair{Index: 1, NewLabel: 9, Op: label.OpPush})
		if res := m.Update(UpdateRequest{PacketID: 1, TTLIn: 64}); res.Discard != DiscardInconsistent {
			t.Errorf("discard = %v, want inconsistent", res.Discard)
		}
	})
	t.Run("non-push on empty stack", func(t *testing.T) {
		m := NewBehavioral(LER)
		_ = m.WritePair(infobase.Level1, infobase.Pair{Index: 1, NewLabel: 9, Op: label.OpSwap})
		if res := m.Update(UpdateRequest{PacketID: 1, TTLIn: 64}); res.Discard != DiscardInconsistent {
			t.Errorf("discard = %v, want inconsistent", res.Discard)
		}
	})
	t.Run("push beyond max depth", func(t *testing.T) {
		m := NewBehavioral(LSR)
		_ = m.UserPush(label.Entry{Label: 1, TTL: 64})
		_ = m.UserPush(label.Entry{Label: 2, TTL: 64})
		_ = m.UserPush(label.Entry{Label: 42, TTL: 64})
		_ = m.WritePair(infobase.Level3, infobase.Pair{Index: 42, NewLabel: 9, Op: label.OpPush})
		if res := m.Update(UpdateRequest{}); res.Discard != DiscardInconsistent {
			t.Errorf("discard = %v, want inconsistent", res.Discard)
		}
	})
	t.Run("ingress with zero ttl", func(t *testing.T) {
		m := NewBehavioral(LER)
		_ = m.WritePair(infobase.Level1, infobase.Pair{Index: 1, NewLabel: 9, Op: label.OpPush})
		if res := m.Update(UpdateRequest{PacketID: 1, TTLIn: 1}); res.Discard != DiscardTTLExpired {
			t.Errorf("discard = %v, want ttl-expired", res.Discard)
		}
	})
}

// TestBehavioralTunnelRoundTrip drives a 2-level tunnel end to end:
// ingress push, tunnel push, tunnel swap, tunnel pop, egress pop —
// checking the stack shape at every step.
func TestBehavioralTunnelRoundTrip(t *testing.T) {
	const dst = 0xc0a80101
	ler := NewBehavioral(LER)
	_ = ler.WritePair(infobase.Level1, infobase.Pair{Index: dst, NewLabel: 100, Op: label.OpPush})
	if res := ler.Update(UpdateRequest{PacketID: dst, TTLIn: 64, CoSIn: 2}); res.Discarded() {
		t.Fatalf("ingress: %v", res.Discard)
	}
	stack := ler.Stack()

	hop := func(name string, m *Behavioral, wantDepth int) {
		t.Helper()
		m.LoadStack(stack)
		if res := m.Update(UpdateRequest{PacketID: dst}); res.Discarded() {
			t.Fatalf("%s discarded: %v", name, res.Discard)
		}
		stack = m.Stack()
		if stack.Depth() != wantDepth {
			t.Fatalf("%s: depth = %d, want %d (%v)", name, stack.Depth(), wantDepth, stack)
		}
		if !stack.Consistent() {
			t.Fatalf("%s: inconsistent S bits: %v", name, stack)
		}
	}

	tunnelIn := NewBehavioral(LSR)
	_ = tunnelIn.WritePair(infobase.Level2, infobase.Pair{Index: 100, NewLabel: 200, Op: label.OpPush})
	hop("tunnel ingress", tunnelIn, 2)

	core := NewBehavioral(LSR)
	_ = core.WritePair(infobase.Level3, infobase.Pair{Index: 200, NewLabel: 201, Op: label.OpSwap})
	hop("tunnel core", core, 2)

	tunnelOut := NewBehavioral(LSR)
	_ = tunnelOut.WritePair(infobase.Level3, infobase.Pair{Index: 201, NewLabel: 0, Op: label.OpPop})
	hop("tunnel egress", tunnelOut, 1)

	egress := NewBehavioral(LSR)
	_ = egress.WritePair(infobase.Level2, infobase.Pair{Index: 100, NewLabel: 0, Op: label.OpPop})
	hop("egress", egress, 0)
}
