package lsm

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"embeddedmpls/internal/infobase"
	"embeddedmpls/internal/label"
)

// opScript is a random operation sequence for property testing,
// generated by its Generate method so testing/quick can drive whole
// scripts through the behavioral model.
type opScript struct {
	rtype RouterType
	steps []scriptStep
}

type scriptStep struct {
	kind  int // 0 push, 1 pop, 2 write, 3 update
	entry label.Entry
	lv    infobase.Level
	pair  infobase.Pair
	req   UpdateRequest
}

// Generate implements quick.Generator.
func (opScript) Generate(r *rand.Rand, size int) reflect.Value {
	s := opScript{rtype: RouterType(r.Intn(2))}
	n := 4 + r.Intn(size+8)
	for i := 0; i < n; i++ {
		st := scriptStep{kind: r.Intn(4)}
		switch st.kind {
		case 0:
			st.entry = label.Entry{
				Label: label.Label(r.Intn(1 << 20)),
				CoS:   label.CoS(r.Intn(8)),
				TTL:   uint8(r.Intn(256)),
			}
		case 2:
			st.lv = infobase.Level(1 + r.Intn(3))
			st.pair = infobase.Pair{
				Index:    infobase.Key(r.Intn(64)),
				NewLabel: label.Label(r.Intn(1 << 20)),
				Op:       label.Op(r.Intn(4)),
			}
		case 3:
			st.req = UpdateRequest{
				PacketID: uint32(r.Intn(64)),
				TTLIn:    uint8(r.Intn(256)),
				CoSIn:    label.CoS(r.Intn(8)),
			}
		}
		s.steps = append(s.steps, st)
	}
	return reflect.ValueOf(s)
}

// TestBehavioralInvariantsUnderRandomScripts checks that no operation
// sequence can ever violate the structural invariants of the modifier:
// stack depth bounded by the hardware's register count, exactly one
// bottom-of-stack bit, discards always resetting the stack, and the
// search position always within the level occupancy.
func TestBehavioralInvariantsUnderRandomScripts(t *testing.T) {
	prop := func(s opScript) bool {
		m := NewBehavioral(s.rtype)
		for _, st := range s.steps {
			switch st.kind {
			case 0:
				_ = m.UserPush(st.entry) // may legitimately fail when full
			case 1:
				_, _ = m.UserPop() // may legitimately fail when empty
			case 2:
				_ = m.WritePair(st.lv, st.pair) // may fail when full
			case 3:
				lv := infobase.LevelForDepth(m.Stack().Depth())
				res := m.Update(st.req)
				if res.Discarded() && !m.Stack().Empty() {
					t.Logf("discard left a stack: %v", m.Stack())
					return false
				}
				if res.SearchPos < 0 || res.SearchPos > m.InfoBase().Count(lv) {
					t.Logf("search position %d outside level occupancy %d",
						res.SearchPos, m.InfoBase().Count(lv))
					return false
				}
				if UpdateCycles(res) < SearchCycles(res.SearchPos) {
					t.Logf("update cheaper than its own search")
					return false
				}
			}
			if m.Stack().Depth() > label.MaxDepth {
				t.Logf("stack deeper than the hardware: %v", m.Stack())
				return false
			}
			if !m.Stack().Consistent() {
				t.Logf("bottom-bit invariant broken: %v", m.Stack())
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestUpdateTTLMonotonicity: any packet that survives an update carries a
// strictly smaller TTL on top than the entry it replaced (or the
// control-path TTL at ingress) — the per-hop decrement can never be
// skipped or doubled.
func TestUpdateTTLMonotonicity(t *testing.T) {
	prop := func(ttl uint8, opSel uint8, ingress bool) bool {
		m := NewBehavioral(LER)
		op := label.Op(1 + opSel%3)
		var before uint8
		if ingress {
			op = label.OpPush
			_ = m.WritePair(infobase.Level1, infobase.Pair{Index: 1, NewLabel: 500, Op: op})
			before = ttl
		} else {
			_ = m.WritePair(infobase.Level2, infobase.Pair{Index: 42, NewLabel: 500, Op: op})
			if err := m.UserPush(label.Entry{Label: 42, TTL: ttl}); err != nil {
				return false
			}
			before = ttl
		}
		res := m.Update(UpdateRequest{PacketID: 1, TTLIn: ttl})
		if res.Discarded() {
			// Only legitimate for an expiring TTL.
			return before <= 1 && res.Discard == DiscardTTLExpired
		}
		if m.Stack().Empty() {
			return op == label.OpPop
		}
		top, _ := m.Stack().Top()
		return top.TTL == before-1
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestLookupNeverMutates: information base lookups are pure — any
// sequence of lookups leaves the stack and the tables untouched.
func TestLookupNeverMutates(t *testing.T) {
	prop := func(keys []uint32) bool {
		m := NewBehavioral(LSR)
		_ = m.WritePair(infobase.Level2, infobase.Pair{Index: 7, NewLabel: 8, Op: label.OpSwap})
		_ = m.UserPush(label.Entry{Label: 1, TTL: 9})
		beforeStack := m.Stack()
		beforeCount := m.InfoBase().Count(infobase.Level2)
		for _, k := range keys {
			lv := infobase.Level(1 + k%3)
			m.Lookup(lv, infobase.Key(k%128))
		}
		return m.Stack().Equal(beforeStack) && m.InfoBase().Count(infobase.Level2) == beforeCount
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}
