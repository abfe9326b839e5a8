package lsm

import (
	"fmt"

	"embeddedmpls/internal/infobase"
	"embeddedmpls/internal/label"
	"embeddedmpls/internal/telemetry"
)

// Behavioral is the functional reference model of the label stack
// modifier: the same operations and discard rules as the cycle-accurate
// HW model, without the clock. It is the oracle the HW is property-tested
// against, and the data plane the network simulator runs (using the cost
// model for timing).
type Behavioral struct {
	ib    infobase.Store
	stack label.Stack
	rtype RouterType

	trace     *telemetry.Ring
	traceNode string
}

// NewBehavioral returns a modifier with an empty stack and the paper's
// linear-search information base.
func NewBehavioral(rtype RouterType) *Behavioral {
	return NewBehavioralWithBase(rtype, infobase.New())
}

// NewBehavioralWithBase returns a modifier over the given information
// base — the hook for running the LSM against an indexed store or a
// non-default geometry. Note the modifier's SearchPos cost accounting
// reproduces the linear scan regardless of the store's internal
// structure: the cycle model prices the paper's hardware, not the Go
// lookup.
func NewBehavioralWithBase(rtype RouterType, ib infobase.Store) *Behavioral {
	return &Behavioral{
		ib:    ib,
		rtype: rtype,
	}
}

// InfoBase exposes the modifier's information base so routing software
// ("routing functionality" in the paper's architecture) can populate it.
func (m *Behavioral) InfoBase() infobase.Store { return m.ib }

// Stack returns a copy of the current label stack.
func (m *Behavioral) Stack() label.Stack { return m.stack }

// RouterType returns the configured router type.
func (m *Behavioral) RouterType() RouterType { return m.rtype }

// SetTrace attaches a label-operation trace ring: every Update records
// the applied operation (or the discard, with its mapped telemetry
// reason) under the given node name. A nil ring detaches.
func (m *Behavioral) SetTrace(r *telemetry.Ring, node string) {
	m.trace = r
	m.traceNode = node
}

// Reset clears the label stack (the information base is preserved, as in
// the hardware where reset clears the data path registers but routing
// software owns table contents; use InfoBase().Clear() for a full wipe).
func (m *Behavioral) Reset() { m.stack.Reset() }

// LoadStack replaces the stack with s: the ingress interface delivering a
// packet's stack, equivalent to Reset and one UserPush per entry, bottom
// first.
func (m *Behavioral) LoadStack(s label.Stack) { m.stack = s }

// UserPush pushes e directly onto the stack ("push from external user").
func (m *Behavioral) UserPush(e label.Entry) error { return m.stack.Push(e) }

// UserPop pops the top entry directly ("pop from external user").
func (m *Behavioral) UserPop() (label.Entry, error) { return m.stack.Pop() }

// WritePair stores a pair at the given level of the information base.
func (m *Behavioral) WritePair(lv infobase.Level, p infobase.Pair) error {
	return m.ib.Write(lv, p)
}

// Lookup searches the information base directly (the figures' "lookup"
// command). It returns the found label/operation, the 1-based position of
// the match (or the scanned count on a miss) and whether it matched.
func (m *Behavioral) Lookup(lv infobase.Level, key infobase.Key) (label.Label, label.Op, int, bool) {
	lbl, op, found := m.ib.Lookup(lv, key)
	pos := m.searchPos(lv, key, found)
	return lbl, op, pos, found
}

// ReadPair reads the stored pair at address i of level lv (the
// management read-out path).
func (m *Behavioral) ReadPair(lv infobase.Level, i int) (infobase.Pair, error) {
	entries := m.ib.Entries(lv)
	if i < 0 || i >= len(entries) {
		return infobase.Pair{}, fmt.Errorf("lsm: no pair at level %d address %d", lv, i)
	}
	return entries[i], nil
}

// searchPos reproduces the linear search cost: the 1-based index of the
// first match, or the full level count for a miss.
func (m *Behavioral) searchPos(lv infobase.Level, key infobase.Key, found bool) int {
	if !found {
		return m.ib.Count(lv)
	}
	for i, p := range m.ib.Entries(lv) {
		if p.Index == key {
			return i + 1
		}
	}
	return m.ib.Count(lv)
}

// Update performs the full packet-driven label stack update, the
// operation the label stack interface state machine of the paper's
// Figure 9 implements:
//
//  1. Search the information base at the level selected by the current
//     stack depth, keyed by the packet identifier (empty stack) or the
//     top label. No match: discard.
//  2. Remove the top entry and decrement the TTL (for an empty stack the
//     TTL comes from the control path instead). Expired TTL: discard.
//  3. Verify the stored operation is consistent with the stack state;
//     inconsistent: discard.
//  4. Apply it: pop rewrites the new top's TTL; swap pushes the new
//     label with the old entry's CoS; push re-pushes the old entry and
//     then the new label on top.
//
// Discarding resets the label stack, which is how the hardware marks the
// packet as dropped.
func (m *Behavioral) Update(req UpdateRequest) UpdateResult {
	depth := m.stack.Depth()
	lv := infobase.LevelForDepth(depth)
	key := infobase.Key(req.PacketID)
	if depth > 0 {
		top, _ := m.stack.Top()
		key = infobase.Key(top.Label)
	}

	newLbl, op, found := m.ib.Lookup(lv, key)
	res := UpdateResult{Op: op, NewLabel: newLbl, SearchPos: m.searchPos(lv, key, found)}
	if !found {
		res.Discard = DiscardNotFound
		m.stack.Reset()
		m.traceDiscard(lv, uint32(key), res.Discard)
		return res
	}

	// Remove-top / update-TTL phase.
	hadTop := depth > 0
	var old label.Entry
	ttl := req.TTLIn
	cos := req.CoSIn
	if hadTop {
		old, _ = m.stack.Pop()
		ttl = old.TTL
		cos = old.CoS
	}
	if ttl > 0 {
		ttl--
	}

	// Verify phase.
	switch {
	case ttl == 0:
		res.Discard = DiscardTTLExpired
	case op == label.OpNone:
		res.Discard = DiscardInconsistent
	case !hadTop && m.rtype == LSR:
		// A core LSR only handles labelled packets; an empty stack means
		// the packet should never have reached it.
		res.Discard = DiscardInconsistent
	case !hadTop && op != label.OpPush:
		// Only a push makes sense on an empty stack (LER ingress).
		res.Discard = DiscardInconsistent
	case op == label.OpPush && m.stack.Depth()+pushGrowth(hadTop) > label.MaxDepth:
		res.Discard = DiscardInconsistent
	}
	if res.Discarded() {
		m.stack.Reset()
		m.traceDiscard(lv, uint32(key), res.Discard)
		return res
	}

	// Apply phase. Push errors are impossible after verification, but a
	// failure here would mean the verifier and the stack disagree, so
	// surface it loudly rather than corrupt the packet.
	switch op {
	case label.OpPop:
		if !m.stack.Empty() {
			mustOK(m.stack.SetTopTTL(ttl))
		}
	case label.OpSwap:
		mustOK(m.stack.Push(label.Entry{Label: newLbl, CoS: cos, TTL: ttl}))
	case label.OpPush:
		if hadTop {
			old.TTL = ttl
			mustOK(m.stack.Push(old))
		}
		mustOK(m.stack.Push(label.Entry{Label: newLbl, CoS: cos, TTL: ttl}))
	}
	if m.trace != nil {
		// telemetry.TraceOp values mirror label.Op numerically.
		m.trace.RecordOp(m.traceNode, telemetry.TraceOp(op), uint8(lv), uint32(newLbl))
	}
	return res
}

// traceDiscard records a discard in the attached trace ring, mapping
// the LSM reason into the telemetry taxonomy.
func (m *Behavioral) traceDiscard(lv infobase.Level, key uint32, d DiscardReason) {
	if m.trace == nil {
		return
	}
	if reason, ok := d.Telemetry(); ok {
		m.trace.RecordDiscard(m.traceNode, uint8(lv), key, reason)
	}
}

// pushGrowth is how many entries a push operation adds back onto the
// stack after the top was removed: the old entry plus the new one, or
// just the new one at an empty-stack ingress.
func pushGrowth(hadTop bool) int {
	if hadTop {
		return 2
	}
	return 1
}

func mustOK(err error) {
	if err != nil {
		panic("lsm: stack operation failed after verification: " + err.Error())
	}
}
