// Package device assembles the full embedded MPLS device of the paper's
// Figure 6: an ingress packet processing interface that extracts the
// label stack and packet identifier from a packet, the label stack
// modifier in the middle, and an egress packet processing interface that
// splices the modified stack back. Routing functionality (package ldp)
// configures it by writing label pairs into the information base and a
// software next-hop table.
//
// The data plane transformation runs on the lsm.Behavioral functional
// model (bit-identical to the RTL, as the lsm equivalence tests prove)
// while time is accounted with the verified cycle cost model at the
// device clock (50 MHz by default): loading the stack costs the
// 3-cycles-per-entry user pushes of the ingress interface, and the update
// costs its measured search + operation tail.
package device

import (
	"errors"
	"fmt"

	"embeddedmpls/internal/infobase"
	"embeddedmpls/internal/label"
	"embeddedmpls/internal/lsm"
	"embeddedmpls/internal/packet"
	"embeddedmpls/internal/swmpls"
	"embeddedmpls/internal/telemetry"
)

// Device is one embedded MPLS forwarding engine.
type Device struct {
	mod    *lsm.Behavioral
	clock  lsm.Clock
	search lsm.SearchKind

	// The hardware information base stores only (index, label, op);
	// next-hop selection and per-FEC CoS live in these software tables,
	// keyed by the exact destination address (ingress) or the incoming
	// label (transit). The empty string means "re-examine locally", used
	// at tunnel tails.
	nextHopByDst   map[packet.Addr]string
	nextHopByLabel map[label.Label]string
	cosByDst       map[packet.Addr]label.CoS

	// TotalCycles accumulates the device cycles spent across Process
	// calls, for throughput accounting.
	TotalCycles uint64

	// drops, when set, receives one count per dropped packet. Discard
	// accounting lives here rather than in the modifier so a drop is
	// counted exactly once, wherever in the pipeline it happens.
	drops *telemetry.DropCounters
}

// Device errors.
var (
	ErrMultiPush = errors.New("device: hardware pushes one label per information base entry")
	ErrNoOp      = errors.New("device: unsupported NHLFE operation")
)

// New builds a device of the given router type (LER for edges, LSR for
// core routers — an LSR discards unlabelled packets) running at clock,
// with the paper's linear information base search.
func New(rtype lsm.RouterType, clock lsm.Clock) *Device {
	return NewWithSearch(rtype, clock, lsm.SearchLinear)
}

// NewWithSearch builds a device with the given search implementation —
// lsm.SearchCAM selects the associative-lookup ablation, whose constant
// search time is pinned against the CAM-configured RTL model.
func NewWithSearch(rtype lsm.RouterType, clock lsm.Clock, search lsm.SearchKind) *Device {
	return &Device{
		mod:            lsm.NewBehavioral(rtype),
		clock:          clock,
		search:         search,
		nextHopByDst:   make(map[packet.Addr]string),
		nextHopByLabel: make(map[label.Label]string),
		cosByDst:       make(map[packet.Addr]label.CoS),
	}
}

// Clock returns the device clock.
func (d *Device) Clock() lsm.Clock { return d.clock }

// SetTelemetry attaches the unified sink (the router.DataPlane hook): the
// trace ring goes to the modifier, which records every update; drop
// counting stays at the device level, covering the whole pipeline
// (ingress overflow, modifier discards, next-hop misses).
func (d *Device) SetTelemetry(s telemetry.Sink) {
	d.drops = s.Drops
	d.mod.SetTrace(s.Trace, s.Node)
}

// dropRes builds a drop result and feeds the attached counters.
func (d *Device) dropRes(reason swmpls.DropReason) swmpls.Result {
	if d.drops != nil {
		if r, ok := reason.Telemetry(); ok {
			d.drops.Inc(r)
		}
	}
	return swmpls.Result{Action: swmpls.Drop, Drop: reason}
}

// InstallFEC binds an exact destination address to a label push. The
// hardware's level-1 memory exact-matches the 32-bit packet identifier,
// so FECs are host addresses (prefixLen must be 32) and push exactly one
// label — both restrictions of the embedded architecture that the
// software forwarder does not share.
func (d *Device) InstallFEC(dst packet.Addr, prefixLen int, n swmpls.NHLFE) error {
	if err := n.Validate(); err != nil {
		return err
	}
	if prefixLen != 32 {
		return fmt.Errorf("device: level-1 lookups exact-match the packet identifier; prefix /%d unsupported", prefixLen)
	}
	if n.Op != label.OpPush {
		return fmt.Errorf("%w: FEC entries must push", ErrNoOp)
	}
	if len(n.PushLabels) != 1 {
		return fmt.Errorf("%w: got %d labels", ErrMultiPush, len(n.PushLabels))
	}
	// Replace semantics: the linear search returns the first match, so a
	// stale pair for the same destination would shadow the new one (and
	// break make-before-break reroutes). Remove it first.
	d.mod.InfoBase().Remove(infobase.Level1, infobase.Key(dst))
	err := d.mod.WritePair(infobase.Level1, infobase.Pair{
		Index:    infobase.Key(dst),
		NewLabel: n.PushLabels[0],
		Op:       label.OpPush,
	})
	if err != nil {
		return err
	}
	d.nextHopByDst[dst] = n.NextHop
	d.cosByDst[dst] = n.CoS
	return nil
}

// InstallILM binds an incoming label to an operation. The pair is written
// to both level 2 and level 3, because the same label can arrive as the
// top of a one-entry stack or inside a tunnel at depth two or three.
func (d *Device) InstallILM(in label.Label, n swmpls.NHLFE) error {
	if err := n.Validate(); err != nil {
		return err
	}
	if !in.Valid() || in.Reserved() {
		return fmt.Errorf("device: incoming label %d invalid or reserved", in)
	}
	var out label.Label
	switch n.Op {
	case label.OpSwap, label.OpPush:
		if len(n.PushLabels) != 1 {
			return fmt.Errorf("%w: got %d labels", ErrMultiPush, len(n.PushLabels))
		}
		out = n.PushLabels[0]
	case label.OpPop:
	default:
		return fmt.Errorf("%w: %v", ErrNoOp, n.Op)
	}
	p := infobase.Pair{Index: infobase.Key(in), NewLabel: out, Op: n.Op}
	if err := d.mod.WritePair(infobase.Level2, p); err != nil {
		return err
	}
	if err := d.mod.WritePair(infobase.Level3, p); err != nil {
		return err
	}
	d.nextHopByLabel[in] = n.NextHop
	return nil
}

// RemoveILM tears down a label binding.
func (d *Device) RemoveILM(in label.Label) {
	d.mod.InfoBase().Remove(infobase.Level2, infobase.Key(in))
	d.mod.InfoBase().Remove(infobase.Level3, infobase.Key(in))
	delete(d.nextHopByLabel, in)
}

// RemoveFEC tears down an ingress binding.
func (d *Device) RemoveFEC(dst packet.Addr, prefixLen int) {
	if prefixLen != 32 {
		return
	}
	d.mod.InfoBase().Remove(infobase.Level1, infobase.Key(dst))
	delete(d.nextHopByDst, dst)
	delete(d.cosByDst, dst)
}

// TableSizes returns the number of pairs at each information base level,
// for search-cost diagnostics.
func (d *Device) TableSizes() [infobase.NumLevels]int {
	var out [infobase.NumLevels]int
	for lv := infobase.Level1; lv <= infobase.Level3; lv++ {
		out[lv-1] = d.mod.InfoBase().Count(lv)
	}
	return out
}

// Process runs one packet through the device: ingress interface loads the
// stack into the modifier, the modifier updates it, the egress interface
// splices it back. It returns the forwarding decision and the number of
// device cycles consumed.
func (d *Device) Process(p *packet.Packet) (swmpls.Result, int) {
	// Ingress packet processing: deliver the label stack to the
	// modifier, one user push per entry (3 cycles each).
	wasLabelled := p.Labelled()
	var oldTop label.Entry
	d.mod.LoadStack(p.Stack)
	cycles := lsm.CyclesUserPush * p.Stack.Depth()
	if wasLabelled {
		oldTop, _ = p.Stack.Top()
	}

	res := d.mod.Update(lsm.UpdateRequest{
		PacketID: p.Identifier(),
		TTLIn:    p.Header.TTL,
		CoSIn:    d.cosByDst[p.Header.Dst],
	})
	cycles += lsm.UpdateCyclesFor(d.search, res)
	d.TotalCycles += uint64(cycles)

	if res.Discarded() {
		drop := res.Discard.Drop()
		// An unlabelled packet the device cannot handle — no level-1
		// match, or an LSR that only takes labelled traffic — has no
		// MPLS route; the software side may still route it by IP.
		if !wasLabelled && (res.Discard == lsm.DiscardNotFound || res.Discard == lsm.DiscardInconsistent) {
			drop = swmpls.DropNoRoute
		}
		return d.dropRes(drop), cycles
	}

	// Egress packet processing: replace the packet's stack.
	p.Stack = d.mod.Stack()

	// Next-hop selection (software table, like the routing functionality
	// the architecture assumes).
	var nh string
	var known bool
	if wasLabelled {
		nh, known = d.nextHopByLabel[oldTop.Label]
	} else {
		nh, known = d.nextHopByDst[p.Header.Dst]
	}
	if !known {
		return d.dropRes(swmpls.DropNoRoute), cycles
	}

	if res.Op == label.OpPop && p.Stack.Empty() {
		// End of the LSP: the egress interface writes the decremented
		// TTL back into the IP header (RFC 3032 TTL propagation).
		ttl := oldTop.TTL
		if ttl > 0 {
			ttl--
		}
		p.Header.TTL = ttl
		if nh == "" {
			return swmpls.Result{Action: swmpls.Deliver, Op: res.Op}, cycles
		}
		return swmpls.Result{Action: swmpls.Forward, NextHop: nh, Op: res.Op}, cycles
	}
	return swmpls.Result{Action: swmpls.Forward, NextHop: nh, Op: res.Op}, cycles
}

// Seconds converts device cycles to wall time at the device clock.
func (d *Device) Seconds(cycles int) float64 { return d.clock.Seconds(cycles) }
