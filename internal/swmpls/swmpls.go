// Package swmpls is a software MPLS forwarder in the style of RFC 3031:
// an FTN (FEC-to-NHLFE map, longest-prefix match on the destination
// address) for unlabelled packets and an ILM (incoming label map) for
// labelled ones, both hash/trie based.
//
// It is the baseline the paper argues against — "most existing MPLS
// solutions are entirely software based" — so the benchmark harness runs
// the same workloads through this forwarder and through the embedded
// device's cycle model to compare per-packet label operation costs.
package swmpls

import (
	"errors"
	"fmt"

	"embeddedmpls/internal/label"
	"embeddedmpls/internal/packet"
	"embeddedmpls/internal/telemetry"
)

// NHLFE is a next hop label forwarding entry: where the packet goes next
// and what happens to its label stack on the way out.
type NHLFE struct {
	// NextHop names the outgoing neighbour (or egress interface).
	NextHop string
	// Op is the label operation: push (PushLabels go on top), swap
	// (PushLabels[0] replaces the top), or pop.
	Op label.Op
	// PushLabels are pushed bottom-first. A tunnel ingress pushes two at
	// once; a plain ingress or swap uses exactly one.
	PushLabels []label.Label
	// CoS is stamped on labels pushed at ingress (unlabelled packets).
	// Transit operations copy the CoS of the old top entry instead — the
	// paper specifies that the embedded implementation never modifies
	// the CoS bits in flight.
	CoS label.CoS
}

// Validate checks the operation/label combination.
func (n NHLFE) Validate() error {
	switch n.Op {
	case label.OpPush:
		if len(n.PushLabels) == 0 || len(n.PushLabels) > label.MaxDepth {
			return fmt.Errorf("swmpls: push NHLFE needs 1..%d labels, has %d", label.MaxDepth, len(n.PushLabels))
		}
	case label.OpSwap:
		if len(n.PushLabels) != 1 {
			return fmt.Errorf("swmpls: swap NHLFE needs exactly 1 label, has %d", len(n.PushLabels))
		}
	case label.OpPop:
		if len(n.PushLabels) != 0 {
			return errors.New("swmpls: pop NHLFE must not carry labels")
		}
	default:
		return fmt.Errorf("swmpls: NHLFE with operation %v", n.Op)
	}
	for _, l := range n.PushLabels {
		if !l.Valid() {
			return fmt.Errorf("swmpls: label %d out of range", l)
		}
		if l.Reserved() {
			return fmt.Errorf("swmpls: reserved label %d in NHLFE", l)
		}
	}
	return nil
}

// Action classifies what the forwarder decided.
type Action int

// Forwarding outcomes.
const (
	// Forward: send the (possibly relabelled) packet to Result.NextHop.
	Forward Action = iota
	// Deliver: the stack emptied; hand the packet to the IP side.
	Deliver
	// Drop: discard the packet for Result.Drop.
	Drop
)

// String names the action.
func (a Action) String() string {
	switch a {
	case Forward:
		return "forward"
	case Deliver:
		return "deliver"
	case Drop:
		return "drop"
	default:
		return fmt.Sprintf("action(%d)", int(a))
	}
}

// DropReason explains a Drop action.
type DropReason int

// Drop reasons.
const (
	DropNone DropReason = iota
	DropNoRoute
	DropNoLabel
	DropTTLExpired
	DropStackOverflow
)

// Telemetry maps a drop reason onto the unified telemetry taxonomy.
// The mapping follows the paper's three discard transitions: a label
// (or FTN) lookup that finds nothing is a lookup miss, TTL reaching
// zero is a TTL expiry, and a stored operation that cannot be applied
// to the packet's stack — here, a push past MaxDepth — is an
// inconsistent operation. DropNoRoute is the one software-only case
// (unlabelled packet with no FEC binding) and keeps its own reason.
// ok is false for DropNone and unknown values.
func (d DropReason) Telemetry() (r telemetry.Reason, ok bool) {
	switch d {
	case DropNoLabel:
		return telemetry.ReasonLookupMiss, true
	case DropTTLExpired:
		return telemetry.ReasonTTLExpired, true
	case DropStackOverflow:
		return telemetry.ReasonInconsistentOp, true
	case DropNoRoute:
		return telemetry.ReasonNoRoute, true
	default:
		return 0, false
	}
}

// String names the drop reason.
func (d DropReason) String() string {
	switch d {
	case DropNone:
		return "none"
	case DropNoRoute:
		return "no-route"
	case DropNoLabel:
		return "no-label"
	case DropTTLExpired:
		return "ttl-expired"
	case DropStackOverflow:
		return "stack-overflow"
	default:
		return fmt.Sprintf("drop(%d)", int(d))
	}
}

// Result is the outcome of forwarding one packet.
type Result struct {
	Action  Action
	NextHop string
	Drop    DropReason
	// Op is the label operation that was applied (OpNone on drops and
	// on ingress misses), so callers can trace per-packet label
	// activity without re-deriving it from the NHLFE.
	Op label.Op
}

// Forwarder is one router's software MPLS tables.
type Forwarder struct {
	ftn *prefixTable
	ilm ilmTable
	// drops, when set, receives one count per dropped packet. The
	// pointer survives Clone so every RCU snapshot of a table feeds
	// the same counters.
	drops *telemetry.DropCounters
	// trace, when set, records one label-op or discard event per
	// Forward call, attributed to node. Like drops it survives Clone.
	trace *telemetry.Ring
	node  string
}

// New returns an empty forwarder configured by functional options —
// most usefully WithILM, which swaps the ILM's lookup structure between
// the default map, the paper's linear information base, and the indexed
// one. With no options it is the plain RFC 3031 software forwarder.
func New(opts ...Option) *Forwarder {
	var cfg fwdConfig
	for _, opt := range opts {
		opt(&cfg)
	}
	return &Forwarder{ftn: newPrefixTable(), ilm: newILMTable(cfg.ilm)}
}

// ILMKind reports which lookup structure backs the ILM.
func (f *Forwarder) ILMKind() ILMKind { return f.ilm.kind() }

// Clone returns an independent copy of the forwarder's tables, keeping
// the ILM backend kind. NHLFE values (including their PushLabels
// slices) are treated as immutable after installation, so clones share
// them; everything mutable — the ILM and the FTN trie nodes — is
// copied. This is the copy-on-write primitive behind the dataplane
// engine's RCU table snapshots: the control plane clones the live
// table, edits the clone, and publishes it atomically while readers
// keep traversing the old one.
func (f *Forwarder) Clone() *Forwarder {
	return &Forwarder{ftn: f.ftn.clone(), ilm: f.ilm.clone(), drops: f.drops, trace: f.trace, node: f.node}
}

// SetDropCounters attaches shared drop accounting: every Drop result
// increments the mapped telemetry reason. A nil argument detaches.
func (f *Forwarder) SetDropCounters(c *telemetry.DropCounters) { f.drops = c }

// DropCounters returns the attached counters, or nil.
func (f *Forwarder) DropCounters() *telemetry.DropCounters { return f.drops }

// SetTelemetry attaches the full sink — drop counters plus per-packet
// trace — in one call, the hook every router data plane shares.
// Zero-value fields detach the corresponding hook.
func (f *Forwarder) SetTelemetry(s telemetry.Sink) {
	f.drops = s.Drops
	f.trace = s.Trace
	f.node = s.Node
}

// drop builds a Drop result and feeds the attached counters.
func (f *Forwarder) drop(d DropReason) Result {
	if f.drops != nil {
		if r, ok := d.Telemetry(); ok {
			f.drops.Inc(r)
		}
	}
	return Result{Action: Drop, Drop: d}
}

// MapFEC binds the FEC (dst/prefixLen) to an NHLFE in the FTN.
func (f *Forwarder) MapFEC(dst packet.Addr, prefixLen int, n NHLFE) error {
	if err := n.Validate(); err != nil {
		return err
	}
	if n.Op != label.OpPush {
		return errors.New("swmpls: FTN entries must push")
	}
	return f.ftn.insert(dst, prefixLen, n)
}

// MapLabel binds an incoming label to an NHLFE in the ILM.
func (f *Forwarder) MapLabel(in label.Label, n NHLFE) error {
	if err := n.Validate(); err != nil {
		return err
	}
	if !in.Valid() {
		return fmt.Errorf("swmpls: incoming label %d out of range", in)
	}
	if in.Reserved() {
		return fmt.Errorf("swmpls: cannot map reserved label %d", in)
	}
	return f.ilm.insert(in, n)
}

// UnmapLabel removes an ILM binding.
func (f *Forwarder) UnmapLabel(in label.Label) { f.ilm.remove(in) }

// UnmapFEC removes an FTN binding and reports whether one existed.
func (f *Forwarder) UnmapFEC(dst packet.Addr, prefixLen int) bool {
	return f.ftn.remove(dst, prefixLen)
}

// InstallFEC, InstallILM, RemoveILM and RemoveFEC mirror the embedded
// device's table programming surface (router.DataPlane declares it), so
// the signaling speaker drives software and hardware routers
// interchangeably.

// InstallFEC is MapFEC under the installer contract.
func (f *Forwarder) InstallFEC(dst packet.Addr, prefixLen int, n NHLFE) error {
	return f.MapFEC(dst, prefixLen, n)
}

// InstallILM is MapLabel under the installer contract.
func (f *Forwarder) InstallILM(in label.Label, n NHLFE) error { return f.MapLabel(in, n) }

// RemoveILM is UnmapLabel under the installer contract.
func (f *Forwarder) RemoveILM(in label.Label) { f.UnmapLabel(in) }

// RemoveFEC is UnmapFEC under the installer contract.
func (f *Forwarder) RemoveFEC(dst packet.Addr, prefixLen int) { f.UnmapFEC(dst, prefixLen) }

// ILMSize returns the number of installed label bindings.
func (f *Forwarder) ILMSize() int { return f.ilm.size() }

// LookupILM returns the binding for an incoming label, if any — the bare
// per-hop lookup, exposed for data-plane cost comparisons.
func (f *Forwarder) LookupILM(in label.Label) (NHLFE, bool) {
	return f.ilm.lookup(in)
}

// Forward applies the router's tables to p in place and says what to do
// with it. TTL semantics follow the embedded architecture: the label TTL
// is decremented at every hop and the packet is dropped when it reaches
// zero; at ingress the label TTL is seeded from the IP TTL; at the final
// pop the (already decremented) label TTL is written back to the IP
// header.
//
// Forward is exactly Resolve followed by ApplyResolved (or
// DropUnresolved on a miss) — the split a caching fast path uses to
// skip the lookup while keeping the apply and drop paths identical.
func (f *Forwarder) Forward(p *packet.Packet) Result {
	var depth uint8
	var top uint32
	if f.trace != nil {
		depth, top = stackState(p)
	}
	n, ok := f.Resolve(p)
	var res Result
	if !ok {
		res = f.DropUnresolved(p)
	} else {
		res = f.ApplyResolved(p, n)
	}
	if f.trace != nil {
		f.traceResult(depth, top, res)
	}
	return res
}

// Resolve answers the table lookup for p without touching the packet:
// the ILM binding of the top label for labelled packets, the FTN
// longest-prefix match on the destination otherwise. ok is false on a
// miss (or an unreadable stack).
func (f *Forwarder) Resolve(p *packet.Packet) (NHLFE, bool) {
	if p.Labelled() {
		top, err := p.Stack.Top()
		if err != nil {
			return NHLFE{}, false
		}
		return f.ilm.lookup(top.Label)
	}
	return f.ftn.lookup(p.Header.Dst)
}

// DropUnresolved accounts and classifies the drop for a packet Resolve
// could not answer: an ILM miss is no-label, an FTN miss no-route.
func (f *Forwarder) DropUnresolved(p *packet.Packet) Result {
	if p.Labelled() {
		return f.drop(DropNoLabel)
	}
	return f.drop(DropNoRoute)
}

// ApplyResolved applies an already-resolved NHLFE to p — the mutation
// half of Forward. The caller must pass the entry Resolve (or an
// equivalent cache) returned for this packet's current top label /
// destination; TTL handling, CoS stamping and drop accounting are
// identical to Forward's.
func (f *Forwarder) ApplyResolved(p *packet.Packet, n NHLFE) Result {
	if !p.Labelled() {
		return f.ingressApply(p, n)
	}
	return f.transitApply(p, n)
}

// stackState captures the incoming stack depth and top label for trace
// attribution, before Forward mutates the packet.
func stackState(p *packet.Packet) (uint8, uint32) {
	if p.Stack.Empty() {
		return 0, 0
	}
	var top uint32
	if e, err := p.Stack.Top(); err == nil {
		top = uint32(e.Label)
	}
	return uint8(p.Stack.Depth()), top
}

// traceResult records the outcome against the incoming stack state.
func (f *Forwarder) traceResult(depth uint8, top uint32, res Result) {
	if res.Action == Drop {
		if r, ok := res.Drop.Telemetry(); ok {
			f.trace.RecordDiscard(f.node, depth, top, r)
		}
		return
	}
	if res.Op != label.OpNone {
		f.trace.RecordOp(f.node, telemetry.TraceOp(res.Op), depth, top)
	}
}

func (f *Forwarder) ingressApply(p *packet.Packet, n NHLFE) Result {
	ttl := p.Header.TTL
	if ttl > 0 {
		ttl--
	}
	if ttl == 0 {
		return f.drop(DropTTLExpired)
	}
	for _, l := range n.PushLabels {
		if err := p.Stack.Push(label.Entry{Label: l, CoS: n.CoS, TTL: ttl}); err != nil {
			return f.drop(DropStackOverflow)
		}
	}
	return Result{Action: Forward, NextHop: n.NextHop, Op: label.OpPush}
}

func (f *Forwarder) transitApply(p *packet.Packet, n NHLFE) Result {
	old, _ := p.Stack.Pop()
	ttl := old.TTL
	if ttl > 0 {
		ttl--
	}
	if ttl == 0 {
		return f.drop(DropTTLExpired)
	}
	switch n.Op {
	case label.OpPop:
		if p.Stack.Empty() {
			// End of the LSP: propagate the TTL to the IP header.
			p.Header.TTL = ttl
			if n.NextHop == "" {
				return Result{Action: Deliver, Op: label.OpPop}
			}
			return Result{Action: Forward, NextHop: n.NextHop, Op: label.OpPop}
		}
		// TTL propagation to the exposed entry.
		if err := p.Stack.SetTopTTL(ttl); err != nil {
			return f.drop(DropNoLabel)
		}
		return Result{Action: Forward, NextHop: n.NextHop, Op: label.OpPop}
	case label.OpSwap:
		if err := p.Stack.Push(label.Entry{Label: n.PushLabels[0], CoS: old.CoS, TTL: ttl}); err != nil {
			return f.drop(DropStackOverflow)
		}
		return Result{Action: Forward, NextHop: n.NextHop, Op: label.OpSwap}
	case label.OpPush:
		// Tunnel ingress: the old entry goes back with the decremented
		// TTL, then the tunnel labels on top.
		old.TTL = ttl
		if err := p.Stack.Push(old); err != nil {
			return f.drop(DropStackOverflow)
		}
		for _, l := range n.PushLabels {
			if err := p.Stack.Push(label.Entry{Label: l, CoS: old.CoS, TTL: ttl}); err != nil {
				return f.drop(DropStackOverflow)
			}
		}
		return Result{Action: Forward, NextHop: n.NextHop, Op: label.OpPush}
	default:
		return f.drop(DropNoLabel)
	}
}
