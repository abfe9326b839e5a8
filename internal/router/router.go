// Package router implements MPLS router nodes for the network simulator:
// a Router is a netsim.Node with attached links, local addresses, and a
// pluggable data plane — either the embedded hardware device (package
// device, timed by its verified cycle model) or the software forwarder
// (package swmpls, timed by a configurable per-packet cost). The paper's
// LER/LSR distinction is carried by the data plane's router type and by
// which tables the control plane installs.
package router

import (
	"fmt"
	"sync/atomic"

	"embeddedmpls/internal/device"
	"embeddedmpls/internal/iproute"
	"embeddedmpls/internal/label"
	"embeddedmpls/internal/netsim"
	"embeddedmpls/internal/packet"
	"embeddedmpls/internal/plane"
	"embeddedmpls/internal/stats"
	"embeddedmpls/internal/swmpls"
	"embeddedmpls/internal/telemetry"
)

// DataPlane is a forwarding engine as the router sees it: the unified
// plane contract (one processing step plus telemetry attachment),
// extended with simulator timing — Process reports how long the engine
// was occupied — the table programming surface used by ldp.Manager,
// and lifecycle cleanup. Close releases whatever the plane holds
// (worker goroutines for the concurrent engine; a no-op for the serial
// planes), letting the network tear down any plane without knowing its
// concrete type.
type DataPlane interface {
	plane.Plane
	Process(p *packet.Packet) (swmpls.Result, netsim.Time)
	InstallFEC(dst packet.Addr, prefixLen int, n swmpls.NHLFE) error
	InstallILM(in label.Label, n swmpls.NHLFE) error
	RemoveILM(in label.Label)
	RemoveFEC(dst packet.Addr, prefixLen int)
	Close() error
}

// TableReader is the optional inspection half of a data plane:
// ordered dumps of the installed ILM and FTN, consumed by the
// management plane's infobase.get handler. SoftwarePlane (via the
// embedded forwarder) and EnginePlane (via an RCU snapshot) implement
// it; the hardware cycle model does not expose its tables.
type TableReader interface {
	ILMEntries() []swmpls.ILMEntry
	FECEntries() []swmpls.FECEntry
}

// Tables returns the data plane's table reader, or ok=false when this
// plane cannot be inspected.
func (r *Router) Tables() (TableReader, bool) {
	tr, ok := r.plane.(TableReader)
	return tr, ok
}

// SoftwarePlane runs the software forwarder with a fixed per-packet
// processing cost (the "entirely software based" baseline the paper
// contrasts with). The embedded Forwarder provides the plane.Plane
// half of the contract.
type SoftwarePlane struct {
	*swmpls.Forwarder
	// PerPacket is the engine occupancy per label operation. The default
	// of 50 microseconds approximates an early-2000s software router's
	// kernel forwarding path.
	PerPacket netsim.Time
}

// DefaultSoftwareCost is the default per-packet software forwarding cost.
const DefaultSoftwareCost netsim.Time = 50e-6

// NewSoftwarePlane returns a software data plane with the default
// map-backed ILM. perPacket <= 0 selects DefaultSoftwareCost.
func NewSoftwarePlane(perPacket netsim.Time) *SoftwarePlane {
	return NewSoftwarePlaneWith(perPacket, swmpls.New())
}

// NewSoftwarePlaneWith wraps an existing forwarder — the hook for
// selecting an ILM backend via swmpls.NewWith(swmpls.WithILM(...)).
func NewSoftwarePlaneWith(perPacket netsim.Time, f *swmpls.Forwarder) *SoftwarePlane {
	if perPacket <= 0 {
		perPacket = DefaultSoftwareCost
	}
	return &SoftwarePlane{Forwarder: f, PerPacket: perPacket}
}

// Process implements DataPlane.
func (s *SoftwarePlane) Process(p *packet.Packet) (swmpls.Result, netsim.Time) {
	return s.Forward(p), s.PerPacket
}

// Close implements DataPlane; the serial forwarder holds no resources.
func (s *SoftwarePlane) Close() error { return nil }

// HardwarePlane runs the embedded MPLS device; engine occupancy is the
// device's cycle count at its clock. The embedded Device provides the
// plane.Plane half of the contract.
type HardwarePlane struct {
	*device.Device
}

// NewHardwarePlane wraps a device as a data plane.
func NewHardwarePlane(d *device.Device) *HardwarePlane { return &HardwarePlane{Device: d} }

// Process implements DataPlane.
func (h *HardwarePlane) Process(p *packet.Packet) (swmpls.Result, netsim.Time) {
	res, cycles := h.Device.Process(p)
	return res, h.Seconds(cycles)
}

// Close implements DataPlane; the device model holds no resources.
func (h *HardwarePlane) Close() error { return nil }

// Stats aggregates a router's forwarding outcomes.
type Stats struct {
	Forwarded stats.Counter
	Delivered stats.Counter
	Dropped   stats.Counter
	// DropsByReason breaks drops down by cause.
	DropsByReason map[swmpls.DropReason]uint64
}

// Router is one network node.
type Router struct {
	name  string
	sim   *netsim.Simulator
	plane DataPlane
	links map[string]netsim.Wire

	// ingress is what the router knows about unlabelled arrivals before
	// any table is searched: the addresses that terminate here and the
	// IP fallback table. It is an immutable snapshot, replaced whole by
	// AddLocal and SetIPTable (control-plane rate), so Network.FeedTo
	// can classify on a socket goroutine without the network lock.
	ingress atomic.Pointer[ingressView]

	// busyUntil models the forwarding engine as a serial resource: a
	// packet's processing starts when the engine frees up.
	busyUntil netsim.Time

	// OnDeliver, when set, receives packets addressed to this router
	// after decapsulation (traffic sinks hook it).
	OnDeliver func(p *packet.Packet)

	// control sinks are offered every locally delivered packet before
	// OnDeliver, in attachment order; the first to return true consumes
	// the packet. The resilience layer's keepalive probes and the
	// signaling layer's session messages ride them so control traffic
	// never pollutes flow statistics.
	control []func(p *packet.Packet) bool

	// admission, when set, judges every packet arriving from a
	// neighbour (never locally injected ones) before the engine spends
	// time on it. A false return discards the packet silently: the hook
	// owns the drop accounting (the ingress guard counts per-reason).
	admission func(p *packet.Packet, from string) bool

	// drops, when set, receives one count per dropped packet under the
	// unified telemetry taxonomy; trace, when set, receives one event
	// per label operation or discard.
	drops *telemetry.DropCounters
	trace *telemetry.Ring

	// pumped marks a router whose engine-backed plane flushes egress
	// batches straight onto the wires (Network.AttachEgressPump). The
	// engine then owns per-operation tracing, so SetTelemetry forwards
	// the trace ring to the plane instead of tracing at the router.
	pumped bool

	Stats Stats
}

// ingressView is one immutable snapshot of Router.ingress.
type ingressView struct {
	// local holds the addresses terminating at this router: unlabelled
	// packets for them are delivered, not forwarded.
	local map[packet.Addr]struct{}
	// ipTable, when set, carries unlabelled packets that have no FEC
	// binding — conventional hop-by-hop IP forwarding, the pre-MPLS
	// baseline. The data plane's engine time already covers the lookup
	// cost (its FTN miss *is* the failed route lookup).
	ipTable *iproute.Table
}

func (v *ingressView) isLocal(a packet.Addr) bool {
	_, ok := v.local[a]
	return ok
}

// serial reports whether an unlabelled packet for dst must take the
// serial Receive path of a pumped router: it terminates here (control
// sessions, probes, egress delivery), or an FTN miss would have to fall
// back to the IP table — which only act can do, because an engine
// worker has traced and counted the discard before the pump sees it.
func (v *ingressView) serial(dst packet.Addr) bool {
	return v.ipTable != nil || v.isLocal(dst)
}

// New creates a router on the simulator.
func New(sim *netsim.Simulator, name string, plane DataPlane) *Router {
	r := &Router{
		name:  name,
		sim:   sim,
		plane: plane,
		links: make(map[string]netsim.Wire),
		Stats: Stats{DropsByReason: make(map[swmpls.DropReason]uint64)},
	}
	r.ingress.Store(&ingressView{})
	return r
}

// Name implements netsim.Node.
func (r *Router) Name() string { return r.name }

// Plane exposes the data plane for table programming.
func (r *Router) Plane() DataPlane { return r.plane }

// InstallFEC, InstallILM, RemoveILM and RemoveFEC delegate to the data
// plane so a Router satisfies ldp.Installer directly.

// InstallFEC implements ldp.Installer.
func (r *Router) InstallFEC(dst packet.Addr, prefixLen int, n swmpls.NHLFE) error {
	return r.plane.InstallFEC(dst, prefixLen, n)
}

// InstallILM implements ldp.Installer.
func (r *Router) InstallILM(in label.Label, n swmpls.NHLFE) error {
	return r.plane.InstallILM(in, n)
}

// RemoveILM implements ldp.Installer.
func (r *Router) RemoveILM(in label.Label) { r.plane.RemoveILM(in) }

// RemoveFEC implements ldp.Installer.
func (r *Router) RemoveFEC(dst packet.Addr, prefixLen int) { r.plane.RemoveFEC(dst, prefixLen) }

// AttachLink registers an outgoing link, keyed by the receiving node's
// name. Any netsim.Wire attaches — a simulated link or a transport
// link over a real socket; the router cannot tell them apart.
func (r *Router) AttachLink(l netsim.Wire) { r.links[l.To()] = l }

// Link returns the outgoing link toward the named neighbour.
func (r *Router) Link(to string) (netsim.Wire, bool) {
	l, ok := r.links[to]
	return l, ok
}

// SimLink returns the outgoing link toward the named neighbour as a
// simulated *netsim.Link, for callers that read simulator-only
// bookkeeping (delivered counts, utilisation). It reports false when
// the neighbour is unknown or the link is transport-backed.
func (r *Router) SimLink(to string) (*netsim.Link, bool) {
	l, ok := r.links[to].(*netsim.Link)
	return l, ok
}

// Links returns all attached outgoing links (iteration order is
// unspecified).
func (r *Router) Links() []netsim.Wire {
	out := make([]netsim.Wire, 0, len(r.links))
	for _, l := range r.links {
		out = append(out, l)
	}
	return out
}

// SetTelemetry attaches the unified observability sink: drop counters
// and trace ring in one call. Events are attributed to the router's
// own name (the sink's Node field is ignored — a router always knows
// who it is). Accounting happens at the router level, where link and
// next-hop failures are visible; the sink is deliberately not pushed
// into the data plane, which would double-count forwarding drops. The
// one exception is a pumped router, whose engine applies the label
// operations on its own workers: the trace ring (and only the trace
// ring — drop counts stay router-level) is forwarded to the plane.
func (r *Router) SetTelemetry(s telemetry.Sink) {
	r.drops = s.Drops
	r.trace = s.Trace
	if r.pumped {
		r.plane.SetTelemetry(telemetry.Sink{Trace: s.Trace, Node: r.name})
	}
}

// SetAdmission installs (or, with nil, removes) the ingress admission
// hook run on every packet received from a neighbour.
func (r *Router) SetAdmission(fn func(p *packet.Packet, from string) bool) {
	r.admission = fn
}

// AddLocal marks addr as terminating at this router: unlabelled packets
// for it are delivered instead of forwarded. Like every router mutator
// it is a control-plane call, serialised with the others by the network
// lock; it publishes a new ingress snapshot and readers never wait.
func (r *Router) AddLocal(addr packet.Addr) {
	v := *r.ingress.Load()
	if v.isLocal(addr) {
		return // re-signalled FEC: nothing to publish
	}
	local := make(map[packet.Addr]struct{}, len(v.local)+1)
	for a := range v.local {
		local[a] = struct{}{}
	}
	local[addr] = struct{}{}
	v.local = local
	r.ingress.Store(&v)
}

// Inject introduces a locally originated packet (from a traffic source).
func (r *Router) Inject(p *packet.Packet) { r.Receive(p, r.name) }

// Receive implements netsim.Node: run the packet through the forwarding
// engine (serially) and act on the decision when processing completes.
func (r *Router) Receive(p *packet.Packet, from string) {
	// Ingress admission runs before anything else — spoofed, TTL-bent,
	// over-rate or quarantined traffic must not reach the engine.
	if r.admission != nil && from != r.name && !r.admission(p, from) {
		return
	}
	// Local IP delivery needs no label operation.
	if !p.Labelled() && r.ingress.Load().isLocal(p.Header.Dst) {
		r.deliver(p)
		return
	}

	start := r.sim.Now()
	if r.busyUntil > start {
		start = r.busyUntil
	}
	// The engine may need several passes for one packet (a tunnel tail
	// pops, then re-examines the inner label); each pass costs engine
	// time. label.MaxDepth+1 bounds the passes.
	var res swmpls.Result
	total := netsim.Time(0)
	for pass := 0; pass < label.MaxDepth+1; pass++ {
		var d netsim.Time
		res, d = r.plane.Process(p)
		total += d
		if res.Action == swmpls.Forward && res.NextHop == "" && p.Labelled() {
			continue
		}
		break
	}
	r.busyUntil = start + total
	done := r.busyUntil - r.sim.Now()
	r.sim.Schedule(done, func() { r.act(p, res) })
}

// SetIPTable installs the router's IP forwarding table (nil disables the
// fallback).
func (r *Router) SetIPTable(t *iproute.Table) {
	v := *r.ingress.Load()
	v.ipTable = t
	r.ingress.Store(&v)
}

func (r *Router) act(p *packet.Packet, res swmpls.Result) {
	if res.Action == swmpls.Drop && res.Drop == swmpls.DropNoRoute && !p.Labelled() {
		if t := r.ingress.Load().ipTable; t != nil {
			r.ipForward(p, t)
			return
		}
	}
	switch res.Action {
	case swmpls.Forward:
		l, ok := r.links[res.NextHop]
		if !ok {
			r.drop(p, swmpls.DropNoRoute)
			return
		}
		r.traceOp(p, res.Op)
		r.Stats.Forwarded.Add(p.Size())
		l.Send(p)
	case swmpls.Deliver:
		r.traceOp(p, res.Op)
		r.deliver(p)
	default:
		r.drop(p, res.Drop)
	}
}

// traceOp records an applied label operation: the event's level is the
// resulting stack depth and its label the (new) top of stack, zero
// once the stack has emptied.
func (r *Router) traceOp(p *packet.Packet, op label.Op) {
	if r.trace == nil || op == label.OpNone {
		return
	}
	var top uint32
	if e, err := p.Stack.Top(); err == nil {
		top = uint32(e.Label)
	}
	// telemetry.TraceOp values mirror label.Op numerically.
	r.trace.RecordOp(r.name, telemetry.TraceOp(op), uint8(p.Stack.Depth()), top)
}

// ipForward carries an unlabelled packet one hop by longest-prefix match,
// with the usual IP TTL handling.
func (r *Router) ipForward(p *packet.Packet, t *iproute.Table) {
	nh, ok := t.Lookup(p.Header.Dst)
	if !ok {
		r.drop(p, swmpls.DropNoRoute)
		return
	}
	if nh == iproute.Local {
		r.deliver(p)
		return
	}
	if p.Header.TTL > 0 {
		p.Header.TTL--
	}
	if p.Header.TTL == 0 {
		r.drop(p, swmpls.DropTTLExpired)
		return
	}
	l, ok := r.links[nh]
	if !ok {
		r.drop(p, swmpls.DropNoRoute)
		return
	}
	r.Stats.Forwarded.Add(p.Size())
	l.Send(p)
}

// SetControlSink installs the router's control-plane punt: delivered
// packets the sink claims (by returning true) are consumed before
// delivery statistics and OnDeliver see them. It replaces every
// previously attached sink; a nil sink detaches them all. Subsystems
// that must coexist (liveness probing and signaling sessions on one
// node) use AddControlSink instead.
func (r *Router) SetControlSink(sink func(p *packet.Packet) bool) {
	if sink == nil {
		r.control = nil
		return
	}
	r.control = []func(p *packet.Packet) bool{sink}
}

// AddControlSink attaches one more control-plane punt without
// disturbing the ones already installed. Sinks see delivered packets in
// attachment order; the first to claim a packet consumes it.
func (r *Router) AddControlSink(sink func(p *packet.Packet) bool) {
	r.control = append(r.control, sink)
}

func (r *Router) deliver(p *packet.Packet) {
	for _, sink := range r.control {
		if sink(p) {
			return
		}
	}
	r.Stats.Delivered.Add(p.Size())
	if r.OnDeliver != nil {
		r.OnDeliver(p)
	}
}

func (r *Router) drop(p *packet.Packet, reason swmpls.DropReason) {
	r.dropNoTrace(p, reason)
	tr, ok := reason.Telemetry()
	if !ok || r.trace == nil {
		return
	}
	var top uint32
	if e, err := p.Stack.Top(); err == nil {
		top = uint32(e.Label)
	}
	r.trace.RecordDiscard(r.name, uint8(p.Stack.Depth()), top, tr)
}

// dropNoTrace accounts a drop in the router-level counters without
// emitting a trace event — the egress pump path, where the engine has
// already traced the discard on its worker.
func (r *Router) dropNoTrace(p *packet.Packet, reason swmpls.DropReason) {
	r.Stats.Dropped.Add(p.Size())
	r.Stats.DropsByReason[reason]++
	if tr, ok := reason.Telemetry(); ok && r.drops != nil {
		r.drops.Inc(tr)
	}
}

// String summarises the router for logs.
func (r *Router) String() string {
	return fmt.Sprintf("router %s (fwd=%d dlv=%d drop=%d)",
		r.name, r.Stats.Forwarded.Events, r.Stats.Delivered.Events, r.Stats.Dropped.Events)
}
