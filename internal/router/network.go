package router

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"embeddedmpls/internal/dataplane"
	"embeddedmpls/internal/device"
	"embeddedmpls/internal/ldp"
	"embeddedmpls/internal/lsm"
	"embeddedmpls/internal/netsim"
	"embeddedmpls/internal/packet"
	"embeddedmpls/internal/qos"
	"embeddedmpls/internal/swmpls"
	"embeddedmpls/internal/te"
	"embeddedmpls/internal/telemetry"
	"embeddedmpls/internal/transport"
)

// Link transport kinds for NodeSpec.Transport and LinkSpec.Transport.
const (
	// TransportSim is the default in-memory simulated link.
	TransportSim = "sim"
	// TransportUDP wires the two endpoints over loopback UDP sockets
	// using the binary wire codec — real datagrams, same topology.
	TransportUDP = "udp"
)

// NodeSpec describes one router of a simulated network.
type NodeSpec struct {
	Name string
	// Hardware selects the embedded MPLS device data plane; otherwise
	// the software forwarder is used.
	Hardware bool
	// RouterType configures a hardware plane as LER or LSR.
	RouterType lsm.RouterType
	// SoftwareCost overrides the software per-packet cost (<=0: default).
	SoftwareCost netsim.Time
	// EngineWorkers, when > 0, gives this software-plane node the
	// concurrent dataplane engine with that many shard workers instead
	// of the serial forwarder: RCU table updates and a per-packet cost
	// amortised across the workers. Ignored for hardware nodes.
	EngineWorkers int
	// EngineBatch overrides the engine's per-worker batch size (<=0:
	// engine default). Only meaningful with EngineWorkers > 0.
	EngineBatch int
	// InfoBase selects the ILM lookup backend of software planes:
	// "map" (default), "linear" (the paper's information base scan) or
	// "indexed" (the O(1) hash index). Ignored for hardware nodes,
	// whose information base is the device's own.
	InfoBase string
	// Transport is the default link transport for connections touching
	// this node: "" or "sim" for simulated links, "udp" for loopback
	// UDP sockets. A link is transport-backed when its own Transport
	// field or either endpoint's says so. Networks with UDP links must
	// be driven by RunReal rather than Sim.Run.
	Transport string
}

// ilmKind maps a NodeSpec.InfoBase string to the swmpls backend.
func ilmKind(name string) (swmpls.ILMKind, error) {
	switch name {
	case "", "map":
		return swmpls.ILMMap, nil
	case "linear":
		return swmpls.ILMLinear, nil
	case "indexed":
		return swmpls.ILMIndexed, nil
	default:
		return 0, fmt.Errorf("router: unknown infobase kind %q (want map, linear or indexed)", name)
	}
}

// LinkSpec describes one duplex connection.
type LinkSpec struct {
	A, B    string
	RateBPS float64
	Delay   netsim.Time
	// QueueCap bounds each direction's queue (packets). <=0 means 64.
	QueueCap int
	// NewQueue builds the scheduler per direction; nil means FIFO.
	NewQueue func(cap int) qos.Scheduler
	// Metric is the TE metric (0 = 1).
	Metric float64
	// Transport overrides the link transport: "" defers to the
	// endpoints' NodeSpec.Transport, "sim" forces a simulated link,
	// "udp" forces loopback UDP. Rate shaping and Delay apply only to
	// simulated links; a UDP link's latency is the real path's.
	Transport string
	// Coalesce packs up to this many packets into one datagram on UDP
	// links (transport.WithCoalesce); <=1 sends one datagram per
	// packet. Ignored for simulated links.
	Coalesce int
	// SysBatch sets how many datagrams one send/receive syscall moves
	// on UDP links (transport.WithSysBatch); <=0 keeps the transport
	// default. Ignored for simulated links.
	SysBatch int
}

// Network bundles a simulated MPLS network: event simulator, TE topology,
// LDP manager and the routers themselves.
type Network struct {
	Sim     *netsim.Simulator
	Topo    *te.Topology
	LDP     *ldp.Manager
	Routers map[string]*Router

	// Wire aggregates transport counters across every UDP link and
	// receive socket of the network; all zero for pure-sim topologies.
	Wire *transport.Metrics

	// mu serialises access to the discrete-event simulator when
	// transport receivers deliver from socket goroutines. RunReal and
	// the delivery path both hold it; pure-sim use via Sim.Run never
	// contends.
	mu      sync.Mutex
	sink    atomic.Pointer[telemetry.Sink]
	guard   atomic.Pointer[Admission]
	closers []io.Closer
	closing sync.Once
}

// Admission is the ingress guard as the network sees it: the
// post-decode per-packet verdict, the pre-decode quarantine fast path
// the transport receivers consult, and the malformed-datagram feed
// that trips quarantine breakers. internal/guard.Guard implements it.
type Admission interface {
	Admit(p *packet.Packet, from string) bool
	PreAdmit(peer string, labelled bool) bool
	Malformed(peer string)
}

// transportKind resolves the effective transport of a link from its own
// field and its endpoints' defaults.
func transportKind(spec LinkSpec, nodeDefault map[string]string) (string, error) {
	kind := spec.Transport
	if kind == "" {
		if nodeDefault[spec.A] == TransportUDP || nodeDefault[spec.B] == TransportUDP {
			kind = TransportUDP
		} else {
			kind = TransportSim
		}
	}
	switch kind {
	case TransportSim, TransportUDP:
		return kind, nil
	default:
		return "", fmt.Errorf("router: unknown transport %q for link %s<->%s (want sim or udp)",
			kind, spec.A, spec.B)
	}
}

// newPlane builds the data plane a node spec asks for.
func newPlane(spec NodeSpec) (DataPlane, error) {
	kind, err := ilmKind(spec.InfoBase)
	if err != nil {
		return nil, err
	}
	switch {
	case spec.Hardware:
		return NewHardwarePlane(device.New(spec.RouterType, lsm.DefaultClock)), nil
	case spec.EngineWorkers > 0:
		eng := dataplane.New(
			dataplane.WithWorkers(spec.EngineWorkers),
			dataplane.WithBatch(spec.EngineBatch),
			dataplane.WithNode(spec.Name),
			dataplane.WithNewTable(func() *swmpls.Forwarder { return swmpls.New(swmpls.WithILM(kind)) }),
		)
		return NewEnginePlane(eng, spec.SoftwareCost), nil
	default:
		return NewSoftwarePlaneWith(spec.SoftwareCost, swmpls.New(swmpls.WithILM(kind))), nil
	}
}

// Build wires a network from specs: routers with their data planes, TE
// topology nodes/links, links in both directions — simulated or
// transport-backed per spec — and an LDP manager with every router
// registered.
func Build(nodes []NodeSpec, links []LinkSpec) (*Network, error) {
	n := &Network{
		Sim:     netsim.New(),
		Topo:    te.NewTopology(),
		Routers: make(map[string]*Router),
		Wire:    &transport.Metrics{},
	}
	transports := make(map[string]string, len(nodes))
	for _, spec := range nodes {
		if _, dup := n.Routers[spec.Name]; dup {
			return nil, fmt.Errorf("router: duplicate node %q", spec.Name)
		}
		plane, err := newPlane(spec)
		if err != nil {
			return nil, err
		}
		n.Routers[spec.Name] = New(n.Sim, spec.Name, plane)
		n.Topo.AddNode(spec.Name)
		transports[spec.Name] = spec.Transport
	}
	for _, spec := range links {
		ra, ok := n.Routers[spec.A]
		if !ok {
			return nil, fmt.Errorf("router: link references unknown node %q", spec.A)
		}
		rb, ok := n.Routers[spec.B]
		if !ok {
			return nil, fmt.Errorf("router: link references unknown node %q", spec.B)
		}
		kind, err := transportKind(spec, transports)
		if err != nil {
			return nil, err
		}
		switch kind {
		case TransportUDP:
			if err := n.wireUDP(spec, ra, rb); err != nil {
				return nil, err
			}
		default:
			capacity := spec.QueueCap
			if capacity <= 0 {
				capacity = 64
			}
			newQueue := spec.NewQueue
			if newQueue == nil {
				newQueue = func(c int) qos.Scheduler { return qos.NewFIFO(c) }
			}
			ra.AttachLink(netsim.NewLink(n.Sim, spec.A, rb, spec.RateBPS, spec.Delay, newQueue(capacity)))
			rb.AttachLink(netsim.NewLink(n.Sim, spec.B, ra, spec.RateBPS, spec.Delay, newQueue(capacity)))
		}
		if err := n.Topo.AddDuplex(spec.A, spec.B, te.LinkAttrs{
			CapacityBPS: spec.RateBPS,
			Metric:      spec.Metric,
			DelaySec:    spec.Delay,
		}); err != nil {
			return nil, err
		}
	}
	n.LDP = ldp.NewManager(n.Topo)
	for name, r := range n.Routers {
		if err := n.LDP.Register(name, r); err != nil {
			return nil, err
		}
	}
	return n, nil
}

// BuildLocal builds the peer-scoped network of one distributed process:
// the full TE topology (path computation needs the whole graph, and a
// graph is scenario metadata, not router state) but only the named
// router is instantiated — no ghost routers, no ghost label tables. No
// links are wired either; the caller attaches transport links toward
// its actual neighbours, and label bindings arrive over those links via
// the signaling plane instead of being precomputed in-process. The LDP
// manager exists with only the local router registered, for callers
// that program local state directly.
func BuildLocal(nodes []NodeSpec, links []LinkSpec, local string) (*Network, error) {
	n := &Network{
		Sim:     netsim.New(),
		Topo:    te.NewTopology(),
		Routers: make(map[string]*Router),
		Wire:    &transport.Metrics{},
	}
	known := make(map[string]bool, len(nodes))
	for _, spec := range nodes {
		if known[spec.Name] {
			return nil, fmt.Errorf("router: duplicate node %q", spec.Name)
		}
		known[spec.Name] = true
		n.Topo.AddNode(spec.Name)
		if spec.Name != local {
			continue
		}
		plane, err := newPlane(spec)
		if err != nil {
			return nil, err
		}
		n.Routers[spec.Name] = New(n.Sim, spec.Name, plane)
	}
	if _, ok := n.Routers[local]; !ok {
		return nil, fmt.Errorf("router: local node %q not in node specs", local)
	}
	for _, spec := range links {
		if !known[spec.A] {
			return nil, fmt.Errorf("router: link references unknown node %q", spec.A)
		}
		if !known[spec.B] {
			return nil, fmt.Errorf("router: link references unknown node %q", spec.B)
		}
		if err := n.Topo.AddDuplex(spec.A, spec.B, te.LinkAttrs{
			CapacityBPS: spec.RateBPS,
			Metric:      spec.Metric,
			DelaySec:    spec.Delay,
		}); err != nil {
			return nil, err
		}
	}
	n.LDP = ldp.NewManager(n.Topo)
	if err := n.LDP.Register(local, n.Routers[local]); err != nil {
		return nil, err
	}
	return n, nil
}

// TransportOptions returns the options wiring a transport socket into
// this network: shared metrics, drop accounting through the attached
// telemetry sink, and the simulator clock for fault windows. Callers
// building their own sockets (the mplsnode daemon's inter-process
// links) append source/peer options and hand the result to
// transport.Dial or transport.Listen.
func (n *Network) TransportOptions() []transport.Option {
	return []transport.Option{
		transport.WithMetrics(n.Wire),
		transport.WithDropFunc(n.wireDrop),
		transport.WithClock(func() float64 { return n.Sim.Now() }),
		transport.WithPreAdmit(n.guardPreAdmit),
		transport.WithMalformedFunc(n.guardMalformed),
	}
}

// DeliverTo returns a transport receive sink that injects decoded
// batches into the named router under the network lock — the glue
// between a transport.Receiver and this network.
func (n *Network) DeliverTo(name string) func(batch []transport.Inbound) {
	return n.deliverTo(n.Router(name))
}

// Manage registers a closer (a transport link or receiver created
// outside Build) to be torn down with the network.
func (n *Network) Manage(c io.Closer) { n.closers = append(n.closers, c) }

// wireUDP replaces one simulated duplex link with a loopback UDP pair:
// send sides attach to the routers as ordinary wires, receive sides
// deliver decoded batches into the peer router under the network lock.
func (n *Network) wireUDP(spec LinkSpec, ra, rb *Router) error {
	opts := []transport.Option{
		transport.WithMetrics(n.Wire),
		transport.WithDropFunc(n.wireDrop),
		// Fault windows on transport links follow the simulator clock,
		// which RunReal keeps pinned to wall time.
		transport.WithClock(func() float64 { return n.Sim.Now() }),
		transport.WithPreAdmit(n.guardPreAdmit),
		transport.WithMalformedFunc(n.guardMalformed),
	}
	if spec.Coalesce > 1 {
		opts = append(opts, transport.WithCoalesce(spec.Coalesce))
	}
	if spec.SysBatch > 0 {
		opts = append(opts, transport.WithSysBatch(spec.SysBatch))
	}
	d, err := transport.Pair(spec.A, spec.B, n.deliverTo(ra), n.deliverTo(rb), opts, opts)
	if err != nil {
		return err
	}
	ra.AttachLink(d.A)
	rb.AttachLink(d.B)
	n.closers = append(n.closers, d)
	return nil
}

// deliverTo adapts a transport receive batch to the router's Receive
// path: packets are cloned off the receiver's reusable storage and
// injected under the network lock, where the simulator is quiescent
// between RunReal slices.
func (n *Network) deliverTo(r *Router) func(batch []transport.Inbound) {
	return func(batch []transport.Inbound) {
		n.mu.Lock()
		defer n.mu.Unlock()
		for _, in := range batch {
			r.Receive(in.P.Clone(), in.From)
		}
	}
}

// SetGuard attaches one ingress admission guard to every router of
// this network and to its transport sockets (pre-decode quarantine,
// malformed-datagram attribution). Like SetTelemetry, the socket side
// goes through an atomic indirection so sockets created before the
// guard exists still honour it. A nil guard detaches.
func (n *Network) SetGuard(a Admission) {
	if a == nil {
		n.guard.Store(nil)
		for _, r := range n.Routers {
			r.SetAdmission(nil)
		}
		return
	}
	n.guard.Store(&a)
	for _, r := range n.Routers {
		r.SetAdmission(a.Admit)
	}
}

// guardPreAdmit and guardMalformed resolve the guard per event: they
// run on socket goroutines, where the guard (safe for concurrent use,
// no lock on its admission path) is fine but the network lock is not
// held.
func (n *Network) guardPreAdmit(peer string, labelled bool) bool {
	if g := n.guard.Load(); g != nil {
		return (*g).PreAdmit(peer, labelled)
	}
	return true
}

func (n *Network) guardMalformed(peer string) {
	if g := n.guard.Load(); g != nil {
		(*g).Malformed(peer)
	}
}

// wireDrop routes a transport-level drop into whatever sink is
// currently attached; transport links outlive SetTelemetry calls, so
// the indirection is resolved per event.
func (n *Network) wireDrop(reason telemetry.Reason) {
	if s := n.sink.Load(); s != nil && s.Drops != nil {
		s.Drops.Inc(reason)
	}
}

// Drop accounts one drop through the attached telemetry sink — the
// public hook non-router components in front of the routers (the
// ingress admission guard) account through, so their drops land in the
// same node-level counters as everything else.
func (n *Network) Drop(reason telemetry.Reason) { n.wireDrop(reason) }

// RunReal drives the simulator in real time for d seconds of wall
// clock: virtual time tracks wall time in small slices, and between
// slices the network lock is free for transport receivers to inject
// arrivals. Topologies with UDP links must be driven this way —
// Sim.Run would race the socket goroutines and, with no pending
// events, return before any datagram arrives.
func (n *Network) RunReal(d netsim.Time) { n.RunRealStop(d, nil) }

// RunRealStop is RunReal with early termination: it returns at the
// deadline or as soon as stop is closed, whichever comes first — the
// shape a daemon needs to run "forever" yet exit promptly on a
// shutdown signal. The simulator is left quiescent at whatever virtual
// time the last slice reached, so post-run inspection under Lock sees
// a consistent state. A nil stop never fires.
func (n *Network) RunRealStop(d netsim.Time, stop <-chan struct{}) {
	const slice = 200 * time.Microsecond
	start := time.Now()
	for {
		elapsed := time.Since(start).Seconds()
		if elapsed > d {
			elapsed = d
		}
		n.mu.Lock()
		n.Sim.RunUntil(elapsed)
		n.mu.Unlock()
		if elapsed >= d {
			return
		}
		select {
		case <-stop:
			return
		default:
		}
		time.Sleep(slice)
	}
}

// Lock acquires the network lock, serialising direct simulator access
// (installing routes, injecting packets, reading stats) against
// transport deliveries. Pure-sim callers never need it.
func (n *Network) Lock() { n.mu.Lock() }

// Unlock releases the network lock.
func (n *Network) Unlock() { n.mu.Unlock() }

// Close releases every router's data plane through the shared
// DataPlane contract — engine-backed planes stop their workers, serial
// planes are no-ops — and tears down any transport sockets. Planes
// close first: a pumped engine drains its egress staging rings through
// the wires on Close, so the wires must still be up (and the network
// lock must not be held — the pump takes it per flush). It is
// idempotent and safe to call while sends are still in flight:
// transport links count packets racing the teardown as lost, and
// receivers finish their final batch before Close returns.
func (n *Network) Close() {
	n.closing.Do(func() {
		for _, r := range n.Routers {
			_ = r.Plane().Close()
		}
		for _, c := range n.closers {
			_ = c.Close()
		}
	})
}

// SetTelemetry attaches one shared sink to every router — a single
// per-reason view of forwarding loss and one interleaved per-hop trace
// of the whole network, each router attributing events to its own name
// — and to the network's transport links, whose decode failures land
// in the same drop counters under the wire-decode reason. This is the
// only observability attachment point; the former per-field setters
// (drop counters, trace ring) are gone.
func (n *Network) SetTelemetry(s telemetry.Sink) {
	n.sink.Store(&s)
	for _, r := range n.Routers {
		r.SetTelemetry(s)
	}
}

// Router returns a node by name, panicking on unknown names — network
// construction is static, so a miss is a programming error.
func (n *Network) Router(name string) *Router {
	r, ok := n.Routers[name]
	if !ok {
		panic("router: unknown node " + name)
	}
	return r
}

// SetLinkDown fails (or restores) both directions of the a<->b
// connection. Unknown endpoints or links are an error so a typo in a
// failure script cannot silently test nothing.
func (n *Network) SetLinkDown(a, b string, down bool) error {
	ra, ok := n.Routers[a]
	if !ok {
		return fmt.Errorf("router: unknown node %q", a)
	}
	rb, ok := n.Routers[b]
	if !ok {
		return fmt.Errorf("router: unknown node %q", b)
	}
	lab, ok := ra.Link(b)
	if !ok {
		return fmt.Errorf("router: no link %s->%s", a, b)
	}
	lba, ok := rb.Link(a)
	if !ok {
		return fmt.Errorf("router: no link %s->%s", b, a)
	}
	lab.SetDown(down)
	lba.SetDown(down)
	return nil
}
