// Package config loads declarative network scenarios from JSON: nodes,
// links, tunnels, LSPs (explicit or CSPF-routed) and traffic flows. The
// mplssim command runs these files so experiments are reproducible
// artifacts instead of flag soup.
package config

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"sort"
	"strconv"
	"strings"

	"embeddedmpls/internal/guard"
	"embeddedmpls/internal/ldp"
	"embeddedmpls/internal/lsm"
	"embeddedmpls/internal/netsim"
	"embeddedmpls/internal/packet"
	"embeddedmpls/internal/qos"
	"embeddedmpls/internal/resilience"
	"embeddedmpls/internal/router"
	"embeddedmpls/internal/signaling"
	"embeddedmpls/internal/telemetry"
	"embeddedmpls/internal/trafficgen"
	"embeddedmpls/internal/transport"
)

// Scenario is the root of a scenario file.
type Scenario struct {
	Name    string   `json:"name"`
	Nodes   []Node   `json:"nodes"`
	Links   []Link   `json:"links"`
	Tunnels []Tunnel `json:"tunnels,omitempty"`
	LSPs    []LSP    `json:"lsps,omitempty"`
	Flows   []Flow   `json:"flows,omitempty"`
	// DurationS bounds the traffic generators ("stop" defaults to it).
	DurationS float64 `json:"duration_s"`
	// Transport, when present, maps node names to UDP listen addresses
	// for distributed operation: each cmd/mplsnode process builds this
	// same scenario, runs the one router named by its -node flag, and
	// exchanges labeled packets with its neighbours over these sockets.
	Transport *TransportSection `json:"transport,omitempty"`
	// Guard, when present, arms the per-link ingress admission guard on
	// every distributed node (BuildNode): label-spoof filtering, TTL
	// security, rate limiting and malformed-frame quarantine.
	Guard *GuardSection `json:"guard,omitempty"`
}

// TransportSection declares the inter-process wiring of a scenario.
type TransportSection struct {
	// Kind is the transport; "udp" is the only kind (and the default).
	Kind string `json:"kind,omitempty"`
	// Nodes maps every node name to its UDP listen address
	// (host:port). All of a node's neighbours must be listed so its
	// process knows where to dial.
	Nodes map[string]string `json:"nodes"`
	// Mgmt maps node names to management-plane TCP listen addresses
	// (host:port). A node listed here serves the mplsctl RPC surface
	// (lsp provisioning, infobase dumps, telemetry scrape, config
	// reload) on that address; nodes absent from the map run without a
	// management listener.
	Mgmt map[string]string `json:"mgmt,omitempty"`
	// Coalesce packs up to this many packets into one datagram on
	// every inter-process link (transport.WithCoalesce); 0 or 1 sends
	// one datagram per packet.
	Coalesce int `json:"coalesce,omitempty"`
	// SysBatch sets how many datagrams one send/receive syscall moves
	// (transport.WithSysBatch); 0 keeps the transport default.
	SysBatch int `json:"sys_batch,omitempty"`
	// Shards, when > 1, runs each software-plane node's forwarder as a
	// concurrent engine with that many shards and binds it to the wire
	// batch-first in both directions: each socket reader of a sharded
	// SO_REUSEPORT listener forwards its own batches as one engine shard
	// (Engine.Process), and the engine's egress pump flushes them
	// straight onto the links' SendBatch path. 0 or 1 keeps the serial
	// per-packet path. Ignored for hardware-plane nodes.
	Shards int `json:"shards,omitempty"`
}

// options renders the section's batching knobs as transport options.
func (t *TransportSection) options() []transport.Option {
	var opts []transport.Option
	if t.Coalesce > 1 {
		opts = append(opts, transport.WithCoalesce(t.Coalesce))
	}
	if t.SysBatch > 0 {
		opts = append(opts, transport.WithSysBatch(t.SysBatch))
	}
	return opts
}

// GuardSection declares the default ingress admission policy applied
// to every link of every distributed node, with optional per-link
// overrides. Zero values disable the corresponding check.
type GuardSection struct {
	// SpoofFilter admits labelled packets from a neighbour only when
	// they carry a label this node actually advertised to it.
	SpoofFilter bool `json:"spoof_filter,omitempty"`
	// TTLMin is the GTSM-style minimum TTL an arriving packet must
	// carry (checked on the top label entry for labelled packets).
	TTLMin int `json:"ttl_min,omitempty"`
	// RatePPS token-bucket-limits arrivals per link, with CoS-aware
	// shedding: best-effort is shed first, control traffic never.
	RatePPS float64 `json:"rate_pps,omitempty"`
	// Burst is the bucket depth; 0 derives it from RatePPS.
	Burst int `json:"burst,omitempty"`
	// QuarantineThreshold trips a per-peer circuit breaker after this
	// many malformed datagrams inside QuarantineWindowS, blocking that
	// peer's labelled traffic for QuarantineHoldS (control passes).
	QuarantineThreshold int     `json:"quarantine_threshold,omitempty"`
	QuarantineWindowS   float64 `json:"quarantine_window_s,omitempty"`
	QuarantineHoldS     float64 `json:"quarantine_hold_s,omitempty"`
	// Links overrides the defaults for specific (node, peer) pairs.
	Links []GuardLink `json:"links,omitempty"`
}

// GuardLink overrides the guard policy for one direction of one link:
// the guard on Node polices what arrives from Peer. Unset fields
// (nil/zero) inherit the section defaults.
type GuardLink struct {
	Node                string  `json:"node"`
	Peer                string  `json:"peer"`
	SpoofFilter         *bool   `json:"spoof_filter,omitempty"`
	TTLMin              int     `json:"ttl_min,omitempty"`
	RatePPS             float64 `json:"rate_pps,omitempty"`
	Burst               int     `json:"burst,omitempty"`
	QuarantineThreshold int     `json:"quarantine_threshold,omitempty"`
	QuarantineWindowS   float64 `json:"quarantine_window_s,omitempty"`
	QuarantineHoldS     float64 `json:"quarantine_hold_s,omitempty"`
}

// policy renders the section defaults as a guard policy.
func (g *GuardSection) policy() guard.Policy {
	return guard.Policy{
		SpoofFilter:         g.SpoofFilter,
		MinTTL:              uint8(g.TTLMin),
		RatePPS:             g.RatePPS,
		Burst:               g.Burst,
		QuarantineThreshold: g.QuarantineThreshold,
		QuarantineWindow:    g.QuarantineWindowS,
		QuarantineHold:      g.QuarantineHoldS,
	}
}

// policy applies the link's overrides on top of the section default.
func (gl *GuardLink) policy(def guard.Policy) guard.Policy {
	p := def
	if gl.SpoofFilter != nil {
		p.SpoofFilter = *gl.SpoofFilter
	}
	if gl.TTLMin > 0 {
		p.MinTTL = uint8(gl.TTLMin)
	}
	if gl.RatePPS > 0 {
		p.RatePPS = gl.RatePPS
	}
	if gl.Burst > 0 {
		p.Burst = gl.Burst
	}
	if gl.QuarantineThreshold > 0 {
		p.QuarantineThreshold = gl.QuarantineThreshold
	}
	if gl.QuarantineWindowS > 0 {
		p.QuarantineWindow = gl.QuarantineWindowS
	}
	if gl.QuarantineHoldS > 0 {
		p.QuarantineHold = gl.QuarantineHoldS
	}
	return p
}

// Node declares one router.
type Node struct {
	Name string `json:"name"`
	// Plane is "hardware" (the embedded device) or "software".
	Plane string `json:"plane"`
	// Type is "ler" or "lsr" (hardware planes only; default ler).
	Type string `json:"type,omitempty"`
}

// Link declares one duplex connection.
type Link struct {
	A        string  `json:"a"`
	B        string  `json:"b"`
	RateMbps float64 `json:"rate_mbps"`
	DelayMs  float64 `json:"delay_ms"`
	// Queue is "fifo" (default), "priority" or "wrr".
	Queue    string  `json:"queue,omitempty"`
	QueueCap int     `json:"queue_cap,omitempty"`
	Metric   float64 `json:"metric,omitempty"`
	// Transport selects the in-process link kind: "" or "sim" for a
	// simulated link, "udp" for loopback UDP sockets. (Inter-process
	// wiring uses the scenario-level transport section instead.)
	Transport string `json:"transport,omitempty"`
	// Coalesce and SysBatch tune a "udp" link's batching: packets per
	// datagram and datagrams per syscall (router.LinkSpec fields of
	// the same names). Ignored for simulated links.
	Coalesce int `json:"coalesce,omitempty"`
	SysBatch int `json:"sys_batch,omitempty"`
}

// Tunnel declares a hierarchical LSP.
type Tunnel struct {
	ID            string   `json:"id"`
	Path          []string `json:"path"`
	BandwidthMbps float64  `json:"bandwidth_mbps,omitempty"`
}

// LSP declares a label switched path. Give either an explicit Path or
// From/To for CSPF routing.
type LSP struct {
	ID            string   `json:"id"`
	Dst           string   `json:"dst"` // dotted quad
	PrefixLen     int      `json:"prefix_len"`
	Path          []string `json:"path,omitempty"`
	From          string   `json:"from,omitempty"`
	To            string   `json:"to,omitempty"`
	BandwidthMbps float64  `json:"bandwidth_mbps,omitempty"`
	CoS           uint8    `json:"cos,omitempty"`
	PHP           bool     `json:"php,omitempty"`
}

// Flow declares a traffic generator.
type Flow struct {
	ID   uint16 `json:"id"`
	Kind string `json:"kind"` // voip, cbr, bulk, poisson, onoff
	From string `json:"from"`
	Dst  string `json:"dst"`
	// Kind-specific knobs (unused ones ignored).
	SizeBytes  int     `json:"size_bytes,omitempty"`
	IntervalMs float64 `json:"interval_ms,omitempty"`
	RateMbps   float64 `json:"rate_mbps,omitempty"`
	RatePPS    float64 `json:"rate_pps,omitempty"`
	OnMs       float64 `json:"on_ms,omitempty"`
	OffMs      float64 `json:"off_ms,omitempty"`
	StartS     float64 `json:"start_s,omitempty"`
	StopS      float64 `json:"stop_s,omitempty"`
	Seed       int64   `json:"seed,omitempty"`
}

// Errors.
var (
	ErrValidation = errors.New("config: invalid scenario")
)

// Load parses and validates a scenario.
func Load(r io.Reader) (*Scenario, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var s Scenario
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("config: %w", err)
	}
	if err := s.validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

func (s *Scenario) validate() error {
	if len(s.Nodes) == 0 {
		return fmt.Errorf("%w: no nodes", ErrValidation)
	}
	names := map[string]bool{}
	for _, n := range s.Nodes {
		if n.Name == "" {
			return fmt.Errorf("%w: node without a name", ErrValidation)
		}
		if names[n.Name] {
			return fmt.Errorf("%w: duplicate node %q", ErrValidation, n.Name)
		}
		names[n.Name] = true
		switch n.Plane {
		case "", "software", "hardware":
		default:
			return fmt.Errorf("%w: node %q plane %q", ErrValidation, n.Name, n.Plane)
		}
		switch n.Type {
		case "", "ler", "lsr":
		default:
			return fmt.Errorf("%w: node %q type %q", ErrValidation, n.Name, n.Type)
		}
	}
	for i, l := range s.Links {
		if !names[l.A] || !names[l.B] {
			return fmt.Errorf("%w: link %d endpoints %q-%q", ErrValidation, i, l.A, l.B)
		}
		if l.RateMbps <= 0 {
			return fmt.Errorf("%w: link %d rate %v", ErrValidation, i, l.RateMbps)
		}
		switch l.Queue {
		case "", "fifo", "priority", "wrr":
		default:
			return fmt.Errorf("%w: link %d queue %q", ErrValidation, i, l.Queue)
		}
		switch l.Transport {
		case "", router.TransportSim, router.TransportUDP:
		default:
			return fmt.Errorf("%w: link %d transport %q", ErrValidation, i, l.Transport)
		}
		if l.Coalesce < 0 || l.Coalesce > transport.MaxFramePackets {
			return fmt.Errorf("%w: link %d coalesce %d (max %d)", ErrValidation, i, l.Coalesce, transport.MaxFramePackets)
		}
		if l.SysBatch < 0 || l.SysBatch > 128 {
			return fmt.Errorf("%w: link %d sys_batch %d (max 128)", ErrValidation, i, l.SysBatch)
		}
	}
	if t := s.Transport; t != nil {
		switch t.Kind {
		case "", "udp":
		default:
			return fmt.Errorf("%w: transport kind %q (only udp)", ErrValidation, t.Kind)
		}
		for name, addr := range t.Nodes {
			if !names[name] {
				return fmt.Errorf("%w: transport lists unknown node %q", ErrValidation, name)
			}
			if addr == "" {
				return fmt.Errorf("%w: transport node %q has no address", ErrValidation, name)
			}
		}
		for name, addr := range t.Mgmt {
			if !names[name] {
				return fmt.Errorf("%w: transport mgmt lists unknown node %q", ErrValidation, name)
			}
			if addr == "" {
				return fmt.Errorf("%w: transport mgmt node %q has no address", ErrValidation, name)
			}
		}
		if t.Coalesce < 0 || t.Coalesce > transport.MaxFramePackets {
			return fmt.Errorf("%w: transport coalesce %d (max %d)", ErrValidation, t.Coalesce, transport.MaxFramePackets)
		}
		if t.SysBatch < 0 || t.SysBatch > 128 {
			return fmt.Errorf("%w: transport sys_batch %d (max 128)", ErrValidation, t.SysBatch)
		}
		if t.Shards < 0 || t.Shards > 64 {
			return fmt.Errorf("%w: transport shards %d (max 64)", ErrValidation, t.Shards)
		}
	}
	for _, l := range s.LSPs {
		if l.ID == "" || l.Dst == "" {
			return fmt.Errorf("%w: LSP needs id and dst", ErrValidation)
		}
		if len(l.Path) == 0 && (l.From == "" || l.To == "") {
			return fmt.Errorf("%w: LSP %q needs a path or from/to", ErrValidation, l.ID)
		}
		if _, err := ParseAddr(l.Dst); err != nil {
			return fmt.Errorf("%w: LSP %q: %v", ErrValidation, l.ID, err)
		}
	}
	for _, f := range s.Flows {
		if !names[f.From] {
			return fmt.Errorf("%w: flow %d source %q", ErrValidation, f.ID, f.From)
		}
		if _, err := ParseAddr(f.Dst); err != nil {
			return fmt.Errorf("%w: flow %d: %v", ErrValidation, f.ID, err)
		}
		switch f.Kind {
		case "voip", "cbr", "bulk", "poisson", "onoff":
		default:
			return fmt.Errorf("%w: flow %d kind %q", ErrValidation, f.ID, f.Kind)
		}
	}
	if g := s.Guard; g != nil {
		check := func(where string, ttl, burst, threshold int, pps, win, hold float64) error {
			if ttl < 0 || ttl > 255 {
				return fmt.Errorf("%w: guard %s ttl_min %d (0..255)", ErrValidation, where, ttl)
			}
			if pps < 0 || win < 0 || hold < 0 {
				return fmt.Errorf("%w: guard %s has a negative rate or window", ErrValidation, where)
			}
			if burst < 0 || threshold < 0 {
				return fmt.Errorf("%w: guard %s has a negative burst or threshold", ErrValidation, where)
			}
			return nil
		}
		if err := check("defaults", g.TTLMin, g.Burst, g.QuarantineThreshold,
			g.RatePPS, g.QuarantineWindowS, g.QuarantineHoldS); err != nil {
			return err
		}
		adj := map[string]map[string]bool{}
		for _, l := range s.Links {
			if adj[l.A] == nil {
				adj[l.A] = map[string]bool{}
			}
			if adj[l.B] == nil {
				adj[l.B] = map[string]bool{}
			}
			adj[l.A][l.B] = true
			adj[l.B][l.A] = true
		}
		for i, gl := range g.Links {
			where := fmt.Sprintf("link %d (%s<-%s)", i, gl.Node, gl.Peer)
			if !names[gl.Node] || !names[gl.Peer] {
				return fmt.Errorf("%w: guard link %d names unknown node %q or %q", ErrValidation, i, gl.Node, gl.Peer)
			}
			if !adj[gl.Node][gl.Peer] {
				return fmt.Errorf("%w: guard link %d: no %s-%s link in the topology", ErrValidation, i, gl.Node, gl.Peer)
			}
			if err := check(where, gl.TTLMin, gl.Burst, gl.QuarantineThreshold,
				gl.RatePPS, gl.QuarantineWindowS, gl.QuarantineHoldS); err != nil {
				return err
			}
		}
	}
	return nil
}

// ParseAddr parses a dotted-quad address.
func ParseAddr(s string) (packet.Addr, error) {
	parts := strings.Split(s, ".")
	if len(parts) != 4 {
		return 0, fmt.Errorf("address %q is not dotted quad", s)
	}
	var out packet.Addr
	for _, p := range parts {
		v, err := strconv.Atoi(p)
		if err != nil || v < 0 || v > 255 {
			return 0, fmt.Errorf("address %q has bad octet %q", s, p)
		}
		out = out<<8 | packet.Addr(v)
	}
	return out, nil
}

// Built is a constructed scenario ready to run.
type Built struct {
	Scenario  *Scenario
	Net       *router.Network
	Collector *trafficgen.Collector
	// Egresses lists the routers where flows terminate.
	Egresses []string
	// LocalNode is set by BuildNode: the one router this process runs.
	LocalNode string
	// Speaker is set by BuildNode: the local signaling instance. LSPs
	// whose ingress is this node are signalled through it; all label
	// state arrives over the wire.
	Speaker *signaling.Speaker
	// Events is set by BuildNode: control-plane event counters
	// (sessions, mappings, withdraws, protection switches).
	Events *telemetry.EventCounters
	// Guard is set by BuildNode when the scenario has a guard section:
	// the node's ingress admission guard, for telemetry inspection.
	Guard *guard.Guard
	// Drops is set by BuildNode: the node-level drop counters behind the
	// network's telemetry sink. Callers may attach their own sink with
	// Net.SetTelemetry instead, but the management plane's scrape
	// handler reads these.
	Drops *telemetry.DropCounters
	// Registry is set by BuildNode: every mpls_* metric of the node —
	// forwarding drops, control-plane events, guard rejections,
	// transport counters, signaling message totals — registered for the
	// Prometheus text exposition the management plane scrapes.
	Registry *telemetry.Registry
}

// Build constructs the network with a signaling speaker on every router
// and establishes the tunnels and LSPs through them — the Setup path a
// distributed node takes too. It then stops the speakers' ticking, so
// the run is a static network with no keepalives beside the traffic,
// wires collectors at every LSP egress and installs the traffic
// generators. Flow windows count from the moment the LSPs are up. The
// signaling runs in simulated time, so every link must be simulated.
func (s *Scenario) Build() (*Built, error) {
	for _, l := range s.Links {
		if l.Transport == router.TransportUDP {
			return nil, fmt.Errorf("%w: link %s-%s: an in-process build signals in simulated time; run udp links with BuildNode", ErrValidation, l.A, l.B)
		}
	}
	nodes, links := s.specs()
	net, err := router.Build(nodes, links)
	if err != nil {
		return nil, err
	}
	b := &Built{Scenario: s, Net: net, Collector: trafficgen.NewCollector(net.Sim)}
	var reqs []ldp.SetupRequest
	for _, tn := range s.Tunnels {
		reqs = append(reqs, ldp.SetupRequest{ID: tn.ID, Path: tn.Path, Bandwidth: tn.BandwidthMbps * 1e6, Tunnel: true})
	}
	egressSet := map[string]bool{}
	for _, l := range s.LSPs {
		req, _, err := b.setupRequest(l)
		if err != nil {
			return nil, err
		}
		reqs = append(reqs, req)
		egressSet[req.Path[len(req.Path)-1]] = true
	}
	speakers, err := signaling.Deploy(net)
	if err != nil {
		return nil, err
	}
	if err := signaling.Establish(net, speakers, reqs...); err != nil {
		return nil, fmt.Errorf("config: %w", err)
	}
	for _, sp := range speakers {
		sp.Stop()
	}

	for name := range egressSet {
		b.Collector.Attach(net.Router(name))
		b.Egresses = append(b.Egresses, name)
	}
	sort.Strings(b.Egresses)
	for _, f := range s.Flows {
		if err := b.AddFlow(s, f); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// specs converts the scenario's nodes and links to router-layer specs.
func (s *Scenario) specs() ([]router.NodeSpec, []router.LinkSpec) {
	var nodes []router.NodeSpec
	for _, n := range s.Nodes {
		rt := lsm.LER
		if n.Type == "lsr" {
			rt = lsm.LSR
		}
		nodes = append(nodes, router.NodeSpec{
			Name:       n.Name,
			Hardware:   n.Plane == "hardware",
			RouterType: rt,
		})
	}
	var links []router.LinkSpec
	for _, l := range s.Links {
		spec := router.LinkSpec{
			A: l.A, B: l.B,
			RateBPS:   l.RateMbps * 1e6,
			Delay:     l.DelayMs / 1e3,
			QueueCap:  l.QueueCap,
			Metric:    l.Metric,
			Transport: l.Transport,
			Coalesce:  l.Coalesce,
			SysBatch:  l.SysBatch,
		}
		switch l.Queue {
		case "priority":
			spec.NewQueue = func(c int) qos.Scheduler { return qos.NewPriority(c) }
		case "wrr":
			spec.NewQueue = func(c int) qos.Scheduler {
				return qos.NewWRR(c, [qos.NumClasses]int{1, 1, 1, 1, 2, 2, 4, 4})
			}
		}
		links = append(links, spec)
	}
	return nodes, links
}

// BuildNode constructs the scenario for one process of a distributed
// run, peer-scoped: only the named router is instantiated, with UDP
// transport links dialled to its actual neighbours and one listening
// socket for arrivals. The full topology exists only as TE metadata
// (path computation needs the graph); there are no ghost routers and no
// precomputed label tables. A signaling speaker runs LDP-style sessions
// to the neighbours, and every LSP whose ingress is this node is
// signalled through it — label bindings for transit and egress roles
// arrive over the wire from peers. Tunnels are not supported in
// distributed mode. Only flows originating at the node are installed.
// Drive the result with Net.RunReal, and Close the network when done.
func (s *Scenario) BuildNode(name string) (*Built, error) {
	if s.Transport == nil {
		return nil, fmt.Errorf("%w: scenario has no transport section", ErrValidation)
	}
	laddr, ok := s.Transport.Nodes[name]
	if !ok {
		return nil, fmt.Errorf("%w: transport section has no address for node %q", ErrValidation, name)
	}
	if len(s.Tunnels) > 0 {
		return nil, fmt.Errorf("%w: tunnels are not supported in distributed mode", ErrValidation)
	}
	nodes, links := s.specs()
	// transport.shards upgrades the local software plane to the
	// concurrent engine, one shard per listener socket, so the kernel's
	// SO_REUSEPORT hash is the only demultiplexer in front of the shards.
	pumped := false
	if s.Transport.Shards > 1 {
		for i := range nodes {
			if nodes[i].Name == name && !nodes[i].Hardware {
				nodes[i].EngineWorkers = s.Transport.Shards
				pumped = true
			}
		}
	}
	net, err := router.BuildLocal(nodes, links, name)
	if err != nil {
		return nil, err
	}
	b := &Built{
		Scenario:  s,
		Net:       net,
		LocalNode: name,
		Events:    &telemetry.EventCounters{},
		Drops:     &telemetry.DropCounters{},
		Registry:  telemetry.NewRegistry(),
	}
	net.SetTelemetry(telemetry.Sink{Drops: b.Drops})

	// The datagram's source-node id indexes the scenario's node order —
	// the same table in every process, shared by transport framing and
	// signaling.
	names := make([]string, len(s.Nodes))
	ids := make(map[string]transport.NodeID, len(s.Nodes))
	for i, n := range s.Nodes {
		names[i] = n.Name
		ids[n.Name] = transport.NodeID(i)
	}
	// The admission guard must be armed before the socket opens so no
	// unguarded window exists. Its checks run on socket goroutines ahead
	// of the network lock, so it keeps its default wall clock — never
	// the simulator's.
	if g := s.Guard; g != nil {
		def := g.policy()
		gopts := []guard.Option{
			guard.WithDefaultPolicy(def),
			guard.WithControlFlows(signaling.FlowID, resilience.ProbeFlowID),
			guard.WithDropFunc(net.Drop),
			guard.WithEvents(b.Events),
		}
		for _, gl := range g.Links {
			if gl.Node != name {
				continue
			}
			gopts = append(gopts, guard.WithLinkPolicy(gl.Peer, gl.policy(def)))
		}
		b.Guard = guard.New(gopts...)
		net.SetGuard(b.Guard)
	}
	b.registerMetrics(name)

	base := append(net.TransportOptions(), s.Transport.options()...)
	lopts := append(append([]transport.Option{}, base...), transport.WithNames(names))
	var rcv io.Closer
	if pumped {
		// The egress pump attaches before the listener opens so the first
		// arrival already finds the batch path armed end to end.
		if err := net.AttachEgressPump(name); err != nil {
			net.Close()
			return nil, fmt.Errorf("config: node %s: %w", name, err)
		}
		rcv, err = transport.ListenSharded(laddr, s.Transport.Shards,
			func(i int) func(batch []transport.Inbound) { return net.FeedTo(name, i) }, lopts...)
	} else {
		rcv, err = transport.Listen(laddr, net.DeliverTo(name), lopts...)
	}
	if err != nil {
		net.Close()
		return nil, fmt.Errorf("config: node %s: %w", name, err)
	}
	net.Manage(rcv)

	// From here on inbound datagrams may arrive concurrently; the rest
	// of construction mutates router and speaker state, so it runs
	// under the network lock like any delivery. Close must wait until
	// the lock is released — receivers drain their final batch through
	// the same lock.
	locked := func() error {
		local := net.Router(name)
		for _, l := range s.Links {
			var nb string
			switch name {
			case l.A:
				nb = l.B
			case l.B:
				nb = l.A
			default:
				continue
			}
			raddr, ok := s.Transport.Nodes[nb]
			if !ok {
				return fmt.Errorf("%w: transport section has no address for neighbour %q of %q", ErrValidation, nb, name)
			}
			w, err := transport.Dial(name, nb, raddr,
				append(append([]transport.Option{}, base...), transport.WithSource(ids[name]))...)
			if err != nil {
				return fmt.Errorf("config: node %s: %w", name, err)
			}
			local.AttachLink(w)
			net.Manage(w)
		}

		// Hostile-wire hardening: dead sessions redial through paced
		// exponential backoff instead of hot hello loops, keepalives
		// stretch under control-plane load, and flapping links are
		// damped out of protection CSPF until they calm down.
		seed := fnv.New64a()
		seed.Write([]byte(name))
		sigOpts := []signaling.Option{
			signaling.WithEvents(b.Events),
			signaling.WithMaintenance(0.5),
			signaling.WithAdaptiveKeepalive(500),
			signaling.WithRestartPolicy(resilience.NewRetryer(net.Sim,
				resilience.Backoff{Base: 0.1, Max: 2, MaxAttempts: 30},
				int64(seed.Sum64()), b.Events, nil)),
		}
		if b.Guard != nil {
			sigOpts = append(sigOpts, signaling.WithGuard(b.Guard))
		}
		sp, err := signaling.New(local, net.Topo, net.Sim, names, name, sigOpts...)
		if err != nil {
			return fmt.Errorf("config: node %s: %w", name, err)
		}
		resilience.BindDamping(sp, resilience.NewDamper(net.Sim, resilience.DamperConfig{}, b.Events))
		sp.Start()
		b.Speaker = sp

		// Egresses come from LSP metadata; the collector only attaches
		// locally. LSPs starting here are signalled; the rest of each
		// path materialises via the speakers of the other processes.
		b.Collector = trafficgen.NewCollector(net.Sim)
		egressSet := map[string]bool{}
		for _, l := range s.LSPs {
			req, ingress, err := b.setupRequest(l)
			if err != nil {
				return err
			}
			egressSet[req.Path[len(req.Path)-1]] = true
			if !ingress {
				continue
			}
			if err := sp.Setup(req, nil); err != nil {
				return fmt.Errorf("config: LSP %q: %w", l.ID, err)
			}
		}
		for n := range egressSet {
			b.Egresses = append(b.Egresses, n)
		}
		sort.Strings(b.Egresses)
		if egressSet[name] {
			b.Collector.Attach(local)
		}
		for _, f := range s.Flows {
			if f.From != name {
				continue
			}
			if err := b.AddFlow(s, f); err != nil {
				return err
			}
		}
		return nil
	}
	net.Lock()
	err = locked()
	net.Unlock()
	if err != nil {
		net.Close()
		return nil, err
	}
	return b, nil
}

func (s *Scenario) generator(f Flow) (trafficgen.Generator, error) {
	dst, err := ParseAddr(f.Dst)
	if err != nil {
		return nil, err
	}
	flow := trafficgen.Flow{ID: f.ID, Dst: dst}
	stop := f.StopS
	if stop == 0 {
		stop = s.DurationS
	}
	if stop <= f.StartS {
		return nil, fmt.Errorf("%w: flow %d stops (%gs) before it starts (%gs)", ErrValidation, f.ID, stop, f.StartS)
	}
	size := f.SizeBytes
	if size == 0 {
		size = 512
	}
	switch f.Kind {
	case "voip":
		return trafficgen.VoIP(flow, f.StartS, stop), nil
	case "cbr":
		if f.IntervalMs <= 0 {
			return nil, fmt.Errorf("%w: cbr flow %d needs interval_ms", ErrValidation, f.ID)
		}
		return trafficgen.CBR{Flow: flow, Size: size, Interval: f.IntervalMs / 1e3, Start: f.StartS, Stop: stop}, nil
	case "bulk":
		if f.RateMbps <= 0 {
			return nil, fmt.Errorf("%w: bulk flow %d needs rate_mbps", ErrValidation, f.ID)
		}
		return trafficgen.Bulk{Flow: flow, Size: size, RateBPS: f.RateMbps * 1e6, Start: f.StartS, Stop: stop}, nil
	case "poisson":
		if f.RatePPS <= 0 {
			return nil, fmt.Errorf("%w: poisson flow %d needs rate_pps", ErrValidation, f.ID)
		}
		return trafficgen.Poisson{Flow: flow, Size: size, RatePPS: f.RatePPS, Start: f.StartS, Stop: stop, Seed: f.Seed}, nil
	case "onoff":
		if f.RateMbps <= 0 || f.OnMs <= 0 {
			return nil, fmt.Errorf("%w: onoff flow %d needs rate_mbps and on_ms", ErrValidation, f.ID)
		}
		return trafficgen.OnOff{
			Flow: flow, Size: size, PeakBPS: f.RateMbps * 1e6,
			On: f.OnMs / 1e3, Off: f.OffMs / 1e3, Start: f.StartS, Stop: stop,
		}, nil
	default:
		return nil, fmt.Errorf("%w: flow %d kind %q", ErrValidation, f.ID, f.Kind)
	}
}

// Run executes the scenario until the event queue drains and returns the
// simulated end time.
func (b *Built) Run() netsim.Time {
	b.Net.Sim.Run()
	return b.Net.Sim.Now()
}

// registerMetrics populates the node's Registry with every mpls_*
// series the management plane exposes via telemetry.scrape. Counter
// values are read through callbacks at scrape time; the speaker's plain
// counters are only read under the network lock, which the scrape
// handler holds.
func (b *Built) registerMetrics(name string) {
	reg, labels := b.Registry, telemetry.Labels{"node": name}
	reg.Drops("mpls_node_drops_total",
		"Packets dropped by this node, by reason (forwarding, wire decode, admission).",
		labels, b.Drops)
	reg.Events("mpls_events_total",
		"Control-plane fault and recovery events on this node.",
		labels, b.Events)
	b.Net.Wire.Register(reg, labels)
	if b.Guard != nil {
		b.Guard.RegisterMetrics(reg, name)
	}
	reg.Gauge("mpls_sim_time_seconds", "Node clock (wall-tracking in distributed mode).",
		labels, func() float64 { return float64(b.Net.Sim.Now()) })
	speakerCounter := func(read func(*signaling.Speaker) uint64) func() uint64 {
		return func() uint64 {
			if b.Speaker == nil {
				return 0
			}
			return read(b.Speaker)
		}
	}
	reg.Counter("mpls_signaling_tx_total", "Signaling messages sent.",
		labels, speakerCounter(func(sp *signaling.Speaker) uint64 { return sp.Stats.Tx }))
	reg.Counter("mpls_signaling_rx_total", "Signaling messages received and decoded.",
		labels, speakerCounter(func(sp *signaling.Speaker) uint64 { return sp.Stats.Rx }))
	reg.Counter("mpls_signaling_map_rx_total", "Label mappings received.",
		labels, speakerCounter(func(sp *signaling.Speaker) uint64 { return sp.Stats.MapRx }))
	reg.Counter("mpls_signaling_withdraw_rx_total", "Label withdraws received.",
		labels, speakerCounter(func(sp *signaling.Speaker) uint64 { return sp.Stats.WithdrawRx }))
}
