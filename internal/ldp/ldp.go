// Package ldp implements the label distribution side of the architecture
// — the "routing functionality" the paper keeps in software. It sets up
// label switched paths along explicit routes (in the style of CR-LDP /
// RSVP-TE, which the paper cites as the label distribution protocols that
// make MPLS useful for traffic engineering and QoS) using ordered
// downstream label allocation: the router at the downstream end of each
// hop owns the label for that hop, and a label mapping message propagates
// upstream installing the forwarding entries.
//
// Hierarchical LSPs (the paper's Figure 3 tunnels) are supported: a
// tunnel is an LSP without a FEC, and another LSP may use the tunnel
// head->tail as one of its hops, which materialises as a label push at
// the head and a pop-and-reexamine at the tail — exactly the label stack
// behaviour the embedded hardware implements.
package ldp

import (
	"errors"
	"fmt"

	"embeddedmpls/internal/label"
	"embeddedmpls/internal/packet"
	"embeddedmpls/internal/swmpls"
	"embeddedmpls/internal/te"
)

// Installer is a router's table programming surface. Both data planes
// (the embedded device and the software forwarder) provide it.
type Installer interface {
	InstallFEC(dst packet.Addr, prefixLen int, n swmpls.NHLFE) error
	InstallILM(in label.Label, n swmpls.NHLFE) error
	RemoveILM(in label.Label)
	RemoveFEC(dst packet.Addr, prefixLen int)
}

// FEC is the forwarding equivalence class an LSP carries: a destination
// prefix. The embedded hardware exact-matches packet identifiers, so for
// hardware routers PrefixLen must be 32.
type FEC struct {
	Dst       packet.Addr
	PrefixLen int
}

// LSP describes one established label switched path.
type LSP struct {
	ID   string
	FEC  *FEC // nil for tunnels
	Path []string
	// HopLabels[i] is the label owned by Path[i+1] for the hop into it
	// (zero where the hop rides a tunnel and reuses the upstream label).
	HopLabels []label.Label
	// Bandwidth reserved on every (non-tunnel) hop.
	Bandwidth float64
	// PHP: the penultimate router pops instead of the egress.
	PHP bool
	// CoS stamped on labels pushed at the ingress.
	CoS label.CoS
	// Tunnel marks an LSP with no FEC, usable as a hop by other LSPs.
	Tunnel bool

	installed []installedEntry
	reserved  [][]string // topology segments holding reservations
}

type installedEntry struct {
	router string
	isFEC  bool
	fec    FEC
	in     label.Label
}

// Message is one logged label-mapping exchange, for tests and tracing.
type Message struct {
	From, To string
	LSP      string
	Label    label.Label
}

// Manager coordinates label allocation and LSP setup across routers.
type Manager struct {
	topo    *te.Topology
	routers map[string]Installer
	lsps    map[string]*LSP
	next    label.Label
	// Messages logs every label mapping sent, upstream order.
	Messages []Message
}

// Manager errors.
var (
	ErrUnknownRouter = errors.New("ldp: unknown router")
	ErrDuplicateLSP  = errors.New("ldp: LSP id already exists")
	ErrUnknownLSP    = errors.New("ldp: unknown LSP")
	ErrBadPath       = errors.New("ldp: invalid explicit path")
	ErrTunnelInUse   = errors.New("ldp: tunnel is used by another LSP")
	ErrNotAdjacent   = errors.New("ldp: consecutive hops not adjacent")
)

// NewManager builds a manager over the given topology.
func NewManager(topo *te.Topology) *Manager {
	return &Manager{
		topo:    topo,
		routers: make(map[string]Installer),
		lsps:    make(map[string]*LSP),
		next:    label.FirstUnreserved,
	}
}

// Register adds a router's programming surface under its name. The name
// must be a node of the topology.
func (m *Manager) Register(name string, inst Installer) error {
	found := false
	for _, n := range m.topo.Nodes() {
		if n == name {
			found = true
			break
		}
	}
	if !found {
		return fmt.Errorf("%w: %q not in topology", ErrUnknownRouter, name)
	}
	m.routers[name] = inst
	return nil
}

// allocLabel hands out platform-wide unique labels. Network-wide
// uniqueness is a valid special case of per-platform label spaces, and it
// is what lets a label ride a tunnel unchanged (the paper's Figure 3
// semantics) without collisions at the tunnel tail. It fails once the
// 20-bit label space is used up.
func (m *Manager) allocLabel() (label.Label, error) {
	if m.next > label.MaxLabel {
		return 0, label.ErrLabelSpaceExhausted
	}
	l := m.next
	m.next++
	return l, nil
}

// LSP returns an established LSP by id.
func (m *Manager) LSP(id string) (*LSP, bool) {
	l, ok := m.lsps[id]
	return l, ok
}

// SetupRequest describes an LSP to establish.
type SetupRequest struct {
	ID   string
	FEC  FEC
	Path []string
	// Bandwidth to reserve on each hop (0 = none).
	Bandwidth float64
	// PHP enables penultimate hop popping.
	PHP bool
	// CoS is stamped on labels pushed at the ingress, selecting the
	// scheduling class of the LSP's packets through the core.
	CoS label.CoS
}

// SetupLSP establishes an LSP along the explicit path. Consecutive path
// entries must either be adjacent in the topology or be the head and
// tail of an established tunnel; tunnel hops get a push at the head and
// reuse the upstream label through to the tail.
func (m *Manager) SetupLSP(req SetupRequest) (*LSP, error) {
	l, err := m.setup(req.ID, &req.FEC, req.Path, req.Bandwidth, req.PHP, req.CoS)
	if err != nil {
		return nil, err
	}
	return l, nil
}

// SetupTunnel establishes a tunnel: an LSP with no FEC whose head/tail
// pair other LSPs can use as a hop. Tunnels must run over real topology
// links (no nested tunnels-in-tunnels; the hardware supports three stack
// levels, which two tunnel layers already exhaust for labelled traffic).
func (m *Manager) SetupTunnel(id string, path []string, bandwidth float64) (*LSP, error) {
	l, err := m.setup(id, nil, path, bandwidth, false, 0)
	if err != nil {
		return nil, err
	}
	l.Tunnel = true
	return l, nil
}

// findTunnel returns an established tunnel with the given head and tail.
func (m *Manager) findTunnel(head, tail string) *LSP {
	for _, l := range m.lsps {
		if l.Tunnel && l.Path[0] == head && l.Path[len(l.Path)-1] == tail {
			return l
		}
	}
	return nil
}

func (m *Manager) setup(id string, fec *FEC, path []string, bw float64, php bool, cos label.CoS) (*LSP, error) {
	if _, dup := m.lsps[id]; dup {
		return nil, fmt.Errorf("%w: %q", ErrDuplicateLSP, id)
	}
	if len(path) < 2 {
		return nil, fmt.Errorf("%w: need at least 2 hops, got %v", ErrBadPath, path)
	}
	if php && len(path) < 3 {
		return nil, fmt.Errorf("%w: PHP needs at least 3 hops", ErrBadPath)
	}
	for _, r := range path {
		if m.routers[r] == nil {
			return nil, fmt.Errorf("%w: %q", ErrUnknownRouter, r)
		}
	}

	// Classify each hop: direct link or tunnel.
	hops := make([]pathHop, 0, len(path)-1)
	for i := 0; i+1 < len(path); i++ {
		h := pathHop{from: path[i], to: path[i+1]}
		if _, ok := m.topo.Link(h.from, h.to); !ok {
			t := m.findTunnel(h.from, h.to)
			if t == nil {
				return nil, fmt.Errorf("%w: %s->%s", ErrNotAdjacent, h.from, h.to)
			}
			if fec == nil {
				return nil, fmt.Errorf("%w: tunnels cannot ride tunnels", ErrNotAdjacent)
			}
			h.tunnel = t
		}
		hops = append(hops, h)
	}
	if fec == nil && php {
		return nil, fmt.Errorf("%w: tunnels do not support PHP", ErrBadPath)
	}

	l := &LSP{ID: id, Path: append([]string(nil), path...), Bandwidth: bw, PHP: php, CoS: cos}
	if fec != nil {
		f := *fec
		l.FEC = &f
	}

	// Reserve bandwidth on direct segments (tunnel segments were
	// reserved by the tunnel itself).
	if bw > 0 {
		var seg []string
		flush := func() error {
			if len(seg) >= 2 {
				if err := m.topo.Reserve(seg, bw); err != nil {
					return err
				}
				l.reserved = append(l.reserved, append([]string(nil), seg...))
			}
			seg = nil
			return nil
		}
		for i, h := range hops {
			if h.tunnel != nil {
				if err := flush(); err != nil {
					m.rollback(l)
					return nil, err
				}
				continue
			}
			if len(seg) == 0 {
				seg = append(seg, h.from)
			}
			seg = append(seg, h.to)
			if i == len(hops)-1 {
				if err := flush(); err != nil {
					m.rollback(l)
					return nil, err
				}
			}
		}
	}

	// Ordered downstream allocation: walk hops from egress to ingress.
	// labelInto[i] is the label carried on the wire into Path[i+1].
	labelInto := make([]label.Label, len(hops))
	logged := len(m.Messages)
	for i := len(hops) - 1; i >= 0; i-- {
		h := hops[i]
		if h.tunnel != nil {
			// The label is unchanged through the tunnel: the tail keys
			// on the same label the head received. For an ingress-side
			// tunnel hop there is no upstream label; handled below.
			if i == 0 {
				m.rollback(l)
				return nil, fmt.Errorf("%w: path cannot start with a tunnel hop at the ingress", ErrBadPath)
			}
			labelInto[i] = 0 // resolved to labelInto[i-1] at install time
			continue
		}
		if php && i == len(hops)-1 {
			// With PHP the egress receives unlabelled packets; the
			// penultimate hop carries the implicit-null convention.
			labelInto[i] = 0
			continue
		}
		var err error
		if labelInto[i], err = m.allocLabel(); err != nil {
			// Nothing is installed yet; the mappings logged for the
			// hops below were never sent.
			m.Messages = m.Messages[:logged]
			m.rollback(l)
			return nil, fmt.Errorf("ldp: LSP %s: %w", id, err)
		}
		m.Messages = append(m.Messages, Message{From: h.to, To: h.from, LSP: id, Label: labelInto[i]})
	}

	// Install entries from egress upstream so no router ever forwards
	// onto a not-yet-installed label.
	if err := m.install(l, hops, labelInto, php); err != nil {
		m.rollback(l)
		return nil, err
	}
	l.HopLabels = labelInto
	m.lsps[id] = l
	return l, nil
}

// pathHop is one hop of an explicit path: a direct link, or a ride over
// an established tunnel.
type pathHop struct {
	from, to string
	tunnel   *LSP
}

func (m *Manager) install(l *LSP, hops []pathHop, labelInto []label.Label, php bool) error {
	// carried[i]: the label on the packet as it arrives at Path[i+1].
	carried := make([]label.Label, len(hops))
	for i := range hops {
		if hops[i].tunnel != nil {
			carried[i] = carried[i-1]
		} else {
			carried[i] = labelInto[i]
		}
	}

	add := func(router string, e installedEntry, install func(Installer) error) error {
		inst := m.routers[router]
		if err := install(inst); err != nil {
			return fmt.Errorf("ldp: installing on %s: %w", router, err)
		}
		e.router = router
		l.installed = append(l.installed, e)
		return nil
	}

	// Egress and transit entries, downstream first.
	for i := len(hops) - 1; i >= 1; i-- {
		h := hops[i]
		in := carried[i-1] // label on the packet arriving at h.from
		router := h.from
		var n swmpls.NHLFE
		switch {
		case h.tunnel != nil:
			// Tunnel head: push the tunnel's first-hop label on top.
			tunnelFirst := h.tunnel.HopLabels[0]
			n = swmpls.NHLFE{NextHop: h.tunnel.Path[1], Op: label.OpPush, PushLabels: []label.Label{tunnelFirst}}
		case php && i == len(hops)-1:
			// Penultimate hop pops; egress receives an IP packet.
			n = swmpls.NHLFE{NextHop: h.to, Op: label.OpPop}
		default:
			n = swmpls.NHLFE{NextHop: h.to, Op: label.OpSwap, PushLabels: []label.Label{carried[i]}}
		}
		if err := add(router, installedEntry{in: in}, func(inst Installer) error {
			return inst.InstallILM(in, n)
		}); err != nil {
			return err
		}
	}

	// Terminal entry at the true egress (unless PHP already stripped the
	// label). Tunnels pop and re-examine locally (NextHop "").
	if !php {
		egress := l.Path[len(l.Path)-1]
		in := carried[len(carried)-1]
		n := swmpls.NHLFE{Op: label.OpPop}
		if l.FEC == nil {
			n.NextHop = "" // tunnel tail: pop, then re-examine the inner label
		}
		if err := add(egress, installedEntry{in: in}, func(inst Installer) error {
			return inst.InstallILM(in, n)
		}); err != nil {
			return err
		}
	}

	// Ingress FTN entry.
	if l.FEC != nil {
		ingress := l.Path[0]
		first := hops[0]
		n := swmpls.NHLFE{NextHop: first.to, Op: label.OpPush, PushLabels: []label.Label{carried[0]}, CoS: l.CoS}
		fec := *l.FEC
		if err := add(ingress, installedEntry{isFEC: true, fec: fec}, func(inst Installer) error {
			return inst.InstallFEC(fec.Dst, fec.PrefixLen, n)
		}); err != nil {
			return err
		}
	}
	return nil
}

// Reroute moves an established LSP onto a new explicit path,
// make-before-break: the new path's labels are allocated and installed
// first, the ingress FTN entry is atomically replaced (installers have
// replace semantics per FEC), and only then is the old path's state torn
// down. The break is immediate, so in-flight packets on the old path are
// lost when their labels disappear; the signaling speaker's reroute
// holds the old path for a drain delay instead. Tunnels cannot be
// rerouted while in use.
func (m *Manager) Reroute(id string, newPath []string) error {
	old, ok := m.lsps[id]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownLSP, id)
	}
	if old.Tunnel {
		for _, other := range m.lsps {
			for i := 0; i+1 < len(other.Path); i++ {
				if other != old && other.Path[i] == old.Path[0] &&
					other.Path[i+1] == old.Path[len(old.Path)-1] {
					if _, direct := m.topo.Link(other.Path[i], other.Path[i+1]); !direct {
						return fmt.Errorf("%w: %q rides %q", ErrTunnelInUse, other.ID, id)
					}
				}
			}
		}
	}
	// Establish the new path under the same id (freed from the registry
	// so setup does not see a duplicate; restored on failure).
	delete(m.lsps, id)
	fresh, err := m.setup(id, old.FEC, newPath, old.Bandwidth, old.PHP, old.CoS)
	if err != nil {
		m.lsps[id] = old
		return err
	}
	fresh.Tunnel = old.Tunnel
	// Break: remove the old path's label entries and reservations. The
	// ingress FTN was already replaced by the new install, so it must
	// not be removed here.
	m.teardownState(old, true)
	return nil
}

// TearDown removes an LSP's entries and reservations. Tearing down a
// tunnel still used by another LSP is refused.
func (m *Manager) TearDown(id string) error {
	l, ok := m.lsps[id]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownLSP, id)
	}
	if l.Tunnel {
		for _, other := range m.lsps {
			if other == l {
				continue
			}
			for i := 0; i+1 < len(other.Path); i++ {
				if _, direct := m.topo.Link(other.Path[i], other.Path[i+1]); !direct &&
					other.Path[i] == l.Path[0] && other.Path[i+1] == l.Path[len(l.Path)-1] {
					return fmt.Errorf("%w: %q rides %q", ErrTunnelInUse, other.ID, id)
				}
			}
		}
	}
	m.rollback(l)
	delete(m.lsps, id)
	return nil
}

// rollback removes whatever setup managed to install or reserve.
func (m *Manager) rollback(l *LSP) { m.teardownState(l, false) }

// teardownState removes an LSP's installed entries and reservations.
// skipFEC leaves the ingress FTN binding alone — used by Reroute, where
// the new path's install has already replaced it.
func (m *Manager) teardownState(l *LSP, skipFEC bool) {
	for _, e := range l.installed {
		inst := m.routers[e.router]
		if inst == nil {
			continue
		}
		if e.isFEC {
			if !skipFEC {
				inst.RemoveFEC(e.fec.Dst, e.fec.PrefixLen)
			}
		} else {
			inst.RemoveILM(e.in)
		}
	}
	l.installed = nil
	for _, seg := range l.reserved {
		// Release cannot fail on segments Reserve accepted.
		_ = m.topo.Release(seg, l.Bandwidth)
	}
	l.reserved = nil
}
