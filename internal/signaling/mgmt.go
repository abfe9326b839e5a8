package signaling

import (
	"fmt"

	"embeddedmpls/internal/label"
	"embeddedmpls/internal/ldp"
	"embeddedmpls/internal/te"
)

// This file is the speaker's management-plane surface: the runtime
// provisioning, teardown and inspection entry points the mgmt RPC
// handlers call. Like every other speaker entry point it is not
// internally locked — callers serialise on the network lock.

// LSPInfo is one LSP generation crossing this node, as reported to the
// management plane.
type LSPInfo struct {
	ID          string   `json:"id"`   // base id
	Gen         int      `json:"gen"`  // generation (0 on non-ingress hops)
	Role        string   `json:"role"` // ingress | transit | egress
	FEC         string   `json:"fec"`  // "a.b.c.d/len"
	CoS         uint8    `json:"cos"`
	Route       []string `json:"route,omitempty"`
	Established bool     `json:"established"`
	Pending     bool     `json:"pending,omitempty"` // ingress base awaiting (re)signal
	InLabel     uint32   `json:"in_label,omitempty"`
	OutLabel    uint32   `json:"out_label,omitempty"`
	Upstream    string   `json:"upstream,omitempty"`
	Downstream  string   `json:"downstream,omitempty"`
	Bandwidth   float64  `json:"bandwidth,omitempty"`
}

// SessionInfo is one signaling session's observable state.
type SessionInfo struct {
	Peer  string `json:"peer"`
	State string `json:"state"`
	Up    bool   `json:"up"`
}

// validateSetup checks the parts of a setup request that do not depend
// on existing state: Setup and Provision share it, but only Setup
// rejects an id that is already in use (Provision re-signals it
// make-before-break instead). The first hop must be a link: an LSP
// enters a tunnel at its head, never at its own ingress. A tunnel runs
// over links only (the hardware's three stack levels are spent by one
// tunnel layer under labelled traffic) and takes no PHP, since its tail
// must pop and re-examine.
func (s *Speaker) validateSetup(req ldp.SetupRequest) error {
	if req.ID == "" {
		return fmt.Errorf("signaling: LSP needs an id")
	}
	if len(req.ID) > MaxIDLen-4 {
		return fmt.Errorf("signaling: LSP id %q longer than %d", req.ID, MaxIDLen-4)
	}
	if len(req.Path) < 2 {
		return fmt.Errorf("signaling: path needs at least 2 nodes")
	}
	if req.Path[0] != s.name {
		return fmt.Errorf("signaling: path starts at %q, speaker is %q", req.Path[0], s.name)
	}
	if req.PHP && len(req.Path) < 3 {
		return fmt.Errorf("signaling: PHP needs at least 3 hops")
	}
	for _, n := range req.Path {
		if _, ok := s.ids[n]; !ok {
			return fmt.Errorf("signaling: unknown node %q in path", n)
		}
	}
	if !s.direct(req.Path[1]) {
		return fmt.Errorf("signaling: path starts with %s->%s, which is not a link", req.Path[0], req.Path[1])
	}
	if !req.Tunnel {
		return nil
	}
	if req.PHP {
		return fmt.Errorf("signaling: tunnels do not support PHP")
	}
	for i := 1; i+1 < len(req.Path); i++ {
		if _, ok := s.topo.Link(req.Path[i], req.Path[i+1]); !ok {
			return fmt.Errorf("signaling: tunnel hop %s->%s is not a link: tunnels cannot ride tunnels", req.Path[i], req.Path[i+1])
		}
	}
	return nil
}

// ridden returns an error when an LSP through this node rides the
// tunnel l heads: tearing the tunnel down or re-provisioning it would
// strand the riders, whose entries here push its first label.
func (s *Speaker) ridden(l *lsp) error {
	tail := l.route[len(l.route)-1]
	if !l.tunnel || s.direct(tail) {
		return nil
	}
	for _, id := range sortedKeys(s.lsps) {
		if r := s.lsps[id]; !r.tunnel && r.downstream == tail {
			return fmt.Errorf("signaling: tunnel %q is used by another LSP: %q rides it", l.base, r.base)
		}
	}
	return nil
}

// Provision establishes or re-establishes an LSP at runtime. For a
// fresh id it behaves exactly like Setup. For an id this ingress
// already owns it signals the request as the next generation and
// switches traffic make-before-break: the old path keeps forwarding
// until the new one maps, then drains and releases — the same
// machinery protection switches use, driven by an operator instead of
// a failure.
func (s *Speaker) Provision(req ldp.SetupRequest, done func(error)) error {
	old, exists := s.byBase[req.ID]
	if !exists {
		return s.Setup(req, done)
	}
	if err := s.validateSetup(req); err != nil {
		return err
	}
	if err := s.ridden(old); err != nil {
		return err
	}
	nl := generation(req, old.gen+1, done)
	old.done = nil
	if _, live := s.lsps[old.id]; live {
		nl.prev = old // make-before-break: release old only once nl maps
	}
	s.byBase[nl.base] = nl
	if err := s.signal(nl); err != nil {
		delete(s.lsps, nl.id)
		s.byBase[nl.base] = old
		return err
	}
	return nil
}

// Teardown removes an ingress LSP at runtime: the release cascades
// downstream so every hop frees its label, tables and reservation, and
// the base id becomes reusable. Only the ingress may tear an LSP down,
// and a tunnel only once nothing rides it.
func (s *Speaker) Teardown(base string) error {
	l, ok := s.byBase[base]
	if !ok {
		return fmt.Errorf("signaling: no ingress LSP %q on %s", base, s.name)
	}
	if err := s.ridden(l); err != nil {
		return err
	}
	// Mid-make-before-break the superseded generation is still installed
	// downstream; release it too or its labels leak until session churn.
	if prev := l.prev; prev != nil {
		l.prev = nil
		s.releaseGeneration(prev)
	}
	if cur, live := s.lsps[l.id]; live && cur == l {
		s.sendRelease(l)
		s.tearLocal(l, false)
		delete(s.lsps, l.id)
	}
	l.done = nil
	delete(s.byBase, base)
	delete(s.avoids, base)
	return nil
}

// List reports every LSP generation with state on this node, plus
// ingress bases that are registered but currently unsignalled (failed,
// awaiting the maintenance sweep) — those appear with Pending set.
func (s *Speaker) List() []LSPInfo {
	out := make([]LSPInfo, 0, len(s.lsps))
	for _, id := range sortedKeys(s.lsps) {
		out = append(out, s.info(s.lsps[id], false))
	}
	for _, base := range sortedKeys(s.byBase) {
		l := s.byBase[base]
		if _, live := s.lsps[l.id]; !live {
			out = append(out, s.info(l, true))
		}
	}
	return out
}

func (s *Speaker) info(l *lsp, pending bool) LSPInfo {
	role := "transit"
	switch {
	case l.ingress():
		role = "ingress"
	case l.egress():
		role = "egress"
	}
	return LSPInfo{
		ID:          l.base,
		Gen:         l.gen,
		Role:        role,
		FEC:         fmt.Sprintf("%v/%d", l.fec.Dst, l.fec.PrefixLen),
		CoS:         uint8(l.cos),
		Route:       append([]string(nil), l.route...),
		Established: l.mapped,
		Pending:     pending,
		InLabel:     uint32(l.inLabel),
		OutLabel:    uint32(l.outLabel),
		Upstream:    l.upstream,
		Downstream:  l.downstream,
		Bandwidth:   l.bandwidth,
	}
}

// Sessions reports every signaling session's state in peer order.
func (s *Speaker) Sessions() []SessionInfo {
	peers := s.Peers()
	out := make([]SessionInfo, 0, len(peers))
	for _, p := range peers {
		sess := s.sessions[p]
		out = append(out, SessionInfo{Peer: p, State: sess.State().String(), Up: sess.Up()})
	}
	return out
}

// SetGuard attaches (or replaces) the admission guard observing label
// advertisements, and replays the current advertisement state into it
// so labels mapped before the guard existed stay admitted. This is how
// guard.set arms a guard on a node that booted without one.
func (s *Speaker) SetGuard(g LabelGuard) {
	s.cfg.guard = g
	if g == nil {
		return
	}
	for _, id := range sortedKeys(s.lsps) {
		l := s.lsps[id]
		if l.upstream != "" && l.inLabel != 0 && l.inLabel != label.ImplicitNull {
			g.Advertise(l.upstream, l.inLabel)
		}
	}
}

// Path computes a CSPF path from this node to egress with the
// requested bandwidth — lsp.provision uses it for requests that name
// only an egress and leave routing to the node.
func (s *Speaker) Path(egress string, bandwidth float64) ([]string, error) {
	if _, ok := s.ids[egress]; !ok {
		return nil, fmt.Errorf("signaling: unknown node %q", egress)
	}
	return s.topo.CSPF(te.PathRequest{From: s.name, To: egress, BandwidthBPS: bandwidth})
}
