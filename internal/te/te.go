// Package te implements the traffic engineering substrate the paper's
// motivation rests on: an annotated topology graph, constrained
// shortest-path-first (CSPF) computation, and per-link bandwidth
// reservation. The routing functionality ("software" in the paper's
// hardware/software split) uses it to pick explicit LSP routes that avoid
// congested links, which packages ldp and router then signal and install.
package te

import (
	"errors"
	"fmt"
	"sort"
)

// LinkAttrs are the traffic engineering attributes of one directed link.
type LinkAttrs struct {
	// CapacityBPS is the reservable bandwidth in bits per second.
	CapacityBPS float64
	// ReservedBPS is the bandwidth currently reserved by LSPs.
	ReservedBPS float64
	// Metric is the administrative cost (IGP metric). Zero means 1.
	Metric float64
	// DelaySec is the propagation delay, available as an alternative
	// optimisation objective.
	DelaySec float64
}

// Available returns the unreserved bandwidth.
func (a LinkAttrs) Available() float64 { return a.CapacityBPS - a.ReservedBPS }

func (a LinkAttrs) metric() float64 {
	if a.Metric <= 0 {
		return 1
	}
	return a.Metric
}

// Topology is a directed graph of named routers.
type Topology struct {
	nodes map[string]bool
	links map[string]map[string]*LinkAttrs
}

// Topology errors.
var (
	ErrUnknownNode = errors.New("te: unknown node")
	ErrNoPath      = errors.New("te: no feasible path")
	ErrBandwidth   = errors.New("te: insufficient bandwidth")
	ErrNoLink      = errors.New("te: no such link")
)

// NewTopology returns an empty topology.
func NewTopology() *Topology {
	return &Topology{nodes: make(map[string]bool), links: make(map[string]map[string]*LinkAttrs)}
}

// AddNode registers a router. Adding a node twice is harmless.
func (t *Topology) AddNode(name string) { t.nodes[name] = true }

// Nodes returns the registered node names, sorted.
func (t *Topology) Nodes() []string {
	out := make([]string, 0, len(t.nodes))
	for n := range t.nodes {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// AddLink registers a directed link. Both endpoints must exist.
func (t *Topology) AddLink(from, to string, attrs LinkAttrs) error {
	if !t.nodes[from] {
		return fmt.Errorf("%w: %q", ErrUnknownNode, from)
	}
	if !t.nodes[to] {
		return fmt.Errorf("%w: %q", ErrUnknownNode, to)
	}
	if t.links[from] == nil {
		t.links[from] = make(map[string]*LinkAttrs)
	}
	a := attrs
	t.links[from][to] = &a
	return nil
}

// AddDuplex registers links in both directions with the same attributes.
func (t *Topology) AddDuplex(a, b string, attrs LinkAttrs) error {
	if err := t.AddLink(a, b, attrs); err != nil {
		return err
	}
	return t.AddLink(b, a, attrs)
}

// Link returns the attributes of the from->to link.
func (t *Topology) Link(from, to string) (LinkAttrs, bool) {
	if a, ok := t.links[from][to]; ok {
		return *a, true
	}
	return LinkAttrs{}, false
}

// Neighbours returns the downstream neighbours of a node, sorted for
// deterministic path computation.
func (t *Topology) Neighbours(from string) []string {
	out := make([]string, 0, len(t.links[from]))
	for to := range t.links[from] {
		out = append(out, to)
	}
	sort.Strings(out)
	return out
}

// Objective selects what CSPF minimises.
type Objective int

// Path objectives.
const (
	// MinMetric minimises the sum of administrative metrics.
	MinMetric Objective = iota
	// MinDelay minimises the sum of propagation delays.
	MinDelay
)

// LinkKey names one directed link for exclusion sets.
type LinkKey struct{ From, To string }

// PathRequest is a CSPF query.
type PathRequest struct {
	From, To string
	// BandwidthBPS is the bandwidth constraint: links with less
	// available bandwidth are pruned.
	BandwidthBPS float64
	// ExcludeNodes prunes routers (e.g. for node-disjoint backup paths).
	ExcludeNodes map[string]bool
	// ExcludeLinks prunes individual directed links (e.g. failed links,
	// or a primary path's links for link-disjoint protection).
	ExcludeLinks map[LinkKey]bool
	// Objective selects the cost function; default MinMetric.
	Objective Objective
	// MaxHops, when positive, bounds the path length in links (a CR-LDP
	// hop-count constraint). A cheapest path longer than this is
	// rejected even if no shorter one exists.
	MaxHops int
}

// CSPF computes the cheapest path satisfying the request's constraints
// using Dijkstra over the pruned graph. Ties break toward fewer hops and
// then lexicographically smaller predecessors, so results are
// deterministic.
func (t *Topology) CSPF(req PathRequest) ([]string, error) {
	if !t.nodes[req.From] {
		return nil, fmt.Errorf("%w: %q", ErrUnknownNode, req.From)
	}
	if !t.nodes[req.To] {
		return nil, fmt.Errorf("%w: %q", ErrUnknownNode, req.To)
	}
	if req.ExcludeNodes[req.From] || req.ExcludeNodes[req.To] {
		return nil, fmt.Errorf("%w: endpoint excluded", ErrNoPath)
	}

	type state struct {
		cost float64
		hops int
		prev string
		done bool
	}
	states := map[string]*state{req.From: {}}
	for {
		// Extract the cheapest unsettled node (linear scan: topologies
		// here are tens of nodes, clarity beats a heap).
		var cur string
		var cs *state
		for n, s := range states {
			if s.done {
				continue
			}
			if cs == nil || s.cost < cs.cost || (s.cost == cs.cost && (s.hops < cs.hops || (s.hops == cs.hops && n < cur))) {
				cur, cs = n, s
			}
		}
		if cs == nil {
			return nil, fmt.Errorf("%w: %s -> %s (bw %.0f)", ErrNoPath, req.From, req.To, req.BandwidthBPS)
		}
		if cur == req.To {
			if req.MaxHops > 0 && cs.hops > req.MaxHops {
				return nil, fmt.Errorf("%w: cheapest path %s -> %s has %d hops, limit %d",
					ErrNoPath, req.From, req.To, cs.hops, req.MaxHops)
			}
			break
		}
		cs.done = true
		for _, nb := range t.Neighbours(cur) {
			if req.ExcludeNodes[nb] {
				continue
			}
			if req.ExcludeLinks[LinkKey{cur, nb}] {
				continue
			}
			a := t.links[cur][nb]
			if a.Available() < req.BandwidthBPS {
				continue
			}
			w := a.metric()
			if req.Objective == MinDelay {
				w = a.DelaySec
			}
			next := states[nb]
			cand := state{cost: cs.cost + w, hops: cs.hops + 1, prev: cur}
			if next == nil {
				c := cand
				states[nb] = &c
				continue
			}
			if next.done {
				continue
			}
			if cand.cost < next.cost ||
				(cand.cost == next.cost && (cand.hops < next.hops ||
					(cand.hops == next.hops && cand.prev < next.prev))) {
				*next = cand
			}
		}
	}

	// Walk predecessors back from the destination.
	var path []string
	for n := req.To; ; n = states[n].prev {
		path = append(path, n)
		if n == req.From {
			break
		}
	}
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
	}
	return path, nil
}

// Reserve books bw on every link of the path, atomically: either every
// link has the bandwidth and all are updated, or nothing changes.
func (t *Topology) Reserve(path []string, bw float64) error {
	links, err := t.pathLinks(path)
	if err != nil {
		return err
	}
	for i, a := range links {
		if a.Available() < bw {
			return fmt.Errorf("%w: %s->%s has %.0f of %.0f bps",
				ErrBandwidth, path[i], path[i+1], a.Available(), bw)
		}
	}
	for _, a := range links {
		a.ReservedBPS += bw
	}
	return nil
}

// Release returns bw to every link of the path, clamping at zero so a
// double release cannot create phantom capacity.
func (t *Topology) Release(path []string, bw float64) error {
	links, err := t.pathLinks(path)
	if err != nil {
		return err
	}
	for _, a := range links {
		a.ReservedBPS -= bw
		if a.ReservedBPS < 0 {
			a.ReservedBPS = 0
		}
	}
	return nil
}

func (t *Topology) pathLinks(path []string) ([]*LinkAttrs, error) {
	if len(path) < 2 {
		return nil, fmt.Errorf("%w: path %v too short", ErrNoLink, path)
	}
	links := make([]*LinkAttrs, 0, len(path)-1)
	for i := 0; i+1 < len(path); i++ {
		a, ok := t.links[path[i]][path[i+1]]
		if !ok {
			return nil, fmt.Errorf("%w: %s->%s", ErrNoLink, path[i], path[i+1])
		}
		links = append(links, a)
	}
	return links, nil
}
