package config

import (
	"fmt"
	"sort"

	"embeddedmpls/internal/guard"
	"embeddedmpls/internal/label"
	"embeddedmpls/internal/ldp"
	"embeddedmpls/internal/resilience"
	"embeddedmpls/internal/signaling"
	"embeddedmpls/internal/te"
)

// This file is the config.reload half of the management plane: a node
// re-Loads its scenario file, and ApplyDelta reconciles the running
// state against the new scenario without a restart. Additive and
// mutable changes apply live — new LSPs are signalled, removed ones
// released, changed ones re-signalled make-before-break, new flows
// start generating, guard policy retunes in place. Structural changes
// (topology, transport wiring) are reported as skipped: they need a
// process restart, and silently ignoring them would let the file and
// the running node drift apart unnoticed.

// ReloadReport says what ApplyDelta did, so the operator sees exactly
// which parts of the file took effect.
type ReloadReport struct {
	// AddedLSPs / RemovedLSPs / ChangedLSPs list reconciled LSP ids
	// whose ingress is this node (other nodes learn over the wire).
	AddedLSPs   []string `json:"added_lsps,omitempty"`
	RemovedLSPs []string `json:"removed_lsps,omitempty"`
	ChangedLSPs []string `json:"changed_lsps,omitempty"`
	// AddedFlows lists flow ids newly generating from this node.
	AddedFlows []uint16 `json:"added_flows,omitempty"`
	// GuardUpdated reports a live retune (or first arming) of the
	// admission guard.
	GuardUpdated bool `json:"guard_updated,omitempty"`
	// Skipped names changes the node detected but cannot apply without
	// a restart.
	Skipped []string `json:"skipped,omitempty"`
}

// Empty reports whether the reload was a no-op.
func (r *ReloadReport) Empty() bool {
	return len(r.AddedLSPs) == 0 && len(r.RemovedLSPs) == 0 && len(r.ChangedLSPs) == 0 &&
		len(r.AddedFlows) == 0 && !r.GuardUpdated && len(r.Skipped) == 0
}

// lspEqual compares the parts of an LSP declaration that affect the
// signalled path.
func lspEqual(a, b LSP) bool {
	if a.ID != b.ID || a.Dst != b.Dst || a.PrefixLen != b.PrefixLen ||
		a.From != b.From || a.To != b.To || a.BandwidthMbps != b.BandwidthMbps ||
		a.CoS != b.CoS || a.PHP != b.PHP || len(a.Path) != len(b.Path) {
		return false
	}
	for i := range a.Path {
		if a.Path[i] != b.Path[i] {
			return false
		}
	}
	return true
}

// ApplyDelta reconciles the node's running state against next, which
// must already be validated (Load does this). The caller holds the
// network lock; BuildNode must have produced b (ApplyDelta drives the
// speaker). On success b.Scenario is replaced by next so later reloads
// diff against what is actually applied.
func (b *Built) ApplyDelta(next *Scenario) (*ReloadReport, error) {
	if b.Speaker == nil {
		return nil, fmt.Errorf("%w: ApplyDelta needs a signalled node (BuildNode)", ErrValidation)
	}
	cur := b.Scenario
	rep := &ReloadReport{}

	// Structural sections are immutable at runtime: sockets are bound,
	// links dialled, routers built. Detect, report, and apply nothing
	// from them.
	if !nodesEqual(cur.Nodes, next.Nodes) {
		rep.Skipped = append(rep.Skipped, "nodes: topology changes need a restart")
	}
	if !linksEqual(cur.Links, next.Links) {
		rep.Skipped = append(rep.Skipped, "links: topology changes need a restart")
	}
	if !transportEqual(cur.Transport, next.Transport) {
		rep.Skipped = append(rep.Skipped, "transport: wiring changes need a restart")
	}
	if len(next.Tunnels) > 0 {
		rep.Skipped = append(rep.Skipped, "tunnels: not supported in distributed mode")
	}

	// LSP reconciliation, ingress-local only: this node signals the
	// paths it heads; every other hop materialises via the wire.
	curLSPs := map[string]LSP{}
	for _, l := range cur.LSPs {
		curLSPs[l.ID] = l
	}
	nextLSPs := map[string]LSP{}
	for _, l := range next.LSPs {
		nextLSPs[l.ID] = l
		old, exists := curLSPs[l.ID]
		if exists && lspEqual(old, l) {
			continue
		}
		req, ingress, err := b.setupRequest(l)
		if err != nil {
			return nil, err
		}
		if !ingress {
			continue
		}
		if err := b.Speaker.Provision(req, nil); err != nil {
			return nil, fmt.Errorf("config: reload LSP %q: %w", l.ID, err)
		}
		if exists {
			rep.ChangedLSPs = append(rep.ChangedLSPs, l.ID)
		} else {
			rep.AddedLSPs = append(rep.AddedLSPs, l.ID)
		}
	}
	for _, l := range cur.LSPs {
		if _, kept := nextLSPs[l.ID]; kept {
			continue
		}
		if ing, err := b.lspIngress(l); err != nil || ing != b.LocalNode {
			continue
		}
		if err := b.Speaker.Teardown(l.ID); err == nil {
			rep.RemovedLSPs = append(rep.RemovedLSPs, l.ID)
		}
	}
	sort.Strings(rep.AddedLSPs)
	sort.Strings(rep.ChangedLSPs)
	sort.Strings(rep.RemovedLSPs)

	// Flow reconciliation: generators cannot be stopped once scheduled,
	// so only additions apply; a removed or changed flow is reported.
	curFlows := map[uint16]Flow{}
	for _, f := range cur.Flows {
		curFlows[f.ID] = f
	}
	for _, f := range next.Flows {
		old, exists := curFlows[f.ID]
		if exists {
			if old != f {
				rep.Skipped = append(rep.Skipped, fmt.Sprintf("flow %d: running generators cannot change", f.ID))
			}
			delete(curFlows, f.ID)
			continue
		}
		if f.From != b.LocalNode {
			continue
		}
		if err := b.AddFlow(next, f); err != nil {
			return nil, err
		}
		rep.AddedFlows = append(rep.AddedFlows, f.ID)
	}
	for id := range curFlows {
		rep.Skipped = append(rep.Skipped, fmt.Sprintf("flow %d: running generators cannot be removed", id))
	}
	sort.Slice(rep.AddedFlows, func(i, j int) bool { return rep.AddedFlows[i] < rep.AddedFlows[j] })
	sort.Strings(rep.Skipped)

	// Guard: live retune, or first arming of a node that booted open.
	if changed, err := b.applyGuardSection(next.Guard); err != nil {
		return nil, err
	} else if changed {
		rep.GuardUpdated = true
	}

	b.Scenario = next
	return rep, nil
}

// ProvisionLSP signals one scenario-shaped LSP declaration at runtime —
// the lsp.provision RPC path. The path may be explicit or CSPF-routed
// (From defaults to this node); its ingress must be this node, since a
// speaker can only head its own LSPs. Re-provisioning an id this node
// already heads switches it make-before-break. The caller holds the
// network lock; establishment is asynchronous (poll lsp.list).
func (b *Built) ProvisionLSP(l LSP) error {
	if len(l.Path) == 0 && l.From == "" {
		l.From = b.LocalNode
	}
	req, ingress, err := b.setupRequest(l)
	if err != nil {
		return err
	}
	if !ingress {
		return fmt.Errorf("%w: LSP %q starts at %q, not this node (%s)",
			ErrValidation, l.ID, req.Path[0], b.LocalNode)
	}
	if err := b.Speaker.Provision(req, nil); err != nil {
		return fmt.Errorf("config: LSP %q: %w", l.ID, err)
	}
	return nil
}

// setupRequest renders a scenario LSP as a signaling request, routing
// via CSPF when the file gives no explicit path, and marks the local
// egress delivery address. ingress reports whether this node heads the
// path (only then should the caller signal it).
func (b *Built) setupRequest(l LSP) (req ldp.SetupRequest, ingress bool, err error) {
	dst, err := ParseAddr(l.Dst)
	if err != nil {
		return req, false, fmt.Errorf("config: LSP %q: %w", l.ID, err)
	}
	path := l.Path
	if len(path) == 0 {
		path, err = b.Net.Topo.CSPF(te.PathRequest{
			From: l.From, To: l.To, BandwidthBPS: l.BandwidthMbps * 1e6,
		})
		if err != nil {
			return req, false, fmt.Errorf("config: LSP %q: %w", l.ID, err)
		}
	}
	if path[len(path)-1] == b.LocalNode {
		b.Net.Router(b.LocalNode).AddLocal(dst)
	}
	plen := l.PrefixLen
	if plen == 0 {
		plen = 32
	}
	req = ldp.SetupRequest{
		ID:        l.ID,
		FEC:       ldp.FEC{Dst: dst, PrefixLen: plen},
		Path:      path,
		Bandwidth: l.BandwidthMbps * 1e6,
		CoS:       label.CoS(l.CoS),
		PHP:       l.PHP,
	}
	return req, path[0] == b.LocalNode, nil
}

// lspIngress names the head of a declared LSP without signalling
// anything.
func (b *Built) lspIngress(l LSP) (string, error) {
	if len(l.Path) > 0 {
		return l.Path[0], nil
	}
	if l.From == "" {
		return "", fmt.Errorf("%w: LSP %q has no path or from", ErrValidation, l.ID)
	}
	return l.From, nil
}

// AddFlow installs one traffic generator at its source router, at build
// time or at runtime. start_s and stop_s are interpreted relative to
// the node's current clock — "start 1s from now, stop 10s from now" —
// and stop_s of 0 falls back to the scenario duration as a relative
// window. s supplies the duration default (the scenario the flow came
// from). A distributed node's caller holds the network lock.
func (b *Built) AddFlow(s *Scenario, f Flow) error {
	now := float64(b.Net.Sim.Now())
	stop := f.StopS
	if stop == 0 {
		stop = s.DurationS
	}
	shifted := f
	shifted.StopS = now + stop
	// StartS stays as-is: generators schedule their first tick StartS
	// seconds after installation, which is already relative to now.
	gen, err := s.generator(shifted)
	if err != nil {
		return err
	}
	gen.Install(b.Net.Sim, b.Net.Router(f.From), b.Collector)
	return nil
}

// applyGuardSection reconciles the node's admission guard against a
// scenario guard section: retuning a live guard in place, or building
// and arming one on a node that booted without (the spoof filter
// learns the already-advertised labels from the speaker's replay). A
// nil section with a live guard is reported as changed=false — guards
// do not disarm at runtime, operators open individual checks instead
// (zero values admit everything). The caller holds the network lock.
func (b *Built) applyGuardSection(g *GuardSection) (changed bool, err error) {
	if g == nil {
		return false, nil
	}
	if sameGuardSection(b.Scenario.Guard, g) && b.Guard != nil {
		return false, nil
	}
	def := g.policy()
	if b.Guard == nil {
		gopts := []guard.Option{
			guard.WithDefaultPolicy(def),
			guard.WithControlFlows(signaling.FlowID, resilience.ProbeFlowID),
			guard.WithDropFunc(b.Net.Drop),
			guard.WithEvents(b.Events),
		}
		for _, gl := range g.Links {
			if gl.Node != b.LocalNode {
				continue
			}
			gopts = append(gopts, guard.WithLinkPolicy(gl.Peer, gl.policy(def)))
		}
		b.Guard = guard.New(gopts...)
		b.Net.SetGuard(b.Guard)
		b.Speaker.SetGuard(b.Guard)
		b.Guard.RegisterMetrics(b.Registry, b.LocalNode)
		return true, nil
	}
	b.Guard.SetDefaultPolicy(def)
	for _, gl := range g.Links {
		if gl.Node != b.LocalNode {
			continue
		}
		b.Guard.SetLinkPolicy(gl.Peer, gl.policy(def))
	}
	return true, nil
}

// SetGuardSpec applies a "key=value,key=value" guard override at
// runtime — the guard.set RPC path. It reuses the same Overrides merge
// path the -guard flag goes through at boot, then retunes (or arms)
// the live guard from the merged section. The caller holds the
// network lock.
func (b *Built) SetGuardSpec(spec string) (*GuardSection, error) {
	o := Overrides{Guard: spec}
	// Merge onto a copy of the running scenario so a bad spec cannot
	// leave the stored section half-assigned.
	merged := *b.Scenario
	if merged.Guard != nil {
		gcopy := *merged.Guard
		merged.Guard = &gcopy
	}
	if err := o.Apply(&merged); err != nil {
		return nil, err
	}
	// applyGuardSection diffs against b.Scenario.Guard (still the
	// pre-override section), so an actual change always retunes.
	if _, err := b.applyGuardSection(merged.Guard); err != nil {
		return nil, err
	}
	b.Scenario.Guard = merged.Guard
	return merged.Guard, nil
}

func nodesEqual(a, b []Node) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func linksEqual(a, b []Link) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func transportEqual(a, b *TransportSection) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	if a == nil {
		return true
	}
	if a.Kind != b.Kind || a.Coalesce != b.Coalesce || a.SysBatch != b.SysBatch ||
		len(a.Nodes) != len(b.Nodes) || len(a.Mgmt) != len(b.Mgmt) {
		return false
	}
	for k, v := range a.Nodes {
		if b.Nodes[k] != v {
			return false
		}
	}
	for k, v := range a.Mgmt {
		if b.Mgmt[k] != v {
			return false
		}
	}
	return true
}

func sameGuardSection(a, b *GuardSection) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	if a == nil {
		return true
	}
	if a.SpoofFilter != b.SpoofFilter || a.TTLMin != b.TTLMin || a.RatePPS != b.RatePPS ||
		a.Burst != b.Burst || a.QuarantineThreshold != b.QuarantineThreshold ||
		a.QuarantineWindowS != b.QuarantineWindowS || a.QuarantineHoldS != b.QuarantineHoldS ||
		len(a.Links) != len(b.Links) {
		return false
	}
	for i := range a.Links {
		if !guardLinkEqual(a.Links[i], b.Links[i]) {
			return false
		}
	}
	return true
}

func guardLinkEqual(a, b GuardLink) bool {
	if a.Node != b.Node || a.Peer != b.Peer || a.TTLMin != b.TTLMin ||
		a.RatePPS != b.RatePPS || a.Burst != b.Burst ||
		a.QuarantineThreshold != b.QuarantineThreshold ||
		a.QuarantineWindowS != b.QuarantineWindowS || a.QuarantineHoldS != b.QuarantineHoldS {
		return false
	}
	if (a.SpoofFilter == nil) != (b.SpoofFilter == nil) {
		return false
	}
	return a.SpoofFilter == nil || *a.SpoofFilter == *b.SpoofFilter
}
