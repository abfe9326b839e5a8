package guard

// The mutex-guarded guard this package shipped before admission went
// lock-free, kept verbatim as the reference the oracle and fuzz tests
// drive side by side with Guard: one lock around everything, a Go map
// per peer for the advertised set. It is correct by inspection, which
// is the property a reference needs.

import (
	"sync"

	"embeddedmpls/internal/label"
	"embeddedmpls/internal/packet"
	"embeddedmpls/internal/telemetry"
)

// refLinkState is the mutable per-peer half of the guard.
type refLinkState struct {
	pol        Policy
	advertised map[label.Label]struct{}

	// Token bucket.
	tokens     float64
	lastRefill float64

	// Quarantine breaker.
	malformed   int     // decode failures inside the current window
	windowStart float64 // when the current window opened
	openUntil   float64 // breaker open until this time
	tripped     bool
}

// refGuard is one node's ingress admission state across all its inbound
// links. The zero value is not usable; call New.
type refGuard struct {
	mu    sync.Mutex
	cfg   config
	links map[string]*refLinkState
	drops telemetry.DropCounters
}

// New builds a guard from options.
func newRef(opts ...Option) *refGuard {
	cfg := config{
		links:   map[string]Policy{},
		control: map[uint16]struct{}{},
	}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.now == nil {
		cfg.now = wallClock()
	}
	g := &refGuard{cfg: cfg, links: map[string]*refLinkState{}}
	for peer, pol := range cfg.links {
		g.links[peer] = newRefLinkState(pol, cfg.now())
	}
	return g
}

func newRefLinkState(pol Policy, now float64) *refLinkState {
	pol = pol.withDefaults()
	return &refLinkState{
		pol:        pol,
		advertised: map[label.Label]struct{}{},
		tokens:     float64(pol.Burst),
		lastRefill: now,
	}
}

// state returns (creating if needed) the per-peer state, or nil when
// neither a link override nor the default policy has anything to do
// for this peer.
func (g *refGuard) state(peer string) *refLinkState {
	if st, ok := g.links[peer]; ok {
		return st
	}
	if !g.cfg.def.active() {
		return nil
	}
	st := newRefLinkState(g.cfg.def, g.cfg.now())
	g.links[peer] = st
	return st
}

// Advertise records that the local speaker advertised label l to peer:
// from now on the spoof filter admits it on that link. Idempotent.
func (g *refGuard) Advertise(peer string, l label.Label) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if st := g.state(peer); st != nil {
		st.advertised[l] = struct{}{}
	}
}

// Withdraw removes a previously advertised label from peer's admitted
// set. Idempotent.
func (g *refGuard) Withdraw(peer string, l label.Label) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if st := g.state(peer); st != nil {
		delete(st.advertised, l)
	}
}

// PreAdmit is the pre-decode fast path, called by the transport
// receiver with only the peeked header bits. It returns false — and
// accounts a quarantine drop — iff the peer's circuit breaker is open
// and the datagram claims to carry labelled traffic. Unlabelled
// datagrams always proceed to decode so that control-plane messages
// survive a quarantine (the breaker exists to stop burning CPU on a
// garbage flood, not to kill the session that will tell us the peer
// recovered).
func (g *refGuard) PreAdmit(peer string, labelled bool) bool {
	if !labelled {
		return true
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	st := g.state(peer)
	if st == nil || !g.quarantined(st) {
		return true
	}
	g.drop(telemetry.ReasonQuarantine)
	return false
}

// Malformed reports a wire-decode failure attributed to peer and trips
// the breaker when the configured burst threshold is crossed inside
// the window. Unattributable failures (empty peer) are ignored — there
// is no one to quarantine.
func (g *refGuard) Malformed(peer string) {
	if peer == "" {
		return
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	st := g.state(peer)
	if st == nil || st.pol.QuarantineThreshold <= 0 {
		return
	}
	now := g.cfg.now()
	if now-st.windowStart > st.pol.QuarantineWindow {
		st.windowStart = now
		st.malformed = 0
	}
	st.malformed++
	if st.malformed >= st.pol.QuarantineThreshold && now >= st.openUntil {
		st.openUntil = now + st.pol.QuarantineHold
		st.tripped = true
		st.malformed = 0
		st.windowStart = now
		if g.cfg.events != nil {
			g.cfg.events.Inc(telemetry.EventQuarantineTrip)
		}
	}
}

// quarantined reports whether st's breaker is open, emitting the clear
// event on the first query after the hold expires. Callers hold g.mu.
func (g *refGuard) quarantined(st *refLinkState) bool {
	now := g.cfg.now()
	if now < st.openUntil {
		return true
	}
	if st.tripped {
		st.tripped = false
		if g.cfg.events != nil {
			g.cfg.events.Inc(telemetry.EventQuarantineClear)
		}
	}
	return false
}

// Admit is the post-decode admission decision for one packet arriving
// from peer. False means the packet must be discarded; the guard has
// already accounted the drop. Check order: control classification,
// quarantine, TTL security, spoof filter, token bucket.
func (g *refGuard) Admit(p *packet.Packet, peer string) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	st := g.state(peer)
	if st == nil {
		return true
	}
	_, control := g.cfg.control[p.Header.FlowID]
	control = control && !p.Labelled()

	if !control && g.quarantined(st) {
		g.drop(telemetry.ReasonQuarantine)
		return false
	}

	var top label.Entry
	labelled := p.Labelled()
	if labelled {
		top, _ = p.Stack.Top()
	}

	if st.pol.MinTTL > 0 && !control {
		ttl := p.Header.TTL
		if labelled {
			ttl = top.TTL
		}
		if ttl < st.pol.MinTTL {
			g.drop(telemetry.ReasonTTLSecurity)
			return false
		}
	}

	if st.pol.SpoofFilter && labelled {
		if _, ok := st.advertised[top.Label]; !ok {
			g.drop(telemetry.ReasonLabelSpoof)
			return false
		}
	}

	if st.pol.RatePPS > 0 && !control {
		cos := label.CoS(0) // unlabelled data is best-effort
		if labelled {
			cos = top.CoS
		}
		if !st.take(g.cfg.now(), cos) {
			g.drop(telemetry.ReasonRateLimit)
			return false
		}
	}
	return true
}

// take refills the bucket and spends one token if the class's reserve
// allows it. A class-c packet is admitted only while the bucket holds
// at least reserve(c) tokens, where reserve rises linearly as the
// class falls: the top class (7) needs a single token, best effort
// (0) needs a half-full bucket. Under sustained overload the bucket
// level settles at the admission frontier, so low classes shed first
// and high classes keep flowing at the configured rate.
func (st *refLinkState) take(now float64, cos label.CoS) bool {
	burst := float64(st.pol.Burst)
	st.tokens += (now - st.lastRefill) * st.pol.RatePPS
	if st.tokens > burst {
		st.tokens = burst
	}
	st.lastRefill = now
	reserve := 1 + (burst/2-1)*float64(label.MaxCoS-cos)/float64(label.MaxCoS)
	if st.tokens < reserve {
		return false
	}
	st.tokens--
	return true
}

// drop accounts one rejection. Callers hold g.mu.
func (g *refGuard) drop(r telemetry.Reason) {
	g.drops.Inc(r)
	if g.cfg.forward != nil {
		g.cfg.forward(r)
	}
}

// Drops exposes the guard's own drop counters (also forwarded to the
// WithDropFunc sink, if any).
func (g *refGuard) Drops() *telemetry.DropCounters { return &g.drops }

// Quarantined reports whether peer's circuit breaker is currently open.
func (g *refGuard) Quarantined(peer string) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	st, ok := g.links[peer]
	return ok && g.quarantined(st)
}

// Advertised reports whether label l is currently admitted from peer
// by the spoof filter.
func (g *refGuard) Advertised(peer string, l label.Label) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	st, ok := g.links[peer]
	if !ok {
		return false
	}
	_, ok = st.advertised[l]
	return ok
}

// SetDefaultPolicy replaces the default admission policy at runtime —
// the guard.set RPC path. Peers without a per-link override retune to
// the new policy in place: their advertised label sets and any open
// quarantine hold survive, only the knobs change.
func (g *refGuard) SetDefaultPolicy(p Policy) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.cfg.def = p
	for peer, st := range g.links {
		if _, override := g.cfg.links[peer]; override {
			continue
		}
		st.retune(p, g.cfg.now())
	}
}

// SetLinkPolicy sets (or replaces) the per-link override for one
// inbound peer at runtime, retuning existing state in place.
func (g *refGuard) SetLinkPolicy(peer string, p Policy) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.cfg.links[peer] = p
	if st, ok := g.links[peer]; ok {
		st.retune(p, g.cfg.now())
	} else {
		g.links[peer] = newRefLinkState(p, g.cfg.now())
	}
}

// DefaultPolicy returns the current default admission policy (as
// configured, before per-link defaults are applied).
func (g *refGuard) DefaultPolicy() Policy {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.cfg.def
}

// retune swaps a live link's policy without discarding learned state:
// the advertised set and quarantine bookkeeping carry over. The token
// bucket refills from scratch when rate limiting turns on, and is
// capped to the new burst when it shrinks. Callers hold g.mu.
func (st *refLinkState) retune(p Policy, now float64) {
	prev := st.pol
	st.pol = p.withDefaults()
	switch {
	case prev.RatePPS <= 0 && st.pol.RatePPS > 0:
		st.tokens, st.lastRefill = float64(st.pol.Burst), now
	case st.tokens > float64(st.pol.Burst):
		st.tokens = float64(st.pol.Burst)
	}
}
