// Package guard is the per-link ingress admission layer: the first
// code that judges a datagram after the socket and before the decoder
// and dataplane get to spend cycles on it. The paper assumes a
// cooperative wire; a production MPLS edge does not get one. Following
// the mitigations catalogued in "Security Implications and Mitigation
// Strategies in MPLS Networks" (PAPERS.md), the guard enforces four
// independent checks per inbound link:
//
//   - Label-spoof filtering: a labelled packet is admitted only if its
//     top label was actually advertised to that neighbour by the local
//     signaling speaker. Everything else is either spoofed or stale.
//   - TTL security (GTSM, RFC 5082 style): packets arriving with a TTL
//     below the link's configured minimum are rejected at the edge,
//     defeating multi-hop injection of "one hop" traffic.
//   - Token-bucket rate limiting with CoS-aware shedding: under
//     overload the bucket sheds best-effort first — a class-c packet is
//     admitted only while the bucket still holds that class's reserve —
//     and control-plane traffic is never charged at all, so a data
//     flood cannot starve hellos and keepalives.
//   - Malformed-frame quarantine: repeated wire-decode failures from
//     one peer trip a per-peer circuit breaker. While the breaker is
//     open the peer's labelled traffic is discarded before full decode
//     (PreAdmit) instead of burning CPU on garbage; unlabelled control
//     traffic still passes so a session can survive its peer's bad NIC.
//
// Admission ordering is: PreAdmit (pre-decode, quarantine only) →
// decode → Admit (control classification, quarantine, TTL, spoof,
// bucket) → dataplane. Every rejection lands in its own
// telemetry.Reason so the Prometheus export says why the wire is
// hostile, not just that it is.
//
// The guard depends only on packet, label and telemetry, so transport,
// router and signaling can all reach it without cycles.
//
// All methods are safe for concurrent use, and the per-packet ones are
// built for it: one socket goroutine per shard admits while the
// signaling speaker advertises and withdraws and the management plane
// retunes. Admit, PreAdmit and Quarantined find the peer through an
// atomically published table, read the policy as an immutable snapshot
// and test the advertised label in an atomic bitset; no lock is shared
// between peers or between shards. The token bucket — the one check
// that must count — has a lock per peer, taken only when the policy
// sets a rate; the clock is read only then or while a breaker is armed.
package guard

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"embeddedmpls/internal/label"
	"embeddedmpls/internal/packet"
	"embeddedmpls/internal/telemetry"
)

// wallClock is the default time source: monotonic seconds since the
// guard was built. Distributed nodes run in wall-clock time, so rate
// and quarantine windows are real seconds there; simulated tests
// inject the sim clock with WithClock.
func wallClock() func() float64 {
	start := time.Now()
	return func() float64 { return time.Since(start).Seconds() }
}

// Policy is the per-link admission policy. The zero value disables
// every check (admit all), so links only pay for what the scenario
// configures.
type Policy struct {
	// SpoofFilter admits labelled packets only when the top label is in
	// the link's advertised set (fed by Advertise/Withdraw).
	SpoofFilter bool
	// MinTTL rejects packets whose TTL — the top stack entry's for
	// labelled packets, the IP header's otherwise — is below this
	// value. 0 disables the check.
	MinTTL uint8
	// RatePPS is the token-bucket refill rate in packets per second.
	// <= 0 disables rate limiting.
	RatePPS float64
	// Burst is the bucket capacity in packets. <= 0 defaults to
	// max(16, RatePPS/10).
	Burst int
	// QuarantineThreshold trips the per-peer circuit breaker after this
	// many malformed datagrams inside QuarantineWindow. <= 0 disables
	// quarantine.
	QuarantineThreshold int
	// QuarantineWindow is the burst-counting window in seconds
	// (default 1).
	QuarantineWindow float64
	// QuarantineHold is how long a tripped breaker stays open in
	// seconds (default 5).
	QuarantineHold float64
}

func (p Policy) withDefaults() Policy {
	if p.RatePPS > 0 && p.Burst <= 0 {
		p.Burst = int(p.RatePPS / 10)
		if p.Burst < 16 {
			p.Burst = 16
		}
	}
	if p.QuarantineThreshold > 0 {
		if p.QuarantineWindow <= 0 {
			p.QuarantineWindow = 1
		}
		if p.QuarantineHold <= 0 {
			p.QuarantineHold = 5
		}
	}
	return p
}

// active reports whether the policy enables any check at all.
func (p Policy) active() bool {
	return p.SpoofFilter || p.MinTTL > 0 || p.RatePPS > 0 || p.QuarantineThreshold > 0
}

// Label pages: the advertised set is a bitset over the 20-bit label
// space, paged so a peer pays 512 bytes per 4096-label page it has ever
// been advertised a label in rather than 128 KiB up front.
const (
	pageShift = 12
	pageMask  = 1<<pageShift - 1
)

type labelPage [1 << pageShift / 64]atomic.Uint64

// labelSet is the advertised-label set of one peer. Membership, add
// and remove are O(1) and lock-free: a reader does two atomic loads,
// a writer one compare-and-swap on the word holding the label's bit.
// Pages are allocated on first use and never freed.
type labelSet [(int(label.MaxLabel) + 1) >> pageShift]atomic.Pointer[labelPage]

// word returns the word holding l's bit, or nil when l is not a label
// or (unless alloc) its page was never written.
func (s *labelSet) word(l label.Label, alloc bool) *atomic.Uint64 {
	if !l.Valid() {
		return nil
	}
	slot := &s[l>>pageShift]
	pg := slot.Load()
	if pg == nil {
		if !alloc {
			return nil
		}
		slot.CompareAndSwap(nil, new(labelPage))
		pg = slot.Load()
	}
	return &pg[l&pageMask>>6]
}

func (s *labelSet) has(l label.Label) bool {
	w := s.word(l, false)
	return w != nil && w.Load()>>(l&63)&1 != 0
}

// set adds (on) or removes l.
func (s *labelSet) set(l label.Label, on bool) {
	w := s.word(l, on)
	if w == nil {
		return
	}
	for bit := uint64(1) << (l & 63); ; {
		old := w.Load()
		next := old &^ bit
		if on {
			next = old | bit
		}
		if next == old || w.CompareAndSwap(old, next) {
			return
		}
	}
}

// peerState is the per-peer half of the guard. The admission fast path
// (quarantine, TTL, spoof) reads only the atomics; mu is taken by the
// token bucket when the policy rate-limits, by Malformed, and by a
// retune.
type peerState struct {
	pol        atomic.Pointer[Policy] // defaults applied
	advertised labelSet
	// openUntil is the float64 bits of the time the breaker stays open
	// until; zero means not armed, so an unarmed peer never costs a
	// clock read. The admission that first sees the hold expired swaps
	// it back to zero and emits the clear event.
	openUntil atomic.Uint64

	mu          sync.Mutex
	tokens      float64
	lastRefill  float64
	malformed   int     // decode failures inside the current window
	windowStart float64 // when the current window opened
}

// openAt reports whether the breaker is open at time now.
func (st *peerState) openAt(now float64) bool {
	until := st.openUntil.Load()
	return until != 0 && now < math.Float64frombits(until)
}

type config struct {
	def     Policy
	links   map[string]Policy
	now     func() float64
	forward func(telemetry.Reason)
	events  *telemetry.EventCounters
	control map[uint16]struct{}
}

// Option configures a Guard.
type Option func(*config)

// WithDefaultPolicy sets the policy applied to peers that have no
// per-link override.
func WithDefaultPolicy(p Policy) Option { return func(c *config) { c.def = p } }

// WithLinkPolicy overrides the policy for one inbound peer.
func WithLinkPolicy(peer string, p Policy) Option {
	return func(c *config) { c.links[peer] = p }
}

// WithClock sets the time source (seconds, monotonic). The default
// counts real seconds from construction; tests inject a manual clock.
// The guard calls it from every goroutine that admits.
func WithClock(now func() float64) Option { return func(c *config) { c.now = now } }

// WithDropFunc forwards every guard drop to fn (typically the node's
// shared telemetry sink) in addition to the guard's own counters. fn
// runs on the admitting goroutine with no guard lock held.
func WithDropFunc(fn func(telemetry.Reason)) Option {
	return func(c *config) { c.forward = fn }
}

// WithEvents records quarantine trips and clears in ev.
func WithEvents(ev *telemetry.EventCounters) Option {
	return func(c *config) { c.events = ev }
}

// WithControlFlows names the FlowIDs of control-plane protocols.
// Unlabelled packets carrying one of these IDs bypass quarantine and
// the token bucket: the guard's contract is that it never sheds the
// traffic that keeps sessions alive.
func WithControlFlows(ids ...uint16) Option {
	return func(c *config) {
		for _, id := range ids {
			c.control[id] = struct{}{}
		}
	}
}

// Guard is one node's ingress admission state across all its inbound
// links. The zero value is not usable; call New.
type Guard struct {
	// Fixed at construction, read without synchronisation.
	now     func() float64
	forward func(telemetry.Reason)
	events  *telemetry.EventCounters
	control map[uint16]struct{}

	// mu serialises the writers: policy changes and the publication of
	// a new peer. No admission takes it for a peer already published.
	mu        sync.Mutex
	overrides map[string]Policy // per-link policies as configured
	// def is the default policy as configured; peers is the published
	// peer table, replaced whole (copy-on-write) when a peer is added.
	def   atomic.Pointer[Policy]
	peers atomic.Pointer[map[string]*peerState]

	drops telemetry.DropCounters
}

// New builds a guard from options.
func New(opts ...Option) *Guard {
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
	g := &Guard{
		now:       cfg.now,
		forward:   cfg.forward,
		events:    cfg.events,
		control:   cfg.control,
		overrides: cfg.links,
	}
	g.def.Store(&cfg.def)
	peers := make(map[string]*peerState, len(cfg.links))
	for peer, pol := range cfg.links {
		peers[peer] = newPeerState(pol, cfg.now())
	}
	g.peers.Store(&peers)
	return g
}

func newPeerState(pol Policy, now float64) *peerState {
	pol = pol.withDefaults()
	st := &peerState{tokens: float64(pol.Burst), lastRefill: now}
	st.pol.Store(&pol)
	return st
}

// state returns the per-peer state, or nil when neither a link override
// nor the default policy has anything to do for this peer. A peer first
// seen under an active default policy is published once, under the
// writer lock; every later call is two atomic loads and a map read.
func (g *Guard) state(peer string) *peerState {
	if st := (*g.peers.Load())[peer]; st != nil {
		return st
	}
	if !g.def.Load().active() {
		return nil
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if st := (*g.peers.Load())[peer]; st != nil {
		return st
	}
	def := *g.def.Load()
	if !def.active() {
		return nil
	}
	return g.publishLocked(peer, def)
}

// publishLocked adds a peer to a copy of the peer table and publishes
// the copy. Callers hold g.mu.
func (g *Guard) publishLocked(peer string, pol Policy) *peerState {
	old := *g.peers.Load()
	next := make(map[string]*peerState, len(old)+1)
	for k, v := range old {
		next[k] = v
	}
	st := newPeerState(pol, g.now())
	next[peer] = st
	g.peers.Store(&next)
	return st
}

// Advertise records that the local speaker advertised label l to peer:
// from now on the spoof filter admits it on that link. Idempotent.
func (g *Guard) Advertise(peer string, l label.Label) {
	if st := g.state(peer); st != nil {
		st.advertised.set(l, true)
	}
}

// Withdraw removes a previously advertised label from peer's admitted
// set. Idempotent.
func (g *Guard) Withdraw(peer string, l label.Label) {
	if st := g.state(peer); st != nil {
		st.advertised.set(l, false)
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
func (g *Guard) PreAdmit(peer string, labelled bool) bool {
	if !labelled {
		return true
	}
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
func (g *Guard) Malformed(peer string) {
	if peer == "" {
		return
	}
	st := g.state(peer)
	if st == nil {
		return
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	pol := st.pol.Load()
	if pol.QuarantineThreshold <= 0 {
		return
	}
	now := g.now()
	if now-st.windowStart > pol.QuarantineWindow {
		st.windowStart = now
		st.malformed = 0
	}
	st.malformed++
	if st.malformed < pol.QuarantineThreshold {
		return
	}
	if st.openAt(now) {
		return
	}
	st.openUntil.Store(math.Float64bits(now + pol.QuarantineHold))
	st.malformed = 0
	st.windowStart = now
	if g.events != nil {
		g.events.Inc(telemetry.EventQuarantineTrip)
	}
}

// quarantined reports whether st's breaker is open, emitting the clear
// event on the first query after the hold expires. It is the one read
// Admit, PreAdmit and Quarantined share.
func (g *Guard) quarantined(st *peerState) bool {
	until := st.openUntil.Load()
	if until == 0 {
		return false
	}
	if g.now() < math.Float64frombits(until) {
		return true
	}
	// Whoever wins the swap saw the hold expire first; a Malformed that
	// re-armed the breaker in between makes the swap fail, correctly.
	if st.openUntil.CompareAndSwap(until, 0) && g.events != nil {
		g.events.Inc(telemetry.EventQuarantineClear)
	}
	return false
}

// Admit is the post-decode admission decision for one packet arriving
// from peer. False means the packet must be discarded; the guard has
// already accounted the drop. Check order: control classification,
// quarantine, TTL security, spoof filter, token bucket. Only the token
// bucket takes a lock, and that lock is the peer's own.
func (g *Guard) Admit(p *packet.Packet, peer string) bool {
	st := g.state(peer)
	if st == nil {
		return true
	}
	pol := st.pol.Load()
	labelled := p.Labelled()
	control := false
	if !labelled {
		_, control = g.control[p.Header.FlowID]
	}

	if !control && g.quarantined(st) {
		g.drop(telemetry.ReasonQuarantine)
		return false
	}

	var top label.Entry
	if labelled {
		top, _ = p.Stack.Top()
	}

	if pol.MinTTL > 0 && !control {
		ttl := p.Header.TTL
		if labelled {
			ttl = top.TTL
		}
		if ttl < pol.MinTTL {
			g.drop(telemetry.ReasonTTLSecurity)
			return false
		}
	}

	if pol.SpoofFilter && labelled && !st.advertised.has(top.Label) {
		g.drop(telemetry.ReasonLabelSpoof)
		return false
	}

	if pol.RatePPS > 0 && !control {
		cos := label.CoS(0) // unlabelled data is best-effort
		if labelled {
			cos = top.CoS
		}
		if !st.take(g.now, cos) {
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
//
// The clock is read under the bucket's lock, so refills are ordered
// like the takes and the level never runs backwards.
func (st *peerState) take(clock func() float64, cos label.CoS) bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	pol := st.pol.Load() // a retune stores it under mu
	if pol.RatePPS <= 0 {
		return true
	}
	now := clock()
	burst := float64(pol.Burst)
	st.tokens += (now - st.lastRefill) * pol.RatePPS
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

// drop accounts one rejection.
func (g *Guard) drop(r telemetry.Reason) {
	g.drops.Inc(r)
	if g.forward != nil {
		g.forward(r)
	}
}

// Drops exposes the guard's own drop counters (also forwarded to the
// WithDropFunc sink, if any).
func (g *Guard) Drops() *telemetry.DropCounters { return &g.drops }

// Quarantined reports whether peer's circuit breaker is currently open.
func (g *Guard) Quarantined(peer string) bool {
	st := (*g.peers.Load())[peer]
	return st != nil && g.quarantined(st)
}

// Advertised reports whether label l is currently admitted from peer
// by the spoof filter.
func (g *Guard) Advertised(peer string, l label.Label) bool {
	st := (*g.peers.Load())[peer]
	return st != nil && st.advertised.has(l)
}

// SetDefaultPolicy replaces the default admission policy at runtime —
// the guard.set RPC path. Peers without a per-link override retune to
// the new policy in place: their advertised label sets and any open
// quarantine hold survive, only the knobs change.
func (g *Guard) SetDefaultPolicy(p Policy) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.def.Store(&p)
	for peer, st := range *g.peers.Load() {
		if _, override := g.overrides[peer]; override {
			continue
		}
		st.retune(p, g.now)
	}
}

// SetLinkPolicy sets (or replaces) the per-link override for one
// inbound peer at runtime, retuning existing state in place.
func (g *Guard) SetLinkPolicy(peer string, p Policy) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.overrides[peer] = p
	if st := (*g.peers.Load())[peer]; st != nil {
		st.retune(p, g.now)
	} else {
		g.publishLocked(peer, p)
	}
}

// DefaultPolicy returns the current default admission policy (as
// configured, before per-link defaults are applied).
func (g *Guard) DefaultPolicy() Policy { return *g.def.Load() }

// retune swaps a live link's policy without discarding learned state:
// the advertised set and quarantine bookkeeping carry over. The token
// bucket refills from scratch when rate limiting turns on, and is
// capped to the new burst when it shrinks. Callers hold g.mu.
func (st *peerState) retune(p Policy, clock func() float64) {
	st.mu.Lock()
	defer st.mu.Unlock()
	prev := st.pol.Load()
	next := p.withDefaults()
	st.pol.Store(&next)
	switch {
	case prev.RatePPS <= 0 && next.RatePPS > 0:
		st.tokens, st.lastRefill = float64(next.Burst), clock()
	case st.tokens > float64(next.Burst):
		st.tokens = float64(next.Burst)
	}
}

// RegisterMetrics exposes the guard's drop counters on reg as
// mpls_guard_drops_total{node=...,reason=...}.
func (g *Guard) RegisterMetrics(reg *telemetry.Registry, node string) {
	reg.Drops("mpls_guard_drops_total", "Packets rejected by the ingress admission guard, by reason.",
		telemetry.Labels{"node": node}, &g.drops)
}

// String summarises the guard for operator output.
func (g *Guard) String() string {
	peers := *g.peers.Load()
	open, now := 0, g.now()
	for _, st := range peers {
		if st.openAt(now) {
			open++
		}
	}
	return fmt.Sprintf("guard{links=%d quarantined=%d %v}", len(peers), open, &g.drops)
}
