package signaling

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strconv"

	"embeddedmpls/internal/label"
	"embeddedmpls/internal/ldp"
	"embeddedmpls/internal/packet"
	"embeddedmpls/internal/router"
	"embeddedmpls/internal/swmpls"
	"embeddedmpls/internal/te"
	"embeddedmpls/internal/telemetry"
	"embeddedmpls/internal/transport"
)

// FlowID marks signaling packets; the speaker's control sink claims
// them before delivery statistics, like the resilience probes.
const FlowID uint16 = 0xfdb5

// ControlAddr is the well-known control-plane address of a node. The
// 241.0/16 prefix keeps it clear of traffic addresses and of the
// resilience monitor's 240.0/16 probe addresses.
func ControlAddr(id transport.NodeID) packet.Addr {
	return packet.AddrFrom(241, 0, byte(id>>8), byte(id))
}

// Clock is the time source the speaker schedules against; the network
// simulator satisfies it directly.
type Clock interface {
	Now() float64
	Schedule(delay float64, f func())
}

// Counters aggregates a speaker's message accounting.
type Counters struct {
	Tx         uint64 // signaling messages sent
	Rx         uint64 // signaling messages received and decoded
	MapRx      uint64 // label mappings received
	WithdrawRx uint64 // label withdraws received
}

// Speaker is one node's signaling instance: a session per directly
// linked neighbour, plus the downstream-on-demand label distribution
// state machine. It is not internally locked — in simulation every
// entry point runs on the simulator's event loop, and in distributed
// mode the network's deliver path and the caller's setup path
// serialise on the network lock.
type Speaker struct {
	name  string
	self  transport.NodeID
	names []string
	ids   map[string]transport.NodeID
	r     *router.Router
	topo  *te.Topology
	clock Clock
	cfg   config

	sessions  map[string]*Session
	lsps      map[string]*lsp // by generation-qualified id
	byBase    map[string]*lsp // ingress LSPs by base id, current generation
	next, end label.Label     // this node's label block: [next, end) is unallocated
	addr      packet.Addr
	pending   map[string][]*Message // messages queued for a not-yet-up session
	rx        Message               // reusable decode target
	stopped   bool
	redialing map[string]bool                   // peers with a restart-policy redial in flight
	avoids    map[string]map[te.LinkKey]float64 // per-base avoid memory: link -> expiry
	excluder  func() map[te.LinkKey]bool        // external CSPF exclusions (flap damping)
	lastRx    uint64                            // Stats.Rx at last maintenance sweep

	// Stats counts signaling traffic through this speaker.
	Stats Counters

	// OnSessionUp and OnSessionDown observe session transitions;
	// OnEstablished fires each time a path generation of an ingress LSP
	// completes mapping (including after a protection switch). All are
	// optional.
	OnSessionUp   func(peer string)
	OnSessionDown func(peer string)
	OnEstablished func(id string, path []string)
}

// lsp is the per-node state of one LSP generation crossing this node.
type lsp struct {
	id           string // generation-qualified: "base#gen"
	base         string
	gen          int
	fec          ldp.FEC
	cos          label.CoS
	php          bool
	tunnel       bool
	bandwidth    float64
	route        []string // full path, ingress first
	upstream     string   // "" at the ingress
	downstream   string   // "" at the egress
	inLabel      label.Label
	outLabel     label.Label
	ftnInstalled bool
	ilmInstalled bool
	reserved     bool // local outgoing segment reserved
	mapped       bool
	attempts     int
	done         func(error)
	prev         *lsp // ingress make-before-break: generation awaiting release
}

func (l *lsp) ingress() bool { return l.upstream == "" }
func (l *lsp) egress() bool  { return l.downstream == "" }

// New builds a speaker for router r. names is the cluster's full node
// name table in NodeID order (the same table the transport layer uses);
// self must appear in it. A session is created toward every attached
// link whose far end is a known node; call Start to begin signaling.
func New(r *router.Router, topo *te.Topology, clock Clock, names []string, self string, opts ...Option) (*Speaker, error) {
	var cfg config
	for _, o := range opts {
		o(&cfg)
	}
	s := &Speaker{
		name:      self,
		names:     append([]string(nil), names...),
		ids:       make(map[string]transport.NodeID, len(names)),
		r:         r,
		topo:      topo,
		clock:     clock,
		cfg:       cfg,
		sessions:  make(map[string]*Session),
		lsps:      make(map[string]*lsp),
		byBase:    make(map[string]*lsp),
		pending:   make(map[string][]*Message),
		redialing: make(map[string]bool),
		avoids:    make(map[string]map[te.LinkKey]float64),
	}
	for i, n := range names {
		if _, dup := s.ids[n]; dup {
			return nil, fmt.Errorf("signaling: duplicate node name %q", n)
		}
		s.ids[n] = transport.NodeID(i)
	}
	id, ok := s.ids[self]
	if !ok {
		return nil, fmt.Errorf("signaling: node %q not in name table", self)
	}
	s.self = id
	block := (label.MaxLabel + 1 - label.FirstUnreserved) / label.Label(len(names))
	s.next = label.FirstUnreserved + label.Label(id)*block
	s.end = s.next + block
	s.addr = ControlAddr(id)
	r.AddLocal(s.addr)
	r.AddControlSink(s.sink)
	for _, l := range r.Links() {
		peer := l.To()
		if _, known := s.ids[peer]; !known {
			continue
		}
		s.sessions[peer] = NewSession(peer, Timers{},
			func(t MsgType) { s.sendSession(peer, t) },
			func() { s.sessionUp(peer) },
			func() { s.sessionDown(peer) })
	}
	return s, nil
}

// Name returns the speaker's node name.
func (s *Speaker) Name() string { return s.name }

// Peers returns the session peers in sorted order.
func (s *Speaker) Peers() []string { return sortedKeys(s.sessions) }

// sortedKeys returns m's keys in order, so every walk over speaker
// state is deterministic.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Session returns the session toward peer, if one exists.
func (s *Speaker) Session(peer string) (*Session, bool) {
	sess, ok := s.sessions[peer]
	return sess, ok
}

// Start begins session ticking on the clock. Sessions discover their
// peers with hellos and converge to operational on their own.
func (s *Speaker) Start() {
	for _, peer := range s.Peers() {
		sess := s.sessions[peer]
		s.clock.Schedule(0, func() { s.tick(sess) })
	}
	if s.cfg.maintIvl > 0 {
		s.clock.Schedule(s.cfg.maintIvl, func() { s.maintain() })
	}
}

// SetPathExcluder installs a CSPF exclusion source consulted on every
// reroute — the seam flap damping uses to keep suppressed links out of
// protection paths. fn runs in the speaker's serialisation context.
func (s *Speaker) SetPathExcluder(fn func() map[te.LinkKey]bool) { s.excluder = fn }

// Stop halts all ticking after the current round.
func (s *Speaker) Stop() { s.stopped = true }

func (s *Speaker) tick(sess *Session) {
	if s.stopped || (s.cfg.until > 0 && s.clock.Now() >= s.cfg.until) {
		return
	}
	sess.Tick(s.clock.Now())
	s.clock.Schedule(sess.Timers().Hello, func() { s.tick(sess) })
}

// Sever administratively cuts the session toward peer for d seconds —
// the fault-injection hook. The peer side must be severed separately
// (its speaker is possibly another process).
func (s *Speaker) Sever(peer string, d float64) error {
	sess, ok := s.sessions[peer]
	if !ok {
		return fmt.Errorf("signaling: no session %s->%s", s.name, peer)
	}
	sess.Sever(s.clock.Now(), d)
	return nil
}

// ---- transmit path ----

// sendSession emits a bare session message toward peer. Session
// messages bypass the pending queue: they are what brings a session up.
func (s *Speaker) sendSession(peer string, t MsgType) {
	m := Message{Type: t, Src: s.self, Hold: s.sessions[peer].Timers().Hold}
	s.transmit(peer, &m)
}

// sendWhenUp delivers a label message to peer now if its session is
// operational, otherwise queues it for the next session-up. The message
// is copied, so callers may reuse theirs.
func (s *Speaker) sendWhenUp(peer string, m *Message) {
	sess, ok := s.sessions[peer]
	if !ok {
		return
	}
	if sess.Up() {
		s.transmit(peer, m)
		return
	}
	cp := *m
	cp.Route = append([]transport.NodeID(nil), m.Route...)
	q := append(s.pending[peer], &cp)
	if len(q) > maxPending {
		// Bound the queue toward a peer that never comes back: keep the
		// newest messages (they supersede the old state anyway) and let
		// the ingress retry machinery regenerate anything shed.
		q = append([]*Message(nil), q[len(q)-maxPending:]...)
	}
	s.pending[peer] = q
}

// maxPending bounds the per-peer queue of label messages waiting for a
// session: a neighbour that never returns must not grow memory without
// bound.
const maxPending = 256

// transmit encodes m and sends it on the direct link toward peer. The
// payload buffer is allocated fresh per message: packets do not copy
// their payloads, and a control message may sit queued on a simulated
// link long after this call returns.
func (s *Speaker) transmit(peer string, m *Message) {
	link, ok := s.r.Link(peer)
	if !ok {
		return
	}
	buf := make([]byte, 0, headerSize+int(m.IDLen)+2*len(m.Route))
	buf, err := AppendMessage(buf, m)
	if err != nil {
		return
	}
	p := packet.New(s.addr, ControlAddr(s.ids[peer]), 8, buf)
	p.Header.FlowID = FlowID
	p.SentAt = s.clock.Now()
	s.Stats.Tx++
	link.Send(p)
}

// ---- receive path ----

// sink is the router control sink: it claims and dispatches signaling
// packets.
func (s *Speaker) sink(p *packet.Packet) bool {
	if p.Header.FlowID != FlowID {
		return false
	}
	if err := DecodeMessage(&s.rx, p.Payload); err != nil {
		return true // malformed signaling packet: claimed and dropped
	}
	m := &s.rx
	if int(m.Src) >= len(s.names) {
		return true
	}
	peer := s.names[m.Src]
	s.Stats.Rx++
	now := s.clock.Now()
	switch m.Type {
	case MsgHello, MsgInit, MsgKeepalive:
		if sess, ok := s.sessions[peer]; ok {
			sess.Handle(m.Type, now)
		}
	default:
		// Any label message proves the peer alive.
		if sess, ok := s.sessions[peer]; ok {
			sess.Touch(now)
		}
		if len(m.Route) > 0 && !slices.Contains(m.Route, s.self) {
			s.relay(m)
			return true
		}
		s.handleLabelMsg(peer, m)
	}
	return true
}

// relay passes on a label message of an LSP that rides a tunnel this
// node is a transit of. The message names the tunnel by the head->tail
// pair in the route it carries, and moves one hop along the tunnel:
// toward the tail for requests and releases, toward the head for the
// rest. Its Src stays the LSP hop that sent it, so the far end of the
// tunnel hop sees its logical neighbour.
func (s *Speaker) relay(m *Message) {
	for i := 0; i+1 < len(m.Route); i++ {
		if int(m.Route[i]) >= len(s.names) || int(m.Route[i+1]) >= len(s.names) {
			return
		}
		t := s.tunnel(s.names[m.Route[i]], s.names[m.Route[i+1]])
		if t == nil {
			continue
		}
		next := t.upstream
		if m.Type == MsgLabelRequest || m.Type == MsgLabelRelease {
			next = t.downstream
		}
		s.sendWhenUp(next, m)
		return
	}
}

// tunnel returns the tunnel generation from head to tail this node
// holds state for, or nil.
func (s *Speaker) tunnel(head, tail string) *lsp {
	for _, id := range sortedKeys(s.lsps) {
		if l := s.lsps[id]; l.tunnel && l.route[0] == head && l.route[len(l.route)-1] == tail {
			return l
		}
	}
	return nil
}

// direct reports whether peer is a link neighbour; any other hop of a
// route rides a tunnel.
func (s *Speaker) direct(peer string) bool {
	_, ok := s.sessions[peer]
	return ok
}

// sendTo sends a label message of l to peer, l's upstream or downstream
// hop. Across a tunnel hop the message carries l's route and enters the
// tunnel's first (or, from the tail, last) hop, whose speaker relays it.
func (s *Speaker) sendTo(peer string, l *lsp, m *Message) {
	if !s.direct(peer) {
		t, next := s.tunnel(s.name, peer), ""
		if t != nil {
			next = t.downstream
		} else if t = s.tunnel(peer, s.name); t != nil {
			next = t.upstream
		}
		if next == "" {
			return
		}
		m.Route = s.routeIDs(l.route)
		peer = next
	}
	s.sendWhenUp(peer, m)
}

func (s *Speaker) handleLabelMsg(peer string, m *Message) {
	switch m.Type {
	case MsgLabelRequest:
		s.handleRequest(m)
	case MsgLabelMapping:
		s.handleMapping(peer, m)
	case MsgLabelWithdraw:
		s.handleWithdraw(peer, m)
	case MsgLabelRelease:
		s.handleRelease(peer, m)
	case MsgReroute:
		s.handleReroute(m)
	case MsgError:
		s.handleError(m)
	}
}

// ---- session transitions ----

func (s *Speaker) sessionUp(peer string) {
	s.event(telemetry.EventSessionUp)
	if s.OnSessionUp != nil {
		s.OnSessionUp(peer)
	}
	// Flush messages that waited for the session.
	queued := s.pending[peer]
	delete(s.pending, peer)
	for _, m := range queued {
		s.transmit(peer, m)
	}
	// Re-signal ingress LSPs that lost their path while the cluster was
	// partitioned and could not be rerouted.
	for _, base := range sortedKeys(s.byBase) {
		l := s.byBase[base]
		if !l.mapped && !s.inFlight(l) {
			s.resignal(l, te.LinkKey{})
		}
	}
}

func (s *Speaker) sessionDown(peer string) {
	s.event(telemetry.EventSessionDown)
	if s.OnSessionDown != nil {
		s.OnSessionDown(peer)
	}
	// Tear every LSP crossing the dead session, deterministically.
	for _, id := range sortedKeys(s.lsps) {
		l, ok := s.lsps[id]
		if !ok {
			continue // removed by an earlier teardown in this loop
		}
		switch peer {
		case l.downstream:
			s.lostDownstream(l, te.LinkKey{From: s.name, To: peer})
		case l.upstream:
			s.lostUpstream(l)
		}
	}
	s.kickRestart(peer)
}

// errRedialPending is the sentinel a redial probe returns while the
// session is still down, telling the restart policy to back off and
// try again.
var errRedialPending = errors.New("signaling: session not re-established")

// kickRestart hands re-establishment of the session toward peer to the
// restart policy: the periodic hello is muted and the policy paces
// single discovery pokes with backoff instead. The session stays fully
// responsive to the peer throughout, so it can also come up passively;
// if the policy exhausts its budget the legacy hello cadence resumes.
func (s *Speaker) kickRestart(peer string) {
	if s.cfg.restart == nil || s.redialing[peer] {
		return
	}
	sess, ok := s.sessions[peer]
	if !ok {
		return
	}
	s.redialing[peer] = true
	sess.SuppressHellos(true)
	s.cfg.restart.Do("redial:"+s.name+"->"+peer, func() error {
		if s.stopped || sess.Up() {
			return nil
		}
		sess.Poke(s.clock.Now())
		return errRedialPending
	}, func(error) {
		delete(s.redialing, peer)
		sess.SuppressHellos(false)
	})
}

// maintain is the periodic background sweep (WithMaintenance): failed
// ingress LSPs are re-signalled and adaptive keepalive recomputes.
func (s *Speaker) maintain() {
	if s.stopped || (s.cfg.until > 0 && s.clock.Now() >= s.cfg.until) {
		return
	}
	for _, base := range sortedKeys(s.byBase) {
		l := s.byBase[base]
		if !l.mapped && !s.inFlight(l) {
			s.resignal(l, te.LinkKey{})
		}
	}
	s.adaptKeepalive()
	s.clock.Schedule(s.cfg.maintIvl, func() { s.maintain() })
}

// adaptKeepalive samples the control-plane receive rate since the last
// sweep and stretches keepalive pacing proportionally above the
// configured load threshold — under a message storm the sessions shed
// their own cost first.
func (s *Speaker) adaptKeepalive() {
	if s.cfg.adaptLoad <= 0 {
		return
	}
	rx := s.Stats.Rx
	rate := float64(rx-s.lastRx) / s.cfg.maintIvl
	s.lastRx = rx
	stretch := rate / s.cfg.adaptLoad
	if stretch < 1 {
		stretch = 1
	}
	for _, sess := range s.sessions {
		sess.SetKeepaliveStretch(stretch)
	}
}

// inFlight reports whether l has a request outstanding (signalled but
// not yet mapped and not failed).
func (s *Speaker) inFlight(l *lsp) bool {
	_, live := s.lsps[l.id]
	return live && !l.mapped
}

// ---- ingress API ----

// Setup establishes an LSP from this node along req.Path (which must
// start here), signaling labels downstream-on-demand. done, if not
// nil, fires once — on first successful mapping or on terminal
// failure. The call itself only validates and sends the request; the
// LSP is usable when done (or OnEstablished) reports it.
func (s *Speaker) Setup(req ldp.SetupRequest, done func(error)) error {
	if err := s.validateSetup(req); err != nil {
		return err
	}
	if _, dup := s.byBase[req.ID]; dup {
		return fmt.Errorf("signaling: duplicate LSP id %q", req.ID)
	}
	l := generation(req, 1, done)
	// A refused setup leaves nothing behind: the id stays free and the
	// maintenance sweep has no base to re-signal.
	if err := s.signal(l); err != nil {
		return err
	}
	s.byBase[l.base] = l
	return nil
}

// generation builds generation gen of an ingress LSP from its request.
func generation(req ldp.SetupRequest, gen int, done func(error)) *lsp {
	return &lsp{
		id:         req.ID + "#" + strconv.Itoa(gen),
		base:       req.ID,
		gen:        gen,
		fec:        req.FEC,
		cos:        req.CoS,
		php:        req.PHP,
		tunnel:     req.Tunnel,
		bandwidth:  req.Bandwidth,
		route:      append([]string(nil), req.Path...),
		downstream: req.Path[1],
		done:       done,
	}
}

// signal reserves the local segment and sends the label request for an
// ingress LSP generation.
func (s *Speaker) signal(l *lsp) error {
	if l.bandwidth > 0 {
		if err := s.topo.Reserve([]string{s.name, l.downstream}, l.bandwidth); err != nil {
			return fmt.Errorf("signaling: %w", err)
		}
		l.reserved = true
	}
	s.lsps[l.id] = l
	s.sendRequest(l)
	s.scheduleSetupCheck(l)
	return nil
}

// scheduleSetupCheck arms the ingress establishment timer: if the
// generation is still unmapped when it fires, the request is
// retransmitted (duplicates are idempotent downstream) with backoff,
// up to the retry budget.
func (s *Speaker) scheduleSetupCheck(l *lsp) {
	delay := setupTimeout + retryBackoff*float64(l.attempts)
	s.clock.Schedule(delay, func() {
		cur, live := s.lsps[l.id]
		if !live || cur != l || l.mapped || s.stopped {
			return
		}
		l.attempts++
		s.event(telemetry.EventRetryAttempt)
		if l.attempts > retryMax {
			s.event(telemetry.EventRetryExhausted)
			s.fail(l, fmt.Errorf("signaling: %s: no mapping after %d attempts", l.id, l.attempts-1))
			return
		}
		s.sendRequest(l)
		s.scheduleSetupCheck(l)
	})
}

// sendRequest sends l's label request downstream, from the ingress or
// forwarded by a transit node.
func (s *Speaker) sendRequest(l *lsp) {
	m := Message{
		Type:      MsgLabelRequest,
		Src:       s.self,
		PHP:       l.php,
		tunnel:    l.tunnel,
		FEC:       l.fec,
		CoS:       l.cos,
		Bandwidth: l.bandwidth,
		Route:     s.routeIDs(l.route),
	}
	m.SetID(l.id)
	s.sendTo(l.downstream, l, &m)
}

func (s *Speaker) routeIDs(route []string) []transport.NodeID {
	out := make([]transport.NodeID, len(route))
	for i, n := range route {
		out[i] = s.ids[n]
	}
	return out
}

// RequestReroute asks the LSP's ingress for a protection switch away
// from the avoid link. Called at the ingress it reroutes directly;
// anywhere else on the path it sends a Reroute message hop-by-hop
// upstream — the cross-process escalation the healer uses when the
// failure is detected away from the ingress.
func (s *Speaker) RequestReroute(base string, avoidA, avoidB string) error {
	if l, ok := s.byBase[base]; ok {
		if avoidA != "" && !routeUses(l.route, avoidA, avoidB) {
			// Already off that link (duplicate or stale request).
			return nil
		}
		s.reroute(l, te.LinkKey{From: avoidA, To: avoidB}, true)
		return nil
	}
	for _, id := range sortedKeys(s.lsps) {
		l := s.lsps[id]
		if l.base != base || l.upstream == "" {
			continue
		}
		m := Message{Type: MsgReroute, Src: s.self,
			Avoid: [2]transport.NodeID{s.ids[avoidA], s.ids[avoidB]}}
		m.SetID(l.base)
		s.sendTo(l.upstream, l, &m)
		return nil
	}
	return fmt.Errorf("signaling: %s: no LSP %q crosses this node", s.name, base)
}

// ---- message handlers ----

func (s *Speaker) handleRequest(m *Message) {
	id := m.IDString()
	if l, ok := s.lsps[id]; ok {
		// Retransmitted request: answer or re-forward, idempotently.
		if l.inLabel != 0 {
			s.sendMapping(l)
		} else if !l.egress() {
			if s.deadToward(l.downstream) {
				// The downstream peer died while this request was parked:
				// tell the ingress which link is broken so it can route
				// around it, instead of letting it retry into a void.
				s.sendError(l, ErrCodeNoRoute, te.LinkKey{From: s.name, To: l.downstream})
				s.tearLocal(l, false)
				delete(s.lsps, id)
				return
			}
			s.sendRequest(l)
		}
		return
	}
	route := make([]string, len(m.Route))
	idx := -1
	for i, hop := range m.Route {
		if int(hop) >= len(s.names) {
			return
		}
		route[i] = s.names[hop]
		if route[i] == s.name {
			idx = i
		}
	}
	if idx <= 0 { // not on the path, or addressed to the ingress
		return
	}
	l := &lsp{
		id:        id,
		base:      baseOf(id),
		fec:       m.FEC,
		cos:       m.CoS,
		php:       m.PHP,
		tunnel:    m.tunnel,
		bandwidth: m.Bandwidth,
		route:     route,
		upstream:  route[idx-1],
	}
	if idx < len(route)-1 {
		l.downstream = route[idx+1]
	}
	if l.egress() {
		s.lsps[id] = l
		// The egress delivers the FEC's traffic locally (idempotent when
		// the scenario loader bound it too). A tunnel tail delivers
		// nothing: its pop re-examines the label the tunnel carried.
		if !l.tunnel {
			s.r.AddLocal(l.fec.Dst)
		}
		if l.php && s.direct(l.upstream) {
			// With PHP the egress receives unlabelled packets: advertise
			// implicit null and install nothing. Not across a tunnel hop,
			// whose head must push onto a label.
			l.inLabel = label.ImplicitNull
		} else {
			var err error
			if l.inLabel, err = s.allocLabel(); err == nil {
				err = s.r.InstallILM(l.inLabel, swmpls.NHLFE{Op: label.OpPop})
			}
			if err != nil {
				s.refuse(l)
				return
			}
			l.ilmInstalled = true
		}
		s.sendMapping(l)
		return
	}
	// Transit toward a peer known to be dead: fail fast with the broken
	// link named, so the ingress reroutes instead of burning its retry
	// budget retransmitting into a hole.
	if s.deadToward(l.downstream) {
		s.sendError(l, ErrCodeNoRoute, te.LinkKey{From: s.name, To: l.downstream})
		return
	}
	// A hop that is not a link rides the tunnel from here to the next
	// hop, which must be established.
	if !s.direct(l.downstream) && s.tunnel(s.name, l.downstream) == nil {
		s.sendError(l, ErrCodeNoRoute, te.LinkKey{})
		return
	}
	// Transit: admission-control the outgoing segment (a tunnel hop
	// reserved its bandwidth as the tunnel), then forward.
	if l.bandwidth > 0 && s.direct(l.downstream) {
		if err := s.topo.Reserve([]string{s.name, l.downstream}, l.bandwidth); err != nil {
			s.sendError(l, ErrCodeNoBandwidth, te.LinkKey{})
			return
		}
		l.reserved = true
	}
	s.lsps[id] = l
	s.sendRequest(l)
}

// deadToward reports whether the session to peer was operational once
// and is down now — the signal that the peer is gone rather than still
// forming.
func (s *Speaker) deadToward(peer string) bool {
	sess, ok := s.sessions[peer]
	return ok && sess.Dead()
}

func (s *Speaker) sendMapping(l *lsp) {
	if l.upstream == "" {
		return
	}
	if s.cfg.guard != nil && l.inLabel != 0 && l.inLabel != label.ImplicitNull {
		// The upstream peer will now send this label here: whitelist it
		// before the mapping leaves, so no admitted-then-dropped window
		// exists. Idempotent across retransmissions.
		s.cfg.guard.Advertise(l.upstream, l.inLabel)
	}
	m := Message{Type: MsgLabelMapping, Src: s.self, Label: l.inLabel}
	m.SetID(l.id)
	s.sendTo(l.upstream, l, &m)
}

func (s *Speaker) handleMapping(peer string, m *Message) {
	s.Stats.MapRx++
	s.event(telemetry.EventLabelMapRx)
	l, ok := s.lsps[m.IDString()]
	if !ok || peer != l.downstream || l.mapped && !l.ingress() {
		return
	}
	l.outLabel = m.Label
	if l.ingress() {
		s.completeIngress(l)
		return
	}
	n := swmpls.NHLFE{NextHop: l.downstream, Op: label.OpSwap, PushLabels: []label.Label{m.Label}}
	if m.Label == label.ImplicitNull {
		// Penultimate hop of a PHP LSP: pop here, egress sees IP.
		n = swmpls.NHLFE{NextHop: l.downstream, Op: label.OpPop}
	}
	if !s.direct(l.downstream) {
		// Tunnel head: the label crosses the tunnel unchanged, so this
		// hop keys on the tail's label and pushes the tunnel's first
		// label on top. The tail allocated it from its own block, which
		// no other node allocates from.
		t := s.tunnel(s.name, l.downstream)
		if t == nil || !t.mapped {
			s.refuse(l)
			return
		}
		l.inLabel = m.Label
		n = swmpls.NHLFE{NextHop: t.downstream, Op: label.OpPush, PushLabels: []label.Label{t.outLabel}}
	}
	if l.inLabel == 0 {
		var err error
		if l.inLabel, err = s.allocLabel(); err != nil {
			s.refuse(l)
			return
		}
	}
	if err := s.r.InstallILM(l.inLabel, n); err != nil {
		s.refuse(l)
		return
	}
	l.ilmInstalled = true
	l.mapped = true
	s.sendMapping(l)
}

// completeIngress installs the FTN for a freshly mapped ingress
// generation and finishes make-before-break if one is pending.
func (s *Speaker) completeIngress(l *lsp) {
	if l.mapped {
		return // duplicate mapping retransmission
	}
	if !l.tunnel { // a tunnel head forwards only what rides it
		n := swmpls.NHLFE{
			NextHop:    l.downstream,
			Op:         label.OpPush,
			PushLabels: []label.Label{l.outLabel},
			CoS:        l.cos,
		}
		if err := s.r.InstallFEC(l.fec.Dst, l.fec.PrefixLen, n); err != nil {
			s.sendRelease(l) // the hops below have mapped: free them
			s.fail(l, fmt.Errorf("signaling: installing FTN on %s: %w", s.name, err))
			return
		}
		l.ftnInstalled = true
	}
	l.mapped = true
	l.attempts = 0
	if l.gen > 1 {
		s.event(telemetry.EventProtectionSwitch)
	}
	if prev := l.prev; prev != nil {
		// Make-before-break: traffic now rides the new path; give the
		// old one a drain delay, then release it downstream. The old
		// generation's FTN entry was replaced by the install above, so
		// its teardown must not remove the FEC.
		l.prev = nil
		s.clock.Schedule(drainDelay, func() { s.releaseGeneration(prev) })
	}
	if s.OnEstablished != nil {
		s.OnEstablished(l.base, l.route)
	}
	if l.done != nil {
		done := l.done
		l.done = nil
		done(nil)
	}
}

// releaseGeneration tears a superseded ingress generation and sends the
// release downstream so every hop frees its label and reservation.
func (s *Speaker) releaseGeneration(prev *lsp) {
	if _, live := s.lsps[prev.id]; !live {
		return
	}
	s.sendRelease(prev)
	s.tearLocal(prev, true)
	delete(s.lsps, prev.id)
}

func (s *Speaker) sendRelease(l *lsp) {
	if l.downstream == "" {
		return
	}
	m := Message{Type: MsgLabelRelease, Src: s.self}
	m.SetID(l.id)
	s.sendTo(l.downstream, l, &m)
}

func (s *Speaker) sendWithdraw(l *lsp, avoid te.LinkKey) {
	if l.upstream == "" {
		return
	}
	m := Message{Type: MsgLabelWithdraw, Src: s.self, Label: l.inLabel,
		Avoid: [2]transport.NodeID{s.ids[avoid.From], s.ids[avoid.To]}}
	m.SetID(l.id)
	s.sendTo(l.upstream, l, &m)
}

// sendError rejects an LSP upstream. A non-zero avoid names the link
// the rejection is about (e.g. the dead downstream session), letting
// the ingress reroute around it instead of failing terminally.
func (s *Speaker) sendError(l *lsp, code uint8, avoid te.LinkKey) {
	if l.upstream == "" {
		return
	}
	m := Message{Type: MsgError, Src: s.self, Code: code}
	if avoid != (te.LinkKey{}) {
		m.Avoid = [2]transport.NodeID{s.ids[avoid.From], s.ids[avoid.To]}
	}
	m.SetID(l.id)
	s.sendTo(l.upstream, l, &m)
}

func (s *Speaker) handleWithdraw(peer string, m *Message) {
	s.Stats.WithdrawRx++
	s.event(telemetry.EventLabelWithdrawRx)
	l, ok := s.lsps[m.IDString()]
	if !ok || peer != l.downstream {
		return
	}
	s.lostDownstream(l, s.avoidOf(m))
}

// avoidOf decodes the link a message names, or the zero key when it
// names none (or an unknown node).
func (s *Speaker) avoidOf(m *Message) te.LinkKey {
	a, b := int(m.Avoid[0]), int(m.Avoid[1])
	if a == 0 && b == 0 || a >= len(s.names) || b >= len(s.names) {
		return te.LinkKey{}
	}
	return te.LinkKey{From: s.names[a], To: s.names[b]}
}

func (s *Speaker) handleRelease(peer string, m *Message) {
	l, ok := s.lsps[m.IDString()]
	if !ok || peer != l.upstream {
		return
	}
	s.sendRelease(l)
	s.tearLocal(l, false)
	delete(s.lsps, l.id)
}

func (s *Speaker) handleReroute(m *Message) {
	// Best effort: an unknown base just means the LSP is already gone.
	if avoid := s.avoidOf(m); avoid != (te.LinkKey{}) {
		_ = s.RequestReroute(m.IDString(), avoid.From, avoid.To)
	}
}

func (s *Speaker) handleError(m *Message) {
	l, ok := s.lsps[m.IDString()]
	if !ok {
		return
	}
	avoid := s.avoidOf(m)
	if l.ingress() {
		s.tearLocal(l, false)
		delete(s.lsps, l.id)
		if avoid != (te.LinkKey{}) {
			// The rejection names the broken link: this is a routing
			// failure, not a policy one — protection-switch around it.
			s.reroute(l, avoid, false)
			return
		}
		s.fail(l, fmt.Errorf("signaling: %s rejected downstream (code %d)", l.id, m.Code))
		return
	}
	s.sendError(l, m.Code, avoid)
	s.tearLocal(l, false)
	delete(s.lsps, l.id)
}

// ---- failure and reroute machinery ----

// lostDownstream handles the disappearance of an LSP's downstream
// continuation — a withdraw from below or the downstream session dying.
// Non-ingress nodes propagate the withdraw upstream; the ingress
// attempts a protection switch around the offending link.
func (s *Speaker) lostDownstream(l *lsp, avoid te.LinkKey) {
	if l.ingress() {
		s.tearLocal(l, false)
		delete(s.lsps, l.id)
		s.reroute(l, avoid, false)
		return
	}
	s.sendWithdraw(l, avoid)
	s.tearLocal(l, false)
	delete(s.lsps, l.id)
}

// lostUpstream handles the disappearance of an LSP's upstream — the
// session toward it died. Local state is freed and the release cascades
// downstream.
func (s *Speaker) lostUpstream(l *lsp) {
	s.sendRelease(l)
	s.tearLocal(l, false)
	delete(s.lsps, l.id)
}

// reroute computes a new path for an ingress LSP around avoid and
// signals it as the next generation. makeBeforeBreak keeps the old
// generation installed until the new one maps. On failure the attempt
// is retried with backoff until the retry budget runs out.
func (s *Speaker) reroute(old *lsp, avoid te.LinkKey, makeBeforeBreak bool) {
	if s.byBase[old.base] != old {
		return // superseded by a newer generation
	}
	// CSPF exclusions accumulate from three sources: this LSP's avoid
	// memory (links recent errors/withdraws named as faulty — without
	// the memory an ingress with two broken candidate paths oscillates
	// between them forever), the avoid hint that triggered this reroute,
	// and the external excluder (flap-damped links).
	now := s.clock.Now()
	exclude := map[te.LinkKey]bool{}
	mem := s.avoids[old.base]
	for k, expiry := range mem {
		if expiry <= now {
			delete(mem, k)
			continue
		}
		exclude[k] = true
	}
	if avoid != (te.LinkKey{}) {
		if mem == nil {
			mem = make(map[te.LinkKey]float64)
			s.avoids[old.base] = mem
		}
		rev := te.LinkKey{From: avoid.To, To: avoid.From}
		mem[avoid], mem[rev] = now+avoidHold, now+avoidHold
		exclude[avoid], exclude[rev] = true, true
	}
	if s.excluder != nil {
		for k, on := range s.excluder() {
			if on {
				exclude[k] = true
			}
		}
	}
	egress := old.route[len(old.route)-1]
	path, err := s.topo.CSPF(te.PathRequest{
		From:         s.name,
		To:           egress,
		BandwidthBPS: old.bandwidth,
		ExcludeLinks: exclude,
	})
	if err != nil {
		s.retryReroute(old, avoid, makeBeforeBreak)
		return
	}
	// old.done is still pending when an in-flight setup reroutes.
	nl := generation(ldp.SetupRequest{ID: old.base, FEC: old.fec, Path: path, Bandwidth: old.bandwidth,
		PHP: old.php && len(path) >= 3, CoS: old.cos, Tunnel: old.tunnel}, old.gen+1, old.done)
	nl.attempts = old.attempts
	old.done = nil
	if makeBeforeBreak {
		if _, live := s.lsps[old.id]; live {
			nl.prev = old
		}
	}
	s.byBase[nl.base] = nl
	if err := s.signal(nl); err != nil {
		delete(s.lsps, nl.id)
		s.byBase[nl.base] = old
		s.retryReroute(old, avoid, makeBeforeBreak)
	}
}

func (s *Speaker) retryReroute(l *lsp, avoid te.LinkKey, makeBeforeBreak bool) {
	l.attempts++
	s.event(telemetry.EventRetryAttempt)
	if l.attempts > retryMax {
		s.event(telemetry.EventRetryExhausted)
		s.fail(l, fmt.Errorf("signaling: %s: reroute failed after %d attempts", l.base, l.attempts-1))
		return
	}
	s.clock.Schedule(retryBackoff*float64(l.attempts), func() {
		if s.stopped || s.byBase[l.base] != l || l.mapped {
			return
		}
		s.reroute(l, avoid, makeBeforeBreak)
	})
}

// resignal re-attempts an ingress LSP from scratch: fresh retry budget,
// cleared avoid memory, fresh CSPF — used when a session comes back
// after a partition killed every alternative, and by the maintenance
// sweep. Stale exclusions must not outlive the healing they reacted to.
func (s *Speaker) resignal(l *lsp, avoid te.LinkKey) {
	l.attempts = 0
	delete(s.avoids, l.base)
	s.reroute(l, avoid, false)
}

// fail reports terminal failure of an ingress LSP generation. The base
// entry stays registered so a later session-up can resignal it. A failed
// make-before-break generation leaves the one it was to replace, still
// forwarding, as the current generation.
func (s *Speaker) fail(l *lsp, err error) {
	s.tearLocal(l, false)
	delete(s.lsps, l.id)
	if prev := l.prev; prev != nil && s.byBase[l.base] == l {
		l.prev = nil
		s.byBase[l.base] = prev
	}
	if l.done != nil {
		done := l.done
		l.done = nil
		done(err)
	}
}

// tearLocal removes this node's installed state for one LSP
// generation: tables and bandwidth reservation. skipFEC leaves the FTN
// alone — used when a newer generation has already replaced it.
func (s *Speaker) tearLocal(l *lsp, skipFEC bool) {
	if l.ftnInstalled && !skipFEC {
		s.r.RemoveFEC(l.fec.Dst, l.fec.PrefixLen)
	}
	l.ftnInstalled = false
	if l.ilmInstalled {
		s.r.RemoveILM(l.inLabel)
		l.ilmInstalled = false
		if s.cfg.guard != nil && l.upstream != "" {
			s.cfg.guard.Withdraw(l.upstream, l.inLabel)
		}
	}
	if l.reserved {
		_ = s.topo.Release([]string{s.name, l.downstream}, l.bandwidth)
		l.reserved = false
	}
	l.mapped = false
}

// refuse rejects an LSP this node cannot carry: an error upstream, a
// release to the downstream that may already have mapped it, and no
// local state left behind.
func (s *Speaker) refuse(l *lsp) {
	s.sendError(l, ErrCodeBadRequest, te.LinkKey{})
	s.sendRelease(l)
	s.tearLocal(l, false)
	delete(s.lsps, l.id)
}

// allocLabel hands out the next label of this node's block. Node i of
// the name table owns [16 + i·B, 16 + (i+1)·B) with B = (2^20 - 16) /
// len(names), so no two nodes ever allocate the same label: a label can
// cross a tunnel unchanged and still be unambiguous at the tunnel head,
// which keys on it beside its own. The allocator refuses past the
// block's end.
func (s *Speaker) allocLabel() (label.Label, error) {
	if s.next >= s.end {
		return 0, label.ErrLabelSpaceExhausted
	}
	l := s.next
	s.next++
	return l, nil
}

func (s *Speaker) event(e telemetry.Event) {
	if s.cfg.events != nil {
		s.cfg.events.Inc(e)
	}
}

// routeUses reports whether the path crosses the a-b connection in
// either direction.
func routeUses(route []string, a, b string) bool {
	for i := 0; i+1 < len(route); i++ {
		if (route[i] == a && route[i+1] == b) || (route[i] == b && route[i+1] == a) {
			return true
		}
	}
	return false
}

// baseOf strips the generation qualifier from an LSP id.
func baseOf(id string) string {
	for i := len(id) - 1; i >= 0; i-- {
		if id[i] == '#' {
			return id[:i]
		}
	}
	return id
}
