package signaling

// State is the session FSM state for one neighbour adjacency.
type State uint8

// Session states. Down: no adjacency — hellos are being sent, nothing
// else is believed. Adjacent: a hello was heard and an Init offered;
// waiting for the peer's Init (or its keepalive) to confirm.
// Operational: both sides initialised; label messages flow and
// keepalives police liveness.
const (
	StateDown State = iota
	StateAdjacent
	StateOperational
)

func (s State) String() string {
	switch s {
	case StateDown:
		return "down"
	case StateAdjacent:
		return "adjacent"
	case StateOperational:
		return "operational"
	}
	return "state(?)"
}

// Timers parameterises the session FSM. All values are in seconds on
// the injected clock.
type Timers struct {
	// Hello is the discovery/retry cadence while not operational, and
	// the tick resolution of the session overall. <=0: 0.02.
	Hello float64
	// Keepalive is the pacing of keepalives once operational.
	// <=0: 2×Hello.
	Keepalive float64
	// Hold is the dead timer: silence longer than this tears the
	// session down. <=0: 3×Keepalive.
	Hold float64
}

func (t Timers) withDefaults() Timers {
	if t.Hello <= 0 {
		t.Hello = 0.02
	}
	if t.Keepalive <= 0 {
		t.Keepalive = 2 * t.Hello
	}
	if t.Hold <= 0 {
		t.Hold = 3 * t.Keepalive
	}
	return t
}

// Session runs the adjacency FSM toward one neighbour. It owns no I/O:
// the speaker injects received session messages via Handle, drives
// time via Tick, and supplies the send function. That makes every
// transition — including the pathological ones — drivable from a table
// test with no network underneath.
type Session struct {
	// Peer is the neighbour's node name.
	Peer string

	state        State
	timers       Timers
	lastHeard    float64 // time of the last message from the peer
	lastSent     float64 // time of the last keepalive/hello sent
	severedUntil float64 // administrative sever: ignore peer until then
	everUp       bool    // reached Operational at least once
	helloMuted   bool    // periodic hellos suppressed (restart backoff owns pacing)
	kaStretch    float64 // keepalive interval multiplier (adaptive, >= 1)

	send   func(t MsgType)
	onUp   func()
	onDown func()
}

// NewSession builds a session toward peer. send transmits a session
// message to the peer (best effort — the link may be down). onUp/onDown
// fire on transitions into and out of Operational; either may be nil.
func NewSession(peer string, timers Timers, send func(t MsgType), onUp, onDown func()) *Session {
	return &Session{
		Peer:      peer,
		timers:    timers.withDefaults(),
		kaStretch: 1,
		send:      send,
		onUp:      onUp,
		onDown:    onDown,
	}
}

// State returns the current FSM state.
func (s *Session) State() State { return s.state }

// Up reports whether the session is operational.
func (s *Session) Up() bool { return s.state == StateOperational }

// Dead reports whether a session that was once operational is down —
// the distinction between "still forming" (keep queueing label
// messages) and "lost the peer" (answer requests with errors so the
// ingress can route around the hole).
func (s *Session) Dead() bool { return s.everUp && s.state != StateOperational }

// SuppressHellos mutes (or restores) the periodic hello while the
// session is not operational. The restart policy suppresses the tight
// per-tick hello loop and paces rediscovery itself via Poke; the
// session stays fully responsive to the peer's messages either way,
// so a muted side still comes up passively.
func (s *Session) SuppressHellos(v bool) { s.helloMuted = v }

// Poke sends one discovery hello now, regardless of hello muting —
// the restart policy's paced redial probe. A no-op while operational
// or severed.
func (s *Session) Poke(now float64) {
	if s.state != StateOperational && !s.severed(now) {
		s.send(MsgHello)
	}
}

// SetKeepaliveStretch scales the operational keepalive interval by f —
// the adaptive-keepalive knob: under control-plane load keepalives are
// paced down to shed cost. Clamped to [1, Hold/(2×Keepalive)] so the
// stretched interval never exceeds half the peer's dead timer (one
// lost keepalive of margin).
func (s *Session) SetKeepaliveStretch(f float64) {
	max := s.timers.Hold / (2 * s.timers.Keepalive)
	if max < 1 {
		max = 1
	}
	if f < 1 {
		f = 1
	}
	if f > max {
		f = max
	}
	s.kaStretch = f
}

// KeepaliveStretch returns the current adaptive stretch factor.
func (s *Session) KeepaliveStretch() float64 { return s.kaStretch }

// Timers returns the effective (defaulted) timer set.
func (s *Session) Timers() Timers { return s.timers }

// Touch records peer liveness at now without a message — used when a
// label message arrives, since any traffic from the peer proves the
// session alive.
func (s *Session) Touch(now float64) {
	if !s.severed(now) {
		s.lastHeard = now
	}
}

// severed reports whether an administrative sever is in force at now.
// Strict inequality keeps the zero value (severedUntil 0 at time 0)
// unsevered.
func (s *Session) severed(now float64) bool {
	return s.severedUntil > 0 && now < s.severedUntil
}

// Handle processes one session message (hello/init/keepalive) from the
// peer at time now. Messages during an administrative sever are
// dropped, simulating a one-way control-channel failure.
func (s *Session) Handle(t MsgType, now float64) {
	if s.severed(now) {
		return
	}
	s.lastHeard = now
	switch s.state {
	case StateDown:
		switch t {
		case MsgHello:
			// Peer discovered us: answer with Init and wait for
			// confirmation that it heard us too.
			s.state = StateAdjacent
			s.send(MsgInit)
		case MsgInit:
			// The peer only sends Init in response to hearing us, so an
			// Init proves two-way connectivity: straight to operational.
			s.up(now)
		case MsgKeepalive:
			// A keepalive while we think the session is down means the
			// peer believes it is operational — likely we restarted.
			// Offer Init so the peer can re-handshake.
			s.send(MsgInit)
		}
	case StateAdjacent:
		switch t {
		case MsgInit, MsgKeepalive:
			// The peer has seen our Init (its Init crossing ours, or it
			// already moved to keepalives): session is up.
			s.up(now)
		case MsgHello:
			// Still discovering; re-offer.
			s.send(MsgInit)
		}
	case StateOperational:
		switch t {
		case MsgHello:
			// An operational peer never sends hellos — it restarted and
			// is rediscovering. Fall back and re-handshake so both
			// sides converge instead of deadlocking.
			s.down(now)
			s.state = StateAdjacent
			s.send(MsgInit)
		case MsgInit:
			// Peer re-initialising mid-session: confirm.
			s.send(MsgKeepalive)
			s.lastSent = now
		}
	}
}

// Tick advances timers at time now: expires the dead timer, sends
// hellos while down and Init while adjacent, paces keepalives while
// operational.
// The speaker calls it on the Hello cadence.
func (s *Session) Tick(now float64) {
	if s.state != StateDown && now-s.lastHeard > s.timers.Hold {
		s.down(now)
	}
	if s.severed(now) {
		return
	}
	switch s.state {
	case StateDown:
		if !s.helloMuted {
			s.send(MsgHello)
		}
	case StateAdjacent:
		// We have heard the peer and answered Init: re-offer that, never
		// a hello. A hello reaching a peer our Init already brought up
		// reads as a restart and tears the fresh session down.
		if !s.helloMuted {
			s.send(MsgInit)
		}
	case StateOperational:
		if now-s.lastSent >= s.timers.Keepalive*s.kaStretch {
			s.send(MsgKeepalive)
			s.lastSent = now
		}
	}
}

// Down administratively tears the session to StateDown, firing onDown
// if it was operational.
func (s *Session) Down(now float64) { s.down(now) }

// Sever drops the session and suppresses all session traffic (both
// handling and sending) until now+d — the signaling-plane analogue of
// a link cut, used by fault injection.
func (s *Session) Sever(now, d float64) {
	s.severedUntil = now + d
	s.down(now)
}

// up transitions to Operational, confirming with a keepalive.
func (s *Session) up(now float64) {
	s.state = StateOperational
	s.everUp = true
	s.send(MsgKeepalive)
	s.lastSent = now
	if s.onUp != nil {
		s.onUp()
	}
}

func (s *Session) down(now float64) {
	wasUp := s.state == StateOperational
	s.state = StateDown
	s.lastHeard = now
	if wasUp && s.onDown != nil {
		s.onDown()
	}
}
