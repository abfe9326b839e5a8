package signaling

import "testing"

// sessionHarness drives one session with a fake clock and records what
// it sends.
type sessionHarness struct {
	sess  *Session
	now   float64
	sent  []MsgType
	ups   int
	downs int
}

func newSessionHarness(t Timers) *sessionHarness {
	h := &sessionHarness{}
	h.sess = NewSession("peer", t,
		func(mt MsgType) { h.sent = append(h.sent, mt) },
		func() { h.ups++ },
		func() { h.downs++ })
	return h
}

func (h *sessionHarness) lastSent() MsgType {
	if len(h.sent) == 0 {
		return 0
	}
	return h.sent[len(h.sent)-1]
}

// TestSessionTransitions tables every FSM transition.
func TestSessionTransitions(t *testing.T) {
	timers := Timers{Hello: 0.02}.withDefaults()
	cases := []struct {
		name      string
		from      State
		msg       MsgType
		wantState State
		wantSend  MsgType // 0: nothing sent
	}{
		{"down+hello", StateDown, MsgHello, StateAdjacent, MsgInit},
		{"down+init", StateDown, MsgInit, StateOperational, MsgKeepalive},
		{"down+keepalive re-offers", StateDown, MsgKeepalive, StateDown, MsgInit},
		{"adjacent+init", StateAdjacent, MsgInit, StateOperational, MsgKeepalive},
		{"adjacent+keepalive", StateAdjacent, MsgKeepalive, StateOperational, MsgKeepalive},
		{"adjacent+hello re-offers", StateAdjacent, MsgHello, StateAdjacent, MsgInit},
		{"operational+keepalive", StateOperational, MsgKeepalive, StateOperational, 0},
		{"operational+init confirms", StateOperational, MsgInit, StateOperational, MsgKeepalive},
		{"operational+hello re-handshakes", StateOperational, MsgHello, StateAdjacent, MsgInit},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			h := newSessionHarness(timers)
			h.sess.state = c.from
			h.sent = nil
			h.sess.Handle(c.msg, 1.0)
			if h.sess.State() != c.wantState {
				t.Errorf("state = %v, want %v", h.sess.State(), c.wantState)
			}
			if c.wantSend == 0 && len(h.sent) != 0 {
				t.Errorf("sent %v, want nothing", h.sent)
			}
			if c.wantSend != 0 && h.lastSent() != c.wantSend {
				t.Errorf("sent %v, want %v", h.sent, c.wantSend)
			}
		})
	}
}

// TestSessionHandshake walks two coupled sessions from cold start to
// operational, by exchanging what each side actually sends.
func TestSessionHandshake(t *testing.T) {
	timers := Timers{Hello: 0.02}
	var a, b *sessionHarness
	a = newSessionHarness(timers)
	b = newSessionHarness(timers)
	now := 0.0

	// a's first tick sends hello; b handles it, answering init; a
	// handles the init (operational, sends keepalive); b handles the
	// keepalive (operational).
	a.sess.Tick(now)
	if a.lastSent() != MsgHello {
		t.Fatalf("first tick sent %v, want hello", a.sent)
	}
	b.sess.Handle(MsgHello, now)
	if b.lastSent() != MsgInit || b.sess.State() != StateAdjacent {
		t.Fatalf("b after hello: sent %v, state %v", b.sent, b.sess.State())
	}
	a.sess.Handle(MsgInit, now)
	if a.sess.State() != StateOperational || a.ups != 1 {
		t.Fatalf("a after init: state %v ups %d", a.sess.State(), a.ups)
	}
	b.sess.Handle(a.lastSent(), now)
	if b.sess.State() != StateOperational || b.ups != 1 {
		t.Fatalf("b after keepalive: state %v ups %d", b.sess.State(), b.ups)
	}
}

// TestSessionAdjacentTickKeepsPeerUp: a side that answered a hello
// with Init and ticks before the peer's keepalive arrives re-offers
// Init, not a hello. A hello would reach the peer that Init already
// brought up and read as a restart, tearing the fresh session down.
func TestSessionAdjacentTickKeepsPeerUp(t *testing.T) {
	timers := Timers{Hello: 0.02}
	a := newSessionHarness(timers)
	b := newSessionHarness(timers)
	a.sess.Tick(0)
	b.sess.Handle(MsgHello, 0) // b adjacent, answers init
	a.sess.Handle(MsgInit, 0)  // a operational, its keepalive in flight
	b.sess.Tick(0.02)
	if b.lastSent() != MsgInit {
		t.Fatalf("adjacent tick sent %v, want init", b.lastSent())
	}
	a.sess.Handle(MsgInit, 0.02)
	if a.sess.State() != StateOperational || a.downs != 0 {
		t.Fatalf("a after the re-offered init: state %v downs %d", a.sess.State(), a.downs)
	}
	b.sess.Handle(a.lastSent(), 0.02)
	if b.sess.State() != StateOperational || b.ups != 1 {
		t.Fatalf("b after a's keepalive: state %v ups %d", b.sess.State(), b.ups)
	}
}

// TestSessionDeadTimer checks silence tears the session down exactly
// once past the hold time, and that recovery re-fires onUp.
func TestSessionDeadTimer(t *testing.T) {
	timers := Timers{Hello: 0.02}.withDefaults()
	h := newSessionHarness(timers)
	h.sess.state = StateOperational
	h.sess.lastHeard = 1.0

	h.sess.Tick(1.0 + timers.Hold*0.9) // inside hold: still alive
	if h.sess.State() != StateOperational || h.downs != 0 {
		t.Fatalf("inside hold: state %v downs %d", h.sess.State(), h.downs)
	}
	h.sess.Tick(1.0 + timers.Hold + 0.001)
	if h.sess.State() != StateDown || h.downs != 1 {
		t.Fatalf("past hold: state %v downs %d", h.sess.State(), h.downs)
	}
	// Tick while down keeps sending hellos, no further down events.
	h.sess.Tick(2.0)
	if h.lastSent() != MsgHello || h.downs != 1 {
		t.Fatalf("down tick: sent %v downs %d", h.sent, h.downs)
	}
}

// TestSessionRestartRecovery covers the deadlock hazard: one side
// restarts to Down while the other is Operational. The hello from the
// restarted side must force a re-handshake that converges.
func TestSessionRestartRecovery(t *testing.T) {
	timers := Timers{Hello: 0.02}
	a := newSessionHarness(timers)
	b := newSessionHarness(timers)
	a.sess.state = StateOperational
	b.sess.state = StateOperational

	a.sess.Down(5.0) // a restarts
	if a.downs != 1 {
		t.Fatalf("downs = %d, want 1", a.downs)
	}
	a.sent = nil
	a.sess.Tick(5.0) // a sends hello
	b.sess.Handle(MsgHello, 5.0)
	if b.sess.State() != StateAdjacent || b.downs != 1 || b.lastSent() != MsgInit {
		t.Fatalf("b after restart hello: state %v downs %d sent %v", b.sess.State(), b.downs, b.sent)
	}
	a.sess.Handle(MsgInit, 5.0) // b's init brings a up
	if a.sess.State() != StateOperational || a.ups != 1 {
		t.Fatalf("a: state %v ups %d", a.sess.State(), a.ups)
	}
	b.sess.Handle(a.lastSent(), 5.0) // a's keepalive brings b up
	if b.sess.State() != StateOperational || b.ups != 1 {
		t.Fatalf("b: state %v ups %d", b.sess.State(), b.ups)
	}
}

// TestSessionSever checks the administrative sever: traffic in both
// directions is suppressed for the window, then the session recovers.
func TestSessionSever(t *testing.T) {
	timers := Timers{Hello: 0.02}.withDefaults()
	h := newSessionHarness(timers)
	h.sess.state = StateOperational
	h.sess.lastHeard = 1.0

	h.sess.Sever(1.0, 0.5)
	if h.sess.State() != StateDown || h.downs != 1 {
		t.Fatalf("after sever: state %v downs %d", h.sess.State(), h.downs)
	}
	// Inside the window: peer messages ignored, nothing sent.
	h.sent = nil
	h.sess.Handle(MsgHello, 1.2)
	h.sess.Tick(1.2)
	if h.sess.State() != StateDown || len(h.sent) != 0 {
		t.Fatalf("severed: state %v sent %v", h.sess.State(), h.sent)
	}
	// Touch during the window must not refresh liveness.
	h.sess.Touch(1.3)
	if h.sess.lastHeard != 1.0 {
		t.Fatalf("severed touch refreshed lastHeard to %v", h.sess.lastHeard)
	}
	// After the window the handshake works again.
	h.sess.Handle(MsgHello, 1.6)
	if h.sess.State() != StateAdjacent || h.lastSent() != MsgInit {
		t.Fatalf("post-sever: state %v sent %v", h.sess.State(), h.sent)
	}
}

func TestSessionKeepalivePacing(t *testing.T) {
	timers := Timers{Hello: 0.02}.withDefaults()
	h := newSessionHarness(timers)
	h.sess.state = StateOperational
	h.sess.lastHeard = 1.0
	h.sess.lastSent = 1.0

	h.sess.Tick(1.0 + timers.Keepalive/2)
	if len(h.sent) != 0 {
		t.Fatalf("keepalive sent too early: %v", h.sent)
	}
	h.sess.Tick(1.0 + timers.Keepalive)
	if h.lastSent() != MsgKeepalive {
		t.Fatalf("no keepalive at interval: %v", h.sent)
	}
}

func TestTimersDefaults(t *testing.T) {
	d := Timers{}.withDefaults()
	if d.Hello != 0.02 || d.Keepalive != 0.04 || d.Hold != 0.12 {
		t.Errorf("defaults = %+v", d)
	}
	c := Timers{Hello: 0.1, Keepalive: 0.3, Hold: 1}.withDefaults()
	if c.Hello != 0.1 || c.Keepalive != 0.3 || c.Hold != 1 {
		t.Errorf("custom = %+v", c)
	}
	if StateDown.String() != "down" || StateAdjacent.String() != "adjacent" ||
		StateOperational.String() != "operational" {
		t.Error("state names wrong")
	}
}
