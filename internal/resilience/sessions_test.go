package resilience

import (
	"strings"
	"testing"

	"embeddedmpls/internal/ldp"
	"embeddedmpls/internal/packet"
	"embeddedmpls/internal/router"
	"embeddedmpls/internal/signaling"
	"embeddedmpls/internal/telemetry"
)

func signalingDiamond(t *testing.T, events *telemetry.EventCounters) (*router.Network, map[string]*signaling.Speaker) {
	t.Helper()
	net, err := router.Build(
		[]router.NodeSpec{{Name: "a"}, {Name: "b"}, {Name: "c"}, {Name: "d"}},
		[]router.LinkSpec{
			{A: "a", B: "b", RateBPS: 1e9, Delay: 0.0005, Metric: 1},
			{A: "b", B: "d", RateBPS: 1e9, Delay: 0.0005, Metric: 1},
			{A: "a", B: "c", RateBPS: 1e9, Delay: 0.0005, Metric: 5},
			{A: "c", B: "d", RateBPS: 1e9, Delay: 0.0005, Metric: 5},
		})
	if err != nil {
		t.Fatal(err)
	}
	speakers, err := signaling.Deploy(net, signaling.WithEvents(events), signaling.WithUntil(3))
	if err != nil {
		t.Fatal(err)
	}
	return net, speakers
}

// TestSessionHealerProtectionSwitch runs the full distributed loop: the
// monitor detects the dead link at the *egress* side, the session
// healer there sends a Reroute request upstream over the wire, and the
// ingress switches the LSP onto the backup path.
func TestSessionHealerProtectionSwitch(t *testing.T) {
	var events telemetry.EventCounters
	var tl Timeline
	net, speakers := signalingDiamond(t, &events)

	// Monitor probes the b-d link from d's side; its healer runs at d,
	// far from the ingress a.
	mon := NewMonitor(net, net.Sim, MonitorConfig{
		Interval: 0.005, MissThreshold: 3, Until: 2, Events: &events, Timeline: &tl,
	})
	sh := BindSessions(speakers["d"], net.Sim, &tl)
	mon.OnDown = sh.LinkDown
	mon.OnUp = sh.LinkUp
	if err := mon.Watch("d", "b"); err != nil {
		t.Fatal(err)
	}

	dst := packet.AddrFrom(10, 0, 0, 9)
	net.Sim.RunUntil(0.3)
	if err := speakers["a"].Setup(ldp.SetupRequest{
		ID:   "l",
		FEC:  ldp.FEC{Dst: dst, PrefixLen: 32},
		Path: []string{"a", "b", "d"},
	}, nil); err != nil {
		t.Fatal(err)
	}
	var lastPath []string
	speakers["a"].OnEstablished = func(id string, path []string) { lastPath = path }
	net.Sim.RunUntil(0.6)
	sh.Protect("l", []string{"a", "b", "d"})

	// Cut b-d for data AND signaling: probes die, the monitor fires,
	// and the healer's reroute request must travel d -> b -> a... but
	// d-b is dead. The d->a escalation can't cross the dead link, so
	// the withdraw cascade (b's session to d dying) is what actually
	// reaches the ingress. Both mechanisms are in play; either way the
	// LSP must end up on a-c-d.
	net.SetLinkDown("b", "d", true)
	net.Sim.RunUntil(2.0)

	if got := events.Get(telemetry.EventProtectionSwitch); got < 1 {
		t.Fatalf("protection_switch = %d, want >= 1\n%s", got, tl.String())
	}
	if strings.Join(lastPath, ",") != "a,c,d" {
		t.Fatalf("path after heal = %v, want a,c,d\n%s", lastPath, tl.String())
	}
	if tl.Len() == 0 {
		t.Error("timeline recorded nothing")
	}
}

// TestSessionHealerRemoteRequest exercises the wire escalation in
// isolation: no link actually fails, the healer at the egress is just
// told one did — a link report or a degraded-LSP report off the first
// link of its path — and the reroute request must cross two live
// sessions to reach the ingress.
func TestSessionHealerRemoteRequest(t *testing.T) {
	for name, report := range map[string]func(sh *SessionHealer){
		"link down": func(sh *SessionHealer) { sh.LinkDown("a", "b") },
		"degraded":  func(sh *SessionHealer) { sh.Degraded("l") },
	} {
		t.Run(name, func(t *testing.T) {
			var events telemetry.EventCounters
			var tl Timeline
			net, speakers := signalingDiamond(t, &events)

			sh := BindSessions(speakers["d"], net.Sim, &tl)
			dst := packet.AddrFrom(10, 0, 0, 9)
			net.Sim.RunUntil(0.3)
			if err := speakers["a"].Setup(ldp.SetupRequest{
				ID:   "l",
				FEC:  ldp.FEC{Dst: dst, PrefixLen: 32},
				Path: []string{"a", "b", "d"},
			}, nil); err != nil {
				t.Fatal(err)
			}
			var lastPath []string
			speakers["a"].OnEstablished = func(id string, path []string) { lastPath = path }
			net.Sim.RunUntil(0.6)
			sh.Protect("l", []string{"a", "b", "d"})

			// Reports that do not concern the LSP's path are no-ops.
			sh.LinkDown("a", "c")
			sh.Degraded("ghost")
			report(sh) // reported failure, sessions all still up
			net.Sim.RunUntil(1.2)

			if got := events.Get(telemetry.EventProtectionSwitch); got != 1 {
				t.Fatalf("protection_switch = %d, want 1\n%s", got, tl.String())
			}
			if strings.Join(lastPath, ",") != "a,c,d" {
				t.Fatalf("path after request = %v, want a,c,d", lastPath)
			}
			if strings.Contains(tl.String(), "around a-c") {
				t.Errorf("healer requested a reroute around a link off the path:\n%s", tl.String())
			}

			// A second report for a link the path no longer uses is a no-op.
			report(sh)
			net.Sim.RunUntil(1.8)
			if got := events.Get(telemetry.EventProtectionSwitch); got != 1 {
				t.Errorf("duplicate report caused another switch: %d", got)
			}
		})
	}
}
