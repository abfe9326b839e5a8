package signaling

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"embeddedmpls/internal/label"
	"embeddedmpls/internal/ldp"
	"embeddedmpls/internal/lsm"
	"embeddedmpls/internal/packet"
	"embeddedmpls/internal/router"
	"embeddedmpls/internal/telemetry"
)

// softwareNodes and hardwareNodes are the diamond's routers: software
// forwarders, or the paper's label stack modifier with LERs at the
// edges and LSRs in the core.
var (
	softwareNodes = []router.NodeSpec{{Name: "a"}, {Name: "b"}, {Name: "c"}, {Name: "d"}}
	hardwareNodes = []router.NodeSpec{
		{Name: "a", Hardware: true, RouterType: lsm.LER},
		{Name: "b", Hardware: true, RouterType: lsm.LSR},
		{Name: "c", Hardware: true, RouterType: lsm.LSR},
		{Name: "d", Hardware: true, RouterType: lsm.LER},
	}
)

// diamond builds the canonical protection topology: a-b-d is the cheap
// path, a-c-d the expensive backup.
func diamond(t *testing.T) *router.Network { return diamondOf(t, softwareNodes) }

func diamondOf(t *testing.T, nodes []router.NodeSpec) *router.Network {
	t.Helper()
	net, err := router.Build(nodes,
		[]router.LinkSpec{
			{A: "a", B: "b", RateBPS: 1e9, Delay: 0.0005, Metric: 1},
			{A: "b", B: "d", RateBPS: 1e9, Delay: 0.0005, Metric: 1},
			{A: "a", B: "c", RateBPS: 1e9, Delay: 0.0005, Metric: 5},
			{A: "c", B: "d", RateBPS: 1e9, Delay: 0.0005, Metric: 5},
		})
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func deliveredCounter(t *testing.T, net *router.Network, node string, dst packet.Addr) *int {
	t.Helper()
	r := net.Router(node)
	r.AddLocal(dst)
	n := new(int)
	r.OnDeliver = func(p *packet.Packet) { *n++ }
	return n
}

// sendProbePacket injects one unlabelled packet for dst at the ingress.
func sendProbePacket(net *router.Network, from string, dst packet.Addr) {
	p := packet.New(packet.AddrFrom(10, 0, 0, 1), dst, 16, nil)
	net.Router(from).Inject(p)
}

func TestSpeakerSessionsConverge(t *testing.T) {
	net := diamond(t)
	var events telemetry.EventCounters
	speakers, err := Deploy(net, WithEvents(&events), WithUntil(1))
	if err != nil {
		t.Fatal(err)
	}
	net.Sim.RunUntil(0.5)
	for name, sp := range speakers {
		for _, peer := range sp.Peers() {
			sess, _ := sp.Session(peer)
			if !sess.Up() {
				t.Errorf("session %s->%s is %v, want operational", name, peer, sess.State())
			}
		}
	}
	// 8 directed sessions, one up event each, no flaps.
	if got := events.Get(telemetry.EventSessionUp); got != 8 {
		t.Errorf("session_up = %d, want 8", got)
	}
	if got := events.Get(telemetry.EventSessionDown); got != 0 {
		t.Errorf("session_down = %d, want 0", got)
	}
}

// TestSpeakerEstablishAndForward signals an LSP and forwards over it,
// on software forwarders and on the paper's device.
func TestSpeakerEstablishAndForward(t *testing.T) {
	for _, tc := range []struct {
		name  string
		nodes []router.NodeSpec
	}{{"software", softwareNodes}, {"hardware", hardwareNodes}} {
		t.Run(tc.name, func(t *testing.T) {
			net := diamondOf(t, tc.nodes)
			var events telemetry.EventCounters
			speakers, err := Deploy(net, WithEvents(&events), WithUntil(2))
			if err != nil {
				t.Fatal(err)
			}
			dst := packet.AddrFrom(10, 0, 0, 9)
			delivered := deliveredCounter(t, net, "d", dst)

			var setupErr error
			established := false
			speakers["a"].OnEstablished = func(id string, path []string) {
				established = true
				if id != "l" || strings.Join(path, ",") != "a,b,d" {
					t.Errorf("established %q via %v", id, path)
				}
			}
			net.Sim.RunUntil(0.3) // let sessions come up
			err = speakers["a"].Setup(ldp.SetupRequest{
				ID:        "l",
				FEC:       ldp.FEC{Dst: dst, PrefixLen: 32},
				Path:      []string{"a", "b", "d"},
				Bandwidth: 1e6,
			}, func(e error) { setupErr = e })
			if err != nil {
				t.Fatal(err)
			}
			net.Sim.RunUntil(0.6)
			if setupErr != nil {
				t.Fatalf("setup failed: %v", setupErr)
			}
			if !established {
				t.Fatal("LSP never established")
			}
			if got := events.Get(telemetry.EventLabelMapRx); got != 2 {
				t.Errorf("label_map_rx = %d, want 2 (b and a)", got)
			}

			// Transit state: b swaps, d pops; labels were distributed, not
			// computed — a and b hold distinct per-node label spaces.
			if l := speakers["b"].lsps["l#1"]; l == nil || !l.ilmInstalled {
				t.Error("transit b has no installed ILM state")
			}
			if l := speakers["d"].lsps["l#1"]; l == nil || !l.ilmInstalled {
				t.Error("egress d has no installed ILM state")
			}

			sendProbePacket(net, "a", dst)
			net.Sim.RunUntil(0.7)
			if *delivered != 1 {
				t.Fatalf("delivered = %d, want 1", *delivered)
			}
		})
	}
}

func TestSpeakerPHP(t *testing.T) {
	net := diamond(t)
	speakers, err := Deploy(net, WithUntil(2))
	if err != nil {
		t.Fatal(err)
	}
	dst := packet.AddrFrom(10, 0, 0, 9)
	delivered := deliveredCounter(t, net, "d", dst)
	net.Sim.RunUntil(0.3)
	if err := speakers["a"].Setup(ldp.SetupRequest{
		ID:   "p",
		FEC:  ldp.FEC{Dst: dst, PrefixLen: 32},
		Path: []string{"a", "b", "d"},
		PHP:  true,
	}, nil); err != nil {
		t.Fatal(err)
	}
	net.Sim.RunUntil(0.6)
	// With PHP the egress installs nothing; the penultimate hop pops.
	if l := speakers["d"].lsps["p#1"]; l == nil || l.ilmInstalled {
		t.Error("egress installed an ILM despite PHP")
	}
	sendProbePacket(net, "a", dst)
	net.Sim.RunUntil(0.7)
	if *delivered != 1 {
		t.Fatalf("delivered = %d, want 1", *delivered)
	}
}

// TestSpeakerProtectionSwitch kills the primary path's link and expects
// the ingress to resignal over the backup — the withdraw cascade plus
// reroute, purely via messages. Then it severs the backup too: with no
// path left the LSP waits unsignalled instead of thrashing, and when
// a-b comes back the returning session re-signals it onto that side.
func TestSpeakerProtectionSwitch(t *testing.T) {
	net := diamond(t)
	var events telemetry.EventCounters
	speakers, err := Deploy(net, WithEvents(&events), WithUntil(4))
	if err != nil {
		t.Fatal(err)
	}
	dst := packet.AddrFrom(10, 0, 0, 9)
	delivered := deliveredCounter(t, net, "d", dst)
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

	net.SetLinkDown("a", "b", true)
	net.Sim.RunUntil(1.5) // dead timer fires, withdraw + reroute run

	if got := events.Get(telemetry.EventProtectionSwitch); got != 1 {
		t.Fatalf("protection_switch = %d, want 1", got)
	}
	if strings.Join(lastPath, ",") != "a,c,d" {
		t.Fatalf("rerouted path = %v, want a,c,d", lastPath)
	}
	if got := events.Get(telemetry.EventLabelWithdrawRx); got != 0 {
		// The break is adjacent to the ingress: the withdraw is local,
		// nothing crosses the wire upstream.
		t.Errorf("label_withdraw_rx = %d, want 0", got)
	}
	// Old-path state is gone everywhere: b saw its upstream die, d saw
	// the release.
	if l := speakers["b"].lsps["l#1"]; l != nil {
		t.Error("b still holds generation 1 state")
	}
	if l := speakers["d"].lsps["l#1"]; l != nil {
		t.Error("d still holds generation 1 state")
	}
	sendProbePacket(net, "a", dst)
	net.Sim.RunUntil(1.6)
	if *delivered != 1 {
		t.Fatalf("delivered over backup = %d, want 1", *delivered)
	}

	net.SetLinkDown("a", "c", true)
	net.Sim.RunUntil(2.5)
	if la := speakers["a"].List(); len(la) != 1 || !la[0].Pending {
		t.Fatalf("severed ingress List = %+v, want l pending", la)
	}
	net.SetLinkDown("a", "b", false)
	net.Sim.RunUntil(3.5)
	if strings.Join(lastPath, ",") != "a,b,d" {
		t.Fatalf("after recovery path = %v, want a,b,d", lastPath)
	}
	sendProbePacket(net, "a", dst)
	net.Sim.RunUntil(3.6)
	if *delivered != 2 {
		t.Fatalf("delivered after recovery = %d, want 2", *delivered)
	}
}

// TestSpeakerRemoteWithdraw breaks the far link (b-d) so the withdraw
// has to travel over the wire from b up to a before the reroute.
func TestSpeakerRemoteWithdraw(t *testing.T) {
	net := diamond(t)
	var events telemetry.EventCounters
	speakers, err := Deploy(net, WithEvents(&events), WithUntil(3))
	if err != nil {
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

	net.SetLinkDown("b", "d", true)
	net.Sim.RunUntil(1.5)

	if got := events.Get(telemetry.EventLabelWithdrawRx); got < 1 {
		t.Errorf("label_withdraw_rx = %d, want >= 1", got)
	}
	if got := events.Get(telemetry.EventProtectionSwitch); got != 1 {
		t.Fatalf("protection_switch = %d, want 1", got)
	}
	if strings.Join(lastPath, ",") != "a,c,d" {
		t.Fatalf("rerouted path = %v, want a,c,d", lastPath)
	}
}

// TestSpeakerRequestReroute drives the healer's cross-node escalation:
// the reroute request enters at the egress and must travel upstream to
// the ingress, which then switches make-before-break.
func TestSpeakerRequestReroute(t *testing.T) {
	net := diamond(t)
	var events telemetry.EventCounters
	speakers, err := Deploy(net, WithEvents(&events), WithUntil(3))
	if err != nil {
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

	if err := speakers["d"].RequestReroute("l", "a", "b"); err != nil {
		t.Fatal(err)
	}
	net.Sim.RunUntil(1.2)
	if got := events.Get(telemetry.EventProtectionSwitch); got != 1 {
		t.Fatalf("protection_switch = %d, want 1", got)
	}
	if strings.Join(lastPath, ",") != "a,c,d" {
		t.Fatalf("rerouted path = %v, want a,c,d", lastPath)
	}
	// Make-before-break: after the drain the old generation is released
	// along the old path.
	if l := speakers["b"].lsps["l#1"]; l != nil {
		t.Error("b still holds generation 1 after drain")
	}
	if speakers["a"].byBase["l"].gen != 2 {
		t.Errorf("current generation = %d, want 2", speakers["a"].byBase["l"].gen)
	}
}

// TestSpeakerAdmissionControl rejects a reservation the downstream link
// cannot carry, the error reaches the ingress, and every hop's
// reservation unwinds.
func TestSpeakerAdmissionControl(t *testing.T) {
	net, err := router.Build(
		[]router.NodeSpec{{Name: "a"}, {Name: "b"}, {Name: "d"}},
		[]router.LinkSpec{
			{A: "a", B: "b", RateBPS: 1e9, Delay: 0.0005, Metric: 1},
			{A: "b", B: "d", RateBPS: 1e3, Delay: 0.0005, Metric: 1},
		})
	if err != nil {
		t.Fatal(err)
	}
	speakers, err := Deploy(net, WithUntil(2))
	if err != nil {
		t.Fatal(err)
	}
	path := []string{"a", "b", "d"}
	reserved := func() []float64 {
		var out []float64
		for i := 1; i < len(path); i++ {
			for _, dir := range [][2]string{{path[i-1], path[i]}, {path[i], path[i-1]}} {
				attrs, ok := net.Topo.Link(dir[0], dir[1])
				if !ok {
					t.Fatalf("no link %s->%s", dir[0], dir[1])
				}
				out = append(out, attrs.ReservedBPS)
			}
		}
		return out
	}
	before := reserved()
	net.Sim.RunUntil(0.3)
	var setupErr error
	gotResult := false
	if err := speakers["a"].Setup(ldp.SetupRequest{
		ID:        "big",
		FEC:       ldp.FEC{Dst: packet.AddrFrom(10, 0, 0, 9), PrefixLen: 32},
		Path:      path,
		Bandwidth: 1e6, // exceeds b-d capacity
	}, func(e error) { gotResult = true; setupErr = e }); err != nil {
		t.Fatal(err)
	}
	net.Sim.RunUntil(1.5)
	if !gotResult {
		t.Fatal("done callback never fired")
	}
	if setupErr == nil {
		t.Fatal("admission failure reported success")
	}
	// The ingress reservation must have been rolled back.
	if l := speakers["a"].lsps["big#1"]; l != nil {
		t.Error("failed LSP left state at the ingress")
	}
	if after := reserved(); !slices.Equal(after, before) {
		t.Errorf("reserved bps per directed link = %v after the refusal, want %v", after, before)
	}
}

// TestSpeakerRefusedSetupLeavesNothing asks the ingress for more
// bandwidth than its first link has: Setup returns the refusal, no LSP
// is left behind to list or re-signal, and the same id without
// bandwidth then establishes.
func TestSpeakerRefusedSetupLeavesNothing(t *testing.T) {
	for _, tc := range []struct {
		name  string
		nodes []router.NodeSpec
	}{{"software", softwareNodes}, {"hardware", hardwareNodes}} {
		t.Run(tc.name, func(t *testing.T) {
			net := diamondOf(t, tc.nodes)
			speakers, err := Deploy(net, WithUntil(2))
			if err != nil {
				t.Fatal(err)
			}
			a := speakers["a"]
			net.Sim.RunUntil(0.3)
			req := ldp.SetupRequest{
				ID:        "big",
				FEC:       ldp.FEC{Dst: packet.AddrFrom(10, 0, 0, 9), PrefixLen: 32},
				Path:      []string{"a", "b", "d"},
				Bandwidth: 5e9, // the diamond's links carry 1 Gbps
			}
			if err := a.Setup(req, nil); err == nil {
				t.Fatal("5 Gbps setup over 1 Gbps links accepted")
			}
			net.Sim.RunUntil(0.6)
			if l := a.List(); len(l) != 0 {
				t.Fatalf("refused setup left %+v", l)
			}

			req.Bandwidth = 0
			setupErr := errors.New("setup never completed")
			if err := a.Setup(req, func(e error) { setupErr = e }); err != nil {
				t.Fatalf("setup of the refused id: %v", err)
			}
			net.Sim.RunUntil(0.9)
			if setupErr != nil {
				t.Fatal(setupErr)
			}
			if l := a.List(); len(l) != 1 || l[0].ID != "big" || !l[0].Established || l[0].Pending {
				t.Errorf("after the retry List = %+v, want big established", l)
			}
		})
	}
}

func TestSpeakerSetupValidation(t *testing.T) {
	net := diamond(t)
	speakers, err := Deploy(net)
	if err != nil {
		t.Fatal(err)
	}
	a := speakers["a"]
	for name, req := range map[string]ldp.SetupRequest{
		"no id":       {Path: []string{"a", "b"}},
		"short path":  {ID: "x", Path: []string{"a"}},
		"wrong start": {ID: "x", Path: []string{"b", "d"}},
		"php 2 hops":  {ID: "x", Path: []string{"a", "b"}, PHP: true},
		"unknown":     {ID: "x", Path: []string{"a", "zz"}},
		"long id":     {ID: strings.Repeat("x", MaxIDLen), Path: []string{"a", "b"}},
	} {
		if err := a.Setup(req, nil); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestSpeakerRefusesOnceLabelSpaceIsExhausted seeds one node's label
// allocator two short of its block's end and signals three LSPs
// through it: the first two take the block's last two labels, the
// third is refused cleanly — the ingress reports the failure, no node
// keeps state for it, and every installed label still packs onto the
// wire.
func TestSpeakerRefusesOnceLabelSpaceIsExhausted(t *testing.T) {
	for _, seeded := range []string{"b", "d"} { // transit, egress
		t.Run(seeded, func(t *testing.T) {
			net := diamond(t)
			speakers, err := Deploy(net, WithUntil(2))
			if err != nil {
				t.Fatal(err)
			}
			speakers[seeded].next = speakers[seeded].end - 2
			net.Sim.RunUntil(0.3)
			var setupErrs [3]error
			for i := range setupErrs {
				setupErrs[i] = errors.New("setup never completed")
				dst := packet.AddrFrom(10, 0, 0, byte(9+i))
				req := ldp.SetupRequest{ID: fmt.Sprint("l", i), FEC: ldp.FEC{Dst: dst, PrefixLen: 32}, Path: []string{"a", "b", "d"}}
				if err := speakers["a"].Setup(req, func(e error) { setupErrs[i] = e }); err != nil {
					t.Fatal(err)
				}
			}
			net.Sim.RunUntil(1)
			if setupErrs[0] != nil || setupErrs[1] != nil || setupErrs[2] == nil {
				t.Errorf("setup results %v, want only the third refused", setupErrs)
			}
			for _, name := range []string{"a", "b", "d"} {
				if l := speakers[name].lsps["l2#1"]; l != nil {
					t.Errorf("%s keeps state for the refused LSP: %+v", name, l)
				}
				tr, _ := net.Router(name).Tables()
				ilms := tr.ILMEntries()
				if name == seeded && len(ilms) != 2 {
					t.Errorf("%s holds %d ILM entries, want 2", name, len(ilms))
				}
				for _, e := range ilms {
					for _, l := range append([]label.Label{e.In}, e.NHLFE.PushLabels...) {
						if _, err := (label.Entry{Label: l}).Pack(); err != nil {
							t.Errorf("%s: installed label %d does not pack: %v", name, l, err)
						}
					}
				}
			}
		})
	}
}
