package router

import (
	"testing"

	"embeddedmpls/internal/lsm"
	"embeddedmpls/internal/packet"
	"embeddedmpls/internal/te"
)

// diamondNet builds a diamond a-{b,c}-d with hardware planes.
func diamondNet(t *testing.T) *Network {
	t.Helper()
	nodes := []NodeSpec{
		{Name: "a", Hardware: true, RouterType: lsm.LER},
		{Name: "b", Hardware: true, RouterType: lsm.LSR},
		{Name: "c", Hardware: true, RouterType: lsm.LSR},
		{Name: "d", Hardware: true, RouterType: lsm.LER},
	}
	links := []LinkSpec{
		{A: "a", B: "b", RateBPS: 10e6, Delay: 0.001, Metric: 1},
		{A: "b", B: "d", RateBPS: 10e6, Delay: 0.001, Metric: 1},
		{A: "a", B: "c", RateBPS: 10e6, Delay: 0.001, Metric: 5},
		{A: "c", B: "d", RateBPS: 10e6, Delay: 0.001, Metric: 5},
	}
	n, err := Build(nodes, links)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestFailoverEndToEnd fails the primary path mid-run, reroutes via CSPF,
// and checks that delivery resumes with loss bounded to the failure
// window.
func TestFailoverEndToEnd(t *testing.T) {
	n := diamondNet(t)
	dst := packet.AddrFrom(10, 0, 0, 9)
	removeOld := installLSP(t, n, dst, []string{"a", "b", "d"}, 100, false)

	delivered := 0
	n.Router("d").OnDeliver = func(*packet.Packet) { delivered++ }

	// One packet per millisecond for 100 ms.
	sent := 0
	for i := 0; i < 100; i++ {
		i := i
		n.Sim.Schedule(float64(i)*0.001, func() {
			n.Router("a").Inject(packet.New(1, dst, 64, make([]byte, 64)))
			sent++
		})
	}
	// At t=30ms the a-b link fails; at t=35ms the control plane has
	// computed a repair path (excluding b) and reroutes onto it,
	// replacing the ingress entry and dropping the old path's labels.
	n.Sim.Schedule(0.030, func() {
		if err := n.SetLinkDown("a", "b", true); err != nil {
			t.Error(err)
		}
	})
	n.Sim.Schedule(0.035, func() {
		repair, err := n.Topo.CSPF(te.PathRequest{From: "a", To: "d", ExcludeNodes: map[string]bool{"b": true}})
		if err != nil {
			t.Error(err)
			return
		}
		installLSP(t, n, dst, repair, 200, false)
		removeOld(false)
	})
	n.Sim.Run()

	if sent != 100 {
		t.Fatalf("sent %d", sent)
	}
	lost := sent - delivered
	// The outage window is 5 ms -> at most ~7 packets lost (plus one in
	// flight); zero loss would mean the failure never bit.
	if lost == 0 {
		t.Error("no loss across a 5 ms outage window — failure did not take effect")
	}
	if lost > 8 {
		t.Errorf("lost %d packets, want <= 8 (the outage window)", lost)
	}
	// Post-reroute traffic went via c.
	if n.Router("c").Stats.Forwarded.Events == 0 {
		t.Error("repair path never carried traffic")
	}
	// Nothing is still routed at b after the reroute completes.
	lab, _ := n.Router("a").SimLink("b")
	if lab.Lost.Events == 0 {
		t.Error("down link recorded no lost packets")
	}
}

// TestFailoverRestoresAfterRepair brings the failed link back and
// reroutes to the original path.
func TestFailoverRestoresAfterRepair(t *testing.T) {
	n := diamondNet(t)
	dst := packet.AddrFrom(10, 0, 0, 9)
	removeBackup := installLSP(t, n, dst, []string{"a", "c", "d"}, 100, false)
	installLSP(t, n, dst, []string{"a", "b", "d"}, 200, false)
	removeBackup(false)
	got := 0
	n.Router("d").OnDeliver = func(*packet.Packet) { got++ }
	n.Router("a").Inject(packet.New(1, dst, 64, nil))
	n.Sim.Run()
	if got != 1 {
		t.Fatalf("delivered %d after reroute back", got)
	}
	if n.Router("b").Stats.Forwarded.Events != 1 {
		t.Error("traffic did not return to the primary path")
	}
}

func TestSetLinkDownValidation(t *testing.T) {
	n := diamondNet(t)
	if err := n.SetLinkDown("a", "ghost", true); err == nil {
		t.Error("unknown endpoint accepted")
	}
	if err := n.SetLinkDown("ghost", "a", true); err == nil {
		t.Error("unknown endpoint accepted")
	}
	if err := n.SetLinkDown("a", "d", true); err == nil {
		t.Error("nonexistent link accepted")
	}
	if err := n.SetLinkDown("a", "b", true); err != nil {
		t.Fatal(err)
	}
	l, _ := n.Router("a").Link("b")
	if !l.Down() {
		t.Error("link not down")
	}
	if err := n.SetLinkDown("a", "b", false); err != nil {
		t.Fatal(err)
	}
	if l.Down() {
		t.Error("link not restored")
	}
}
