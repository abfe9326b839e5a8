package router

import (
	"testing"

	"embeddedmpls/internal/packet"
)

// rerouteTrafficRun drives a CBR flow through the diamond and moves it
// from a-b-d to a-c-d at rerouteAt: the new path takes over the ingress
// FTN entry. With failAt >= 0 the a-b link goes down at failAt and the
// old path's label entries go at once; with failAt < 0 (both paths
// healthy) they go only after the longest in-flight packet (two 1 ms
// hops plus transmission) has drained. It returns sent,
// delivered, how many packets the failed link ate, and the count of
// intra-flow sequence inversions seen at the egress.
func rerouteTrafficRun(t *testing.T, failAt, rerouteAt float64) (sent, delivered int, linkLost uint64, inversions int) {
	t.Helper()
	n := diamondNet(t)
	dst := packet.AddrFrom(10, 0, 0, 9)
	removeOld := installLSP(t, n, dst, []string{"a", "b", "d"}, 100, false)

	var lastSeq uint64
	n.Router("d").OnDeliver = func(p *packet.Packet) {
		delivered++
		if p.SeqNo <= lastSeq {
			inversions++
		}
		lastSeq = p.SeqNo
	}

	for i := 0; i < 200; i++ {
		i := i
		n.Sim.Schedule(float64(i)*0.0005, func() {
			p := packet.New(1, dst, 64, make([]byte, 64))
			p.Header.FlowID = 7
			p.SeqNo = uint64(i + 1)
			n.Router("a").Inject(p)
			sent++
		})
	}

	if failAt >= 0 {
		n.Sim.Schedule(failAt, func() {
			if err := n.SetLinkDown("a", "b", true); err != nil {
				t.Error(err)
			}
		})
	}
	n.Sim.Schedule(rerouteAt, func() {
		installLSP(t, n, dst, []string{"a", "c", "d"}, 200, false)
		if failAt >= 0 {
			removeOld(false)
		} else {
			n.Sim.Schedule(0.02, func() { removeOld(false) })
		}
	})
	n.Sim.Run()

	lab, _ := n.Router("a").SimLink("b")
	return sent, delivered, lab.Lost.Events, inversions
}

// TestRerouteUnderTrafficLossless commits a make-before-break reroute
// mid-flow with both paths healthy: every packet must arrive, in order.
func TestRerouteUnderTrafficLossless(t *testing.T) {
	sent, delivered, _, inversions := rerouteTrafficRun(t, -1, 0.05)
	if sent != 200 {
		t.Fatalf("sent %d, want 200", sent)
	}
	if delivered != sent {
		t.Errorf("delivered %d of %d: make-before-break dropped packets", delivered, sent)
	}
	if inversions != 0 {
		t.Errorf("%d intra-flow inversions across the reroute", inversions)
	}
}

// TestRerouteUnderTrafficAfterFailure downs the primary link mid-flow
// and reroutes shortly after: the only packets lost are the ones the
// dead link ate during the detection window, and delivery stays in
// order.
func TestRerouteUnderTrafficAfterFailure(t *testing.T) {
	sent, delivered, linkLost, inversions := rerouteTrafficRun(t, 0.050, 0.060)
	if inversions != 0 {
		t.Errorf("%d intra-flow inversions across failure + reroute", inversions)
	}
	if linkLost == 0 {
		t.Error("the downed link lost nothing — the fault never bit")
	}
	if got, want := uint64(sent-delivered), linkLost; got != want {
		t.Errorf("missing %d packets but the failed link accounts for %d — drops beyond the injected fault",
			got, want)
	}
	// The blackout window is 10 ms at 2000 pps: roughly 20 packets, plus
	// in-flight slack.
	if lost := sent - delivered; lost > 25 {
		t.Errorf("lost %d packets for a 10 ms outage window", lost)
	}
}
