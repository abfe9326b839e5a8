package router

import (
	"testing"

	"embeddedmpls/internal/iproute"
	"embeddedmpls/internal/packet"
)

// installIPTables computes and installs IGP tables for every router.
func installIPTables(t *testing.T, n *Network, owners []iproute.PrefixOwner) {
	t.Helper()
	tables, err := iproute.BuildTables(n.Topo, owners)
	if err != nil {
		t.Fatal(err)
	}
	for name, r := range n.Routers {
		r.SetIPTable(tables[name])
	}
}

func TestIPFallbackForwardsHopByHop(t *testing.T) {
	n := lineNet(t, false) // software planes, no LSPs at all
	dstIP := packet.AddrFrom(10, 7, 0, 1)
	installIPTables(t, n, []iproute.PrefixOwner{{Prefix: dstIP, Len: 24, Node: "d"}})

	var got *packet.Packet
	n.Router("d").OnDeliver = func(p *packet.Packet) { got = p }
	n.Router("a").Inject(packet.New(1, dstIP, 64, []byte("ip")))
	n.Sim.Run()

	if got == nil {
		t.Fatal("IP packet not delivered")
	}
	// a, b and c each decrement on the IP path (the delivering router
	// does not).
	if got.Header.TTL != 61 {
		t.Errorf("TTL = %d, want 61", got.Header.TTL)
	}
	if got.Labelled() {
		t.Error("IP path attached labels")
	}
}

func TestIPFallbackOnHardwareLSR(t *testing.T) {
	// Even a hardware LSR (which discards unlabelled traffic in its data
	// plane) can route IP via the software table.
	n := lineNet(t, true)
	dstIP := packet.AddrFrom(10, 7, 0, 1)
	installIPTables(t, n, []iproute.PrefixOwner{{Prefix: dstIP, Len: 24, Node: "d"}})
	delivered := 0
	n.Router("d").OnDeliver = func(*packet.Packet) { delivered++ }
	n.Router("a").Inject(packet.New(1, dstIP, 64, nil))
	n.Sim.Run()
	if delivered != 1 {
		t.Fatalf("delivered %d", delivered)
	}
}

func TestMPLSPreferredOverIPFallback(t *testing.T) {
	n := lineNet(t, false)
	installIPTables(t, n, []iproute.PrefixOwner{{Prefix: dst, Len: 32, Node: "d"}})
	installLSP(t, n, dst, []string{"a", "b", "c", "d"}, 100, false)
	seenLabelled := false
	// Snoop at c: with the LSP installed the packet must arrive labelled.
	orig := n.Router("c").Plane()
	_ = orig
	var got *packet.Packet
	n.Router("d").OnDeliver = func(p *packet.Packet) { got = p }
	p := packet.New(1, dst, 64, nil)
	n.Router("a").Inject(p)
	n.Sim.Run()
	if got == nil {
		t.Fatal("not delivered")
	}
	// MPLS end-to-end TTL behaviour (4 decrements) vs IP fallback (3):
	// 60 proves the labelled path was taken.
	if got.Header.TTL != 60 {
		t.Errorf("TTL = %d, want 60 (MPLS path)", got.Header.TTL)
	}
	_ = seenLabelled
}

func TestIPFallbackTTLExpiry(t *testing.T) {
	n := lineNet(t, false)
	dstIP := packet.AddrFrom(10, 7, 0, 1)
	installIPTables(t, n, []iproute.PrefixOwner{{Prefix: dstIP, Len: 24, Node: "d"}})
	delivered := 0
	n.Router("d").OnDeliver = func(*packet.Packet) { delivered++ }
	// TTL 2: survives a (ttl 1) then expires at b.
	n.Router("a").Inject(packet.New(1, dstIP, 2, nil))
	n.Sim.Run()
	if delivered != 0 {
		t.Fatal("expired packet delivered")
	}
	foundExpiry := false
	for _, name := range []string{"a", "b", "c"} {
		for reason, count := range n.Router(name).Stats.DropsByReason {
			if reason.String() == "ttl-expired" && count > 0 {
				foundExpiry = true
			}
		}
	}
	if !foundExpiry {
		t.Error("no router recorded a TTL expiry")
	}
}

func TestIPFallbackNoRouteStillDrops(t *testing.T) {
	n := lineNet(t, false)
	installIPTables(t, n, nil) // empty tables
	n.Router("a").Inject(packet.New(1, packet.AddrFrom(99, 0, 0, 1), 64, nil))
	n.Sim.Run()
	if n.Router("a").Stats.Dropped.Events != 1 {
		t.Error("unroutable packet not dropped")
	}
}
