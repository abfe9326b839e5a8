package router

import (
	"testing"

	"embeddedmpls/internal/packet"
)

// TestEnginePlaneFollowsLSP runs the engine-backed data plane through
// the standard 4-node LSP scenario: table programming reaches the
// engines via snapshot publication, packets follow the path, and the plane's
// amortised per-packet cost is cheaper than the serial baseline.
func TestEnginePlaneFollowsLSP(t *testing.T) {
	nodes := []NodeSpec{
		{Name: "a", EngineWorkers: 4},
		{Name: "b", EngineWorkers: 4},
		{Name: "c", EngineWorkers: 4},
		{Name: "d", EngineWorkers: 4},
	}
	links := []LinkSpec{
		{A: "a", B: "b", RateBPS: 10e6, Delay: 0.001},
		{A: "b", B: "c", RateBPS: 10e6, Delay: 0.001},
		{A: "c", B: "d", RateBPS: 10e6, Delay: 0.001},
	}
	n, err := Build(nodes, links)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()

	remove := installLSP(t, n, dst, []string{"a", "b", "c", "d"}, 100, false)

	ep, ok := n.Router("a").Plane().(*EnginePlane)
	if !ok {
		t.Fatalf("node a runs %T, want *EnginePlane", n.Router("a").Plane())
	}
	if ep.PerPacket >= DefaultSoftwareCost {
		t.Errorf("engine per-packet cost %v not amortised below baseline %v", ep.PerPacket, DefaultSoftwareCost)
	}
	// Table programming went through snapshot publication.
	if ep.Engine.Updates() == 0 {
		t.Error("no snapshots published by LSP setup")
	}

	var delivered []*packet.Packet
	n.Router("d").OnDeliver = func(p *packet.Packet) { delivered = append(delivered, p) }
	const sent = 5
	for i := 0; i < sent; i++ {
		p := packet.New(packet.AddrFrom(192, 0, 2, 1), dst, 64, []byte("hello"))
		p.Header.FlowID = uint16(i)
		n.Router("a").Inject(p)
	}
	n.Sim.Run()

	if len(delivered) != sent {
		t.Fatalf("delivered %d packets, want %d", len(delivered), sent)
	}
	for _, p := range delivered {
		if p.Labelled() {
			t.Error("delivered packet still labelled")
		}
		if p.Header.TTL != 60 {
			t.Errorf("TTL = %d, want 60", p.Header.TTL)
		}
	}
	// Teardown must unprogram the engines the same way.
	remove(true)
	p := packet.New(packet.AddrFrom(192, 0, 2, 1), dst, 64, nil)
	n.Router("a").Inject(p)
	n.Sim.Run()
	if len(delivered) != sent {
		t.Errorf("packet delivered after teardown (%d total)", len(delivered))
	}
}
