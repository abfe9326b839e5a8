// Signaling: constraint-based LSP setup with real protocol messages —
// the CR-LDP machinery the paper names as MPLS's label distribution
// protocol — on four routers built around the paper's label stack
// modifier. Sessions form first; then a LabelRequest travels downstream
// over the simulated links, LabelMappings come back upstream, every hop
// reserving bandwidth and installing its entry in its hardware
// information base, and the ingress learns of success one control
// round-trip later. A second request that exceeds the remaining
// bandwidth is refused at the ingress and leaves no reservation behind.
package main

import (
	"fmt"
	"log"

	"embeddedmpls/internal/ldp"
	"embeddedmpls/internal/lsm"
	"embeddedmpls/internal/packet"
	"embeddedmpls/internal/router"
	"embeddedmpls/internal/signaling"
	"embeddedmpls/internal/telemetry"
)

func main() {
	nodes := []router.NodeSpec{
		{Name: "a", Hardware: true, RouterType: lsm.LER},
		{Name: "b", Hardware: true, RouterType: lsm.LSR},
		{Name: "c", Hardware: true, RouterType: lsm.LSR},
		{Name: "d", Hardware: true, RouterType: lsm.LER},
	}
	var links []router.LinkSpec
	for _, pair := range [][2]string{{"a", "b"}, {"b", "c"}, {"c", "d"}} {
		links = append(links, router.LinkSpec{A: pair[0], B: pair[1], RateBPS: 10e6, Delay: 0.003})
	}
	net, err := router.Build(nodes, links)
	check(err)

	var events telemetry.EventCounters
	speakers, err := signaling.Deploy(net, signaling.WithUntil(0.5), signaling.WithEvents(&events))
	check(err)
	net.Sim.RunUntil(0.1)
	fmt.Printf("t=%.0fms: %d directed sessions operational\n", net.Sim.Now()*1e3, events.Get(telemetry.EventSessionUp))

	ingress := speakers["a"]
	path := []string{"a", "b", "c", "d"}
	dst := packet.AddrFrom(10, 0, 0, 9)
	fmt.Println("\nsetting up an 8 Mbps LSP a->b->c->d (3 ms per hop, 18 ms round-trip) ...")
	asked := net.Sim.Now()
	err = ingress.Setup(ldp.SetupRequest{
		ID: "gold", FEC: ldp.FEC{Dst: dst, PrefixLen: 32},
		Path: path, Bandwidth: 8e6, CoS: 5,
	}, func(e error) {
		if e != nil {
			log.Fatalf("setup failed: %v", e)
		}
		fmt.Printf("+%.1fms: ingress got its label mapping — LSP up\n", (net.Sim.Now()-asked)*1e3)
	})
	check(err)
	net.Sim.RunUntil(asked + 0.05)

	fmt.Println("\nLSP state per node (labels from per-node label blocks):")
	for _, name := range path {
		for _, l := range speakers[name].List() {
			fmt.Printf("  %s  %-7s  in=%-6d out=%-6d %v\n", name, l.Role, l.InLabel, l.OutLabel, l.FEC)
		}
	}

	// Prove the LSP forwards.
	delivered := false
	net.Router("d").OnDeliver = func(*packet.Packet) { delivered = true }
	net.Router("a").Inject(packet.New(1, dst, 64, []byte("payload")))
	net.Sim.RunUntil(net.Sim.Now() + 0.05)
	fmt.Printf("\ndata packet delivered over the signalled LSP: %v\n", delivered)

	// A second LSP that does not fit: only 2 Mbps left on every link.
	// The ingress's own admission check refuses it before any message is
	// sent — constraint-based setup failing fast.
	fmt.Println("\nrequesting a second 5 Mbps LSP on the same path ...")
	err = ingress.Setup(ldp.SetupRequest{
		ID: "silver", FEC: ldp.FEC{Dst: dst + 1, PrefixLen: 32},
		Path: path, Bandwidth: 5e6,
	}, func(e error) {
		fmt.Printf("ingress notified: %v\n", e)
	})
	if err != nil {
		fmt.Printf("refused at the ingress: %v\n", err)
	}
	net.Sim.Run()

	fmt.Print("\nevents:")
	for _, e := range []telemetry.Event{telemetry.EventSessionUp, telemetry.EventSessionDown,
		telemetry.EventLabelMapRx, telemetry.EventRetryAttempt} {
		fmt.Printf(" %s=%d", e, events.Get(e))
	}
	fmt.Printf("\nsignaling messages sent by a (session + label): %d\n", ingress.Stats.Tx)
	ab, _ := net.Topo.Link("a", "b")
	fmt.Printf("reservations after the failed setup: a->b %.0f Mbps of %.0f (rolled back cleanly)\n",
		ab.ReservedBPS/1e6, ab.CapacityBPS/1e6)
}

func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
