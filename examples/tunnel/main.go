// Tunnel: the paper's Figure 3 — two flows entering an MPLS network at
// different LERs are aggregated into one tunnel across the core and
// de-aggregated at the far side, using 2-level label stacks on embedded
// hardware routers throughout.
//
// Topology:
//
//	ler1 \                    / ler3
//	       head - mid - tail
//	ler2 /                    \ ler4
//
// flow A: ler1 -> ler3, flow B: ler2 -> ler4, both riding tunnel
// head->mid->tail.
package main

import (
	"fmt"
	"log"

	"embeddedmpls/internal/ldp"
	"embeddedmpls/internal/lsm"
	"embeddedmpls/internal/packet"
	"embeddedmpls/internal/router"
	"embeddedmpls/internal/signaling"
	"embeddedmpls/internal/trafficgen"
)

func main() {
	nodes := []router.NodeSpec{
		{Name: "ler1", Hardware: true, RouterType: lsm.LER},
		{Name: "ler2", Hardware: true, RouterType: lsm.LER},
		{Name: "head", Hardware: true, RouterType: lsm.LSR},
		{Name: "mid", Hardware: true, RouterType: lsm.LSR},
		{Name: "tail", Hardware: true, RouterType: lsm.LSR},
		{Name: "ler3", Hardware: true, RouterType: lsm.LER},
		{Name: "ler4", Hardware: true, RouterType: lsm.LER},
	}
	var links []router.LinkSpec
	for _, pair := range [][2]string{
		{"ler1", "head"}, {"ler2", "head"},
		{"head", "mid"}, {"mid", "tail"},
		{"tail", "ler3"}, {"tail", "ler4"},
	} {
		links = append(links, router.LinkSpec{A: pair[0], B: pair[1], RateBPS: 10e6, Delay: 0.001})
	}
	net, err := router.Build(nodes, links)
	check(err)

	// One tunnel across the core — the paper's "LSP (TUNNEL)" at level 2
	// — and two LSPs riding it as their head->tail hop, signalled by a
	// speaker on every router, which then stops ticking.
	dstA := packet.AddrFrom(10, 3, 0, 1)
	dstB := packet.AddrFrom(10, 4, 0, 1)
	speakers, err := signaling.Deploy(net)
	check(err)
	check(signaling.Establish(net, speakers,
		ldp.SetupRequest{ID: "core-tunnel", Path: []string{"head", "mid", "tail"}, Bandwidth: 4e6, Tunnel: true},
		ldp.SetupRequest{
			ID: "flowA", FEC: ldp.FEC{Dst: dstA, PrefixLen: 32},
			Path: []string{"ler1", "head", "tail", "ler3"}, Bandwidth: 1e6,
		},
		ldp.SetupRequest{
			ID: "flowB", FEC: ldp.FEC{Dst: dstB, PrefixLen: 32},
			Path: []string{"ler2", "head", "tail", "ler4"}, Bandwidth: 1e6,
		},
	))
	for _, sp := range speakers {
		sp.Stop()
	}

	collector := trafficgen.NewCollector(net.Sim)
	collector.Attach(net.Router("ler3"))
	collector.Attach(net.Router("ler4"))

	stop := net.Sim.Now() + 2.0
	trafficgen.CBR{
		Flow: trafficgen.Flow{ID: 1, Src: packet.AddrFrom(10, 1, 0, 1), Dst: dstA},
		Size: 512, Interval: 0.005, Stop: stop,
	}.Install(net.Sim, net.Router("ler1"), collector)
	trafficgen.CBR{
		Flow: trafficgen.Flow{ID: 2, Src: packet.AddrFrom(10, 2, 0, 1), Dst: dstB},
		Size: 512, Interval: 0.005, Stop: stop,
	}.Install(net.Sim, net.Router("ler2"), collector)

	net.Sim.Run()

	fmt.Println("Figure 3 scenario: two flows aggregated through one core tunnel")
	fmt.Println()
	for _, id := range collector.FlowIDs() {
		f := collector.Flow(id)
		fmt.Printf("flow %d: sent=%d delivered=%d loss=%.1f%% latency %s\n",
			id, f.Sent.Events, f.Delivered.Events, 100*f.LossRate(),
			f.Latency.Summary("ms", 1e3))
	}
	fmt.Println()
	// The shared head->mid link carried both flows with stacked labels.
	l, _ := net.Router("head").SimLink("mid")
	fmt.Printf("aggregated tunnel link head->mid: %d packets, %.1f%% utilised\n",
		l.Delivered.Events, 100*l.Utilisation())
	for _, name := range []string{"ler1", "head", "mid", "tail", "ler3"} {
		fmt.Printf("  %v\n", net.Router(name))
	}
}

func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
