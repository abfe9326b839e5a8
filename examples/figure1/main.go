// Figure1: the paper's Figure 1 and Figure 2 made executable — an
// Ethernet network on one side, an ATM network on the other, an MPLS core
// of embedded-hardware routers in between. A packet is generated on the
// Ethernet segment, framed, labelled at the ingress LER, label-switched
// across two LSRs, stripped at the egress LER and delivered to the ATM
// segment as an AAL5 cell train. Every layer-2 byte is really encoded and
// integrity-checked.
package main

import (
	"fmt"
	"log"

	"embeddedmpls/internal/edge"
	"embeddedmpls/internal/frame"
	"embeddedmpls/internal/ldp"
	"embeddedmpls/internal/lsm"
	"embeddedmpls/internal/packet"
	"embeddedmpls/internal/router"
	"embeddedmpls/internal/signaling"
)

func main() {
	// LER1 -- LSR1 -- LSR2 -- LER2, all running the embedded data plane.
	nodes := []router.NodeSpec{
		{Name: "ler1", Hardware: true, RouterType: lsm.LER},
		{Name: "lsr1", Hardware: true, RouterType: lsm.LSR},
		{Name: "lsr2", Hardware: true, RouterType: lsm.LSR},
		{Name: "ler2", Hardware: true, RouterType: lsm.LER},
	}
	var links []router.LinkSpec
	for _, pair := range [][2]string{{"ler1", "lsr1"}, {"lsr1", "lsr2"}, {"lsr2", "ler2"}} {
		links = append(links, router.LinkSpec{A: pair[0], B: pair[1], RateBPS: 10e6, Delay: 0.001})
	}
	net, err := router.Build(nodes, links)
	check(err)

	// Layer-2 attachments: Ethernet behind LER1, ATM behind LER2.
	srcHost := packet.AddrFrom(192, 168, 1, 10)
	dstHost := packet.AddrFrom(10, 0, 0, 10)
	eth := edge.NewPort("eth0", net.Router("ler1"),
		&frame.EthernetAdapter{Local: frame.MAC{0xaa, 0, 0, 0, 0, 1}, Remote: frame.MAC{0xaa, 0, 0, 0, 0, 2}})
	eth.AttachHost(srcHost)
	edge.Attach(net.Router("ler1"), eth)

	vc := frame.VC{VPI: 1, VCI: 42}
	atm := edge.NewPort("atm0", net.Router("ler2"), &frame.ATMAdapter{Circuit: vc})
	atm.AttachHost(dstHost)
	edge.Attach(net.Router("ler2"), atm)

	// Routing functionality: one LSP across the core, signalled by a
	// label distribution speaker on every router. The speakers stop
	// ticking once it is up; the core then only label-switches.
	path := []string{"ler1", "lsr1", "lsr2", "ler2"}
	speakers, err := signaling.Deploy(net)
	check(err)
	check(signaling.Establish(net, speakers, ldp.SetupRequest{
		ID:   "fig1",
		FEC:  ldp.FEC{Dst: dstHost, PrefixLen: 32},
		Path: path,
		CoS:  3,
	}))
	for _, sp := range speakers {
		sp.Stop()
	}
	// Each hop owns the label for the hop into it and mapped it upstream,
	// egress first.
	hops := make([]uint32, len(path)-1)
	for i := range hops {
		hops[i] = speakers[path[i+1]].List()[0].InLabel
	}
	fmt.Printf("LSP established, hop labels: %v\n", hops)
	for i := len(path) - 1; i >= 1; i-- {
		fmt.Printf("  label mapping: %s -> %s (label %d)\n", path[i], path[i-1], hops[i-1])
	}

	// The ATM side records what it receives.
	var cells [][]byte
	atm.OnTransmit = func(units [][]byte) { cells = units }

	// "LAYER 2 NETWORK (generates L2 packet)": the Ethernet host sends.
	payload := []byte("figure 2 packet exchange")
	pkt := packet.New(srcHost, dstHost, 64, payload)
	check(eth.SendFromHost(pkt))
	net.Sim.Run()

	fmt.Printf("\nEthernet ingress: %d frame(s), %d packet(s)\n", eth.RxFrames.Events, eth.RxPackets.Events)
	for _, name := range []string{"ler1", "lsr1", "lsr2", "ler2"} {
		fmt.Printf("  %v\n", net.Router(name))
	}
	fmt.Printf("ATM egress: %d cell(s) on VPI %d / VCI %d\n", len(cells), vc.VPI, vc.VCI)

	// "LAYER 2 NETWORK (receives L2 packet)": reassemble and verify.
	data, err := (&frame.ATMAdapter{Circuit: vc}).Decap(cells)
	check(err)
	got, err := packet.Unmarshal(data)
	check(err)
	fmt.Printf("\ndelivered: %v\n", got)
	fmt.Printf("payload intact: %v, labels stripped: %v, TTL %d -> %d\n",
		string(got.Payload) == string(payload), !got.Labelled(), 64, got.Header.TTL)
}

func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
