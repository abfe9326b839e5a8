package edge

import (
	"bytes"
	"testing"

	"embeddedmpls/internal/frame"
	"embeddedmpls/internal/ldp"
	"embeddedmpls/internal/lsm"
	"embeddedmpls/internal/packet"
	"embeddedmpls/internal/router"
	"embeddedmpls/internal/signaling"
)

var (
	srcHost = packet.AddrFrom(192, 168, 1, 10)
	dstHost = packet.AddrFrom(10, 0, 0, 10)
)

// mplsNet builds the paper's Figure 1 shape: an Ethernet segment on the
// ingress LER, an MPLS core, and an ATM segment on the egress LER.
func mplsNet(t *testing.T) (*router.Network, *Port, *Port) {
	t.Helper()
	n, err := router.Build(
		[]router.NodeSpec{
			{Name: "ler-in", Hardware: true, RouterType: lsm.LER},
			{Name: "lsr", Hardware: true, RouterType: lsm.LSR},
			{Name: "ler-out", Hardware: true, RouterType: lsm.LER},
		},
		[]router.LinkSpec{
			{A: "ler-in", B: "lsr", RateBPS: 10e6, Delay: 0.001},
			{A: "lsr", B: "ler-out", RateBPS: 10e6, Delay: 0.001},
		},
	)
	if err != nil {
		t.Fatal(err)
	}
	speakers, err := signaling.Deploy(n)
	if err != nil {
		t.Fatal(err)
	}
	if err := signaling.Establish(n, speakers, ldp.SetupRequest{
		ID:   "lsp",
		FEC:  ldp.FEC{Dst: dstHost, PrefixLen: 32},
		Path: []string{"ler-in", "lsr", "ler-out"},
	}); err != nil {
		t.Fatal(err)
	}
	for _, sp := range speakers {
		sp.Stop()
	}

	eth := NewPort("eth0", n.Router("ler-in"),
		&frame.EthernetAdapter{Local: frame.MAC{1}, Remote: frame.MAC{2}})
	eth.AttachHost(srcHost)
	Attach(n.Router("ler-in"), eth)

	atm := NewPort("atm0", n.Router("ler-out"),
		&frame.ATMAdapter{Circuit: frame.VC{VPI: 1, VCI: 42}})
	atm.AttachHost(dstHost)
	Attach(n.Router("ler-out"), atm)

	return n, eth, atm
}

// TestEthernetToATMEndToEnd reproduces the paper's Figure 2 exchange: a
// layer-2 network generates a packet, the ingress LER labels it, the
// core switches it, the egress LER strips the label and hands it to a
// different layer-2 network — here Ethernet in, ATM out, with real
// framing both sides.
func TestEthernetToATMEndToEnd(t *testing.T) {
	n, eth, atm := mplsNet(t)

	var received [][]byte
	atm.OnTransmit = func(units [][]byte) {
		for _, u := range units {
			received = append(received, append([]byte(nil), u...))
		}
	}

	payload := []byte("voice sample 0123456789")
	pkt := packet.New(srcHost, dstHost, 64, payload)
	if err := eth.SendFromHost(pkt); err != nil {
		t.Fatal(err)
	}
	n.Sim.Run()

	if len(received) == 0 {
		t.Fatal("nothing arrived on the ATM segment")
	}
	// Reassemble the AAL5 train back into the packet.
	out, err := (&frame.ATMAdapter{Circuit: frame.VC{VPI: 1, VCI: 42}}).Decap(received)
	if err != nil {
		t.Fatal(err)
	}
	got, err := packet.Unmarshal(out)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Payload, payload) {
		t.Errorf("payload corrupted: %q", got.Payload)
	}
	if got.Labelled() {
		t.Error("labels leaked onto the layer-2 segment")
	}
	if got.Header.Src != srcHost || got.Header.Dst != dstHost {
		t.Errorf("header mangled: %+v", got.Header)
	}
	// 3 routers, one decrement each.
	if got.Header.TTL != 61 {
		t.Errorf("TTL = %d, want 61", got.Header.TTL)
	}

	if eth.RxPackets.Events != 1 || eth.RxFrames.Events != 1 {
		t.Errorf("ingress counters: %+v %+v", eth.RxPackets, eth.RxFrames)
	}
	if atm.TxPackets.Events != 1 || atm.TxFrames.Events < 1 {
		t.Errorf("egress counters: %+v %+v", atm.TxPackets, atm.TxFrames)
	}
	if eth.Medium() != frame.Ethernet || atm.Medium() != frame.ATM {
		t.Error("port media wrong")
	}
}

func TestFrameRelayPortRoundTrip(t *testing.T) {
	n, _, _ := mplsNet(t)
	fr := NewPort("fr0", n.Router("ler-in"),
		&frame.FrameRelayAdapter{DLCI: 77})
	local := packet.AddrFrom(192, 168, 9, 9)
	fr.AttachHost(local)
	Attach(n.Router("ler-in"), fr)

	var out [][]byte
	fr.OnTransmit = func(units [][]byte) { out = units }

	// A packet destined to the local Frame Relay host terminates at this
	// LER and leaves via the port.
	pkt := packet.New(dstHost, local, 64, []byte("frames"))
	n.Router("ler-in").Inject(pkt)
	n.Sim.Run()
	if len(out) != 1 {
		t.Fatalf("%d frames transmitted", len(out))
	}
	payload, err := (&frame.FrameRelayAdapter{DLCI: 77}).Decap(out)
	if err != nil {
		t.Fatal(err)
	}
	got, err := packet.Unmarshal(payload)
	if err != nil {
		t.Fatal(err)
	}
	if string(got.Payload) != "frames" {
		t.Errorf("payload = %q", got.Payload)
	}
}

func TestFromWireRejectsCorruptFrames(t *testing.T) {
	n, eth, _ := mplsNet(t)
	_ = n
	good, err := (&frame.EthernetAdapter{Local: frame.MAC{2}, Remote: frame.MAC{1}}).Encap([]byte{0x45, 0, 0, 0}, false)
	if err != nil {
		t.Fatal(err)
	}
	good[0][20] ^= 0xff // break the FCS
	if err := eth.FromWire(good); err == nil {
		t.Error("corrupt frame accepted")
	}
	if eth.Errors != 1 {
		t.Errorf("errors = %d", eth.Errors)
	}
	// A valid frame whose payload is not a packet must also error.
	junk, err := (&frame.EthernetAdapter{Local: frame.MAC{2}, Remote: frame.MAC{1}}).Encap([]byte{0x99, 1, 2}, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := eth.FromWire(junk); err == nil {
		t.Error("non-packet payload accepted")
	}
	if eth.Errors != 2 {
		t.Errorf("errors = %d", eth.Errors)
	}
}

func TestDeliveryToUnknownHostCounted(t *testing.T) {
	n, eth, _ := mplsNet(t)
	// Force delivery of a packet for a host on no segment: mark it local
	// so the router delivers, but attach it to no port.
	orphan := packet.AddrFrom(172, 16, 0, 1)
	n.Router("ler-in").AddLocal(orphan)
	n.Router("ler-in").Inject(packet.New(1, orphan, 64, nil))
	n.Sim.Run()
	if eth.Errors != 1 {
		t.Errorf("orphan delivery not counted: errors = %d", eth.Errors)
	}
}

func TestAttachRequiresPorts(t *testing.T) {
	n, _, _ := mplsNet(t)
	defer func() {
		if recover() == nil {
			t.Error("Attach with no ports should panic")
		}
	}()
	Attach(n.Router("ler-in"))
}

// TestMultiPortDispatch: one LER serving two layer-2 segments delivers
// each packet onto the segment that hosts its destination.
func TestMultiPortDispatch(t *testing.T) {
	n, _, _ := mplsNet(t)
	r := n.Router("ler-in")
	hostA := packet.AddrFrom(192, 168, 1, 1)
	hostB := packet.AddrFrom(192, 168, 2, 1)
	portA := NewPort("ethA", r, &frame.EthernetAdapter{Local: frame.MAC{1}, Remote: frame.MAC{2}})
	portA.AttachHost(hostA)
	portB := NewPort("frB", r, &frame.FrameRelayAdapter{DLCI: 42})
	portB.AttachHost(hostB)
	Attach(r, portA, portB)

	var gotA, gotB int
	portA.OnTransmit = func([][]byte) { gotA++ }
	portB.OnTransmit = func([][]byte) { gotB++ }

	r.Inject(packet.New(1, hostA, 64, nil))
	r.Inject(packet.New(1, hostB, 64, nil))
	r.Inject(packet.New(1, hostB, 64, nil))
	n.Sim.Run()
	if gotA != 1 || gotB != 2 {
		t.Errorf("dispatch: ethA=%d frB=%d, want 1 and 2", gotA, gotB)
	}
	if portA.TxPackets.Events != 1 || portB.TxPackets.Events != 2 {
		t.Errorf("tx counters: %d / %d", portA.TxPackets.Events, portB.TxPackets.Events)
	}
}

// TestDeliverWithoutTransmitSinkStillCounts: a port with no OnTransmit
// must account the packet and not panic.
func TestDeliverWithoutTransmitSinkStillCounts(t *testing.T) {
	n, _, _ := mplsNet(t)
	r := n.Router("ler-in")
	host := packet.AddrFrom(192, 168, 3, 1)
	port := NewPort("sinkless", r, &frame.FrameRelayAdapter{DLCI: 9})
	port.AttachHost(host)
	Attach(r, port)
	r.Inject(packet.New(1, host, 64, nil))
	n.Sim.Run()
	if port.TxPackets.Events != 1 || port.TxFrames.Events != 1 {
		t.Errorf("counters: %+v %+v", port.TxPackets, port.TxFrames)
	}
}

func TestPortNameAndBadHostPacket(t *testing.T) {
	n, eth, _ := mplsNet(t)
	_ = n
	if eth.Name() != "eth0" {
		t.Errorf("Name = %q", eth.Name())
	}
	// A host packet beyond the Ethernet MTU fails cleanly at encap.
	big := packet.New(srcHost, dstHost, 64, make([]byte, frame.EthMaxPayload+64))
	if err := eth.SendFromHost(big); err == nil {
		t.Error("oversized host packet accepted")
	}
}

func TestDeliverEncapFailureCounted(t *testing.T) {
	n, _, _ := mplsNet(t)
	r := n.Router("ler-in")
	host := packet.AddrFrom(192, 168, 77, 1)
	port := NewPort("mtu0", r, &frame.EthernetAdapter{Local: frame.MAC{5}, Remote: frame.MAC{6}})
	port.AttachHost(host)
	Attach(r, port)
	// Payload beyond the Ethernet MTU: encap fails, the error is counted.
	big := packet.New(1, host, 64, make([]byte, frame.EthMaxPayload+64))
	r.Inject(big)
	n.Sim.Run()
	if port.Errors != 1 {
		t.Errorf("oversized delivery not counted: errors=%d", port.Errors)
	}
}
