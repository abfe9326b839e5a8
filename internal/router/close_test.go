package router

import (
	"sync"
	"testing"

	"embeddedmpls/internal/lsm"
	"embeddedmpls/internal/packet"
)

// udpLine builds a two-node a—b line wired over loopback UDP with an
// LSP from a to b.
func udpLine(t *testing.T) *Network {
	t.Helper()
	nodes := []NodeSpec{
		{Name: "a", RouterType: lsm.LER, Transport: TransportUDP},
		{Name: "b", RouterType: lsm.LER, Transport: TransportUDP},
	}
	links := []LinkSpec{{A: "a", B: "b", RateBPS: 10e6, Delay: 0.0001, Metric: 1}}
	net, err := Build(nodes, links)
	if err != nil {
		t.Fatal(err)
	}
	installLSP(t, net, packet.AddrFrom(10, 0, 0, 9), []string{"a", "b"}, 100, false)
	return net
}

// TestCloseIdempotentConcurrentSends is the teardown contract
// regression (run under -race): Close may be called repeatedly, from
// several goroutines, while traffic is still being pumped through
// transport sockets — without panics, races, or deadlock.
func TestCloseIdempotentConcurrentSends(t *testing.T) {
	net := udpLine(t)
	dst := packet.AddrFrom(10, 0, 0, 9)

	// Pump traffic on the real clock in the background: the ingress
	// keeps injecting while Close tears the sockets down under it.
	pumping := make(chan struct{})
	go func() {
		defer close(pumping)
		for i := 0; i < 3; i++ {
			net.Lock()
			for j := 0; j < 20; j++ {
				p := packet.New(1, dst, 64, make([]byte, 64))
				net.Router("a").Inject(p)
			}
			net.Unlock()
			net.RunReal(0.005)
		}
	}()

	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			net.Close()
		}()
	}
	wg.Wait()
	<-pumping
	net.Close() // and once more after everything has quiesced
}

// TestCloseDeliversBeforeTeardown: a normal run over UDP transport
// delivers end to end, and Close afterwards is clean.
func TestCloseDeliversBeforeTeardown(t *testing.T) {
	net := udpLine(t)
	defer net.Close()
	dst := packet.AddrFrom(10, 0, 0, 9)

	net.Lock()
	for i := 0; i < 50; i++ {
		net.Router("a").Inject(packet.New(1, dst, 64, make([]byte, 64)))
	}
	net.Unlock()
	net.RunReal(0.2)

	net.Lock()
	delivered := net.Router("b").Stats.Delivered.Events
	net.Unlock()
	if delivered != 50 {
		t.Errorf("delivered %d of 50 packets over UDP transport", delivered)
	}
	net.Close()
	net.Close()
}
