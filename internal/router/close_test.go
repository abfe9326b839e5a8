package router

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"embeddedmpls/internal/guard"
	"embeddedmpls/internal/label"
	"embeddedmpls/internal/lsm"
	"embeddedmpls/internal/packet"
	"embeddedmpls/internal/swmpls"
	"embeddedmpls/internal/transport"
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

// TestCloseStopsReadersUnderFire is the run-to-completion close
// contract (run under -race): two sharded socket readers forward
// through Engine.Process while senders keep firing and Close runs.
// Close stops the readers before it closes the engine and the wires, so
// every packet a reader decoded is accounted exactly once at the node —
// read = guard drops + forwarded + dropped — and every forwarded packet
// reached the egress link before it closed: forwarded = written + lost.
func TestCloseStopsReadersUnderFire(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("sharded sockets need SO_REUSEPORT (linux)")
	}
	names := []string{"x", "b", "c"}
	n, err := BuildLocal([]NodeSpec{{Name: "x"}, {Name: "b", EngineWorkers: 2, InfoBase: "indexed"}, {Name: "c"}},
		[]LinkSpec{{A: "x", B: "b"}, {A: "b", B: "c"}}, "b")
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	g := guard.New(guard.WithDefaultPolicy(guard.Policy{SpoofFilter: true, MinTTL: 2}), guard.WithDropFunc(n.Drop))
	g.Advertise("x", 100)
	g.Advertise("x", 101) // advertised, never bound: an engine lookup miss
	n.SetGuard(g)
	b := n.Router("b")
	if err := b.InstallILM(100, swmpls.NHLFE{NextHop: "c", Op: label.OpSwap, PushLabels: []label.Label{200}}); err != nil {
		t.Fatal(err)
	}

	c, err := transport.Listen("127.0.0.1:0", func([]transport.Inbound) {})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	egress, err := transport.Dial("b", "c", c.Addr().String(),
		append(n.TransportOptions(), transport.WithCoalesce(32), transport.WithSysBatch(32), transport.WithMetrics(nil))...)
	if err != nil {
		t.Fatal(err)
	}
	b.AttachLink(egress)
	n.Manage(egress)
	if err := n.AttachEgressPump("b"); err != nil {
		t.Fatal(err)
	}
	rx, err := transport.ListenSharded("127.0.0.1:0", 2,
		func(i int) func([]transport.Inbound) { return n.FeedTo("b", i) },
		append(n.TransportOptions(), transport.WithNames(names), transport.WithMetrics(nil))...)
	if err != nil {
		t.Fatal(err)
	}
	n.Manage(rx)
	read := func() (total uint64) {
		for i := 0; i < rx.Shards(); i++ {
			total += rx.Receiver(i).Metrics().RxPackets.Load()
		}
		return total
	}

	// Each burst mixes the four fates: forwarded, engine-dropped, refused
	// by the spoof filter, refused by the TTL floor.
	burst := make([]*packet.Packet, 0, 32)
	for i := 0; i < 8; i++ {
		burst = append(burst, pumpPacket(100, uint16(i)), pumpPacket(101, uint16(i)), pumpPacket(300, uint16(i)))
		low := pumpPacket(100, uint16(i))
		low.Stack.SetTopTTL(1)
		burst = append(burst, low)
	}
	stop := make(chan struct{})
	var senders sync.WaitGroup
	for s := 0; s < 4; s++ {
		l, err := transport.Dial("x", "b", rx.Addr().String(),
			transport.WithSource(0), transport.WithCoalesce(16), transport.WithSysBatch(8))
		if err != nil {
			t.Fatal(err)
		}
		senders.Add(1)
		go func() {
			defer senders.Done()
			defer l.Close()
			for {
				select {
				case <-stop:
					return
				default:
					l.SendBatch(burst)
				}
			}
		}()
	}
	for deadline := time.Now().Add(5 * time.Second); read() < 2000; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("readers decoded %d packets in 5s", read())
		}
	}
	n.Close()
	close(stop)
	senders.Wait()

	got := read()
	guardDrops := g.Drops().Total()
	n.Lock()
	fwd, dropped := b.Stats.Forwarded.Events, b.Stats.Dropped.Events
	n.Unlock()
	m := egress.Metrics()
	written, lost := m.TxPackets.Load(), m.TxLost.Load()
	if got != guardDrops+fwd+dropped {
		t.Errorf("b read %d != guard drops %d + forwarded %d + dropped %d", got, guardDrops, fwd, dropped)
	}
	if fwd != written+lost {
		t.Errorf("b forwarded %d != written %d + lost %d", fwd, written, lost)
	}
	if fwd == 0 || dropped == 0 || guardDrops == 0 {
		t.Errorf("forwarded %d, dropped %d, guard drops %d: every fate must occur", fwd, dropped, guardDrops)
	}
}
