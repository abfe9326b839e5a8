package router

import (
	"net"
	"testing"

	"embeddedmpls/internal/dataplane"
	"embeddedmpls/internal/guard"
	"embeddedmpls/internal/iproute"
	"embeddedmpls/internal/label"
	"embeddedmpls/internal/netsim"
	"embeddedmpls/internal/packet"
	"embeddedmpls/internal/swmpls"
	"embeddedmpls/internal/telemetry"
	"embeddedmpls/internal/transport"
)

var (
	feedFEC   = packet.AddrFrom(10, 1, 0, 0) // /16, bound to a push toward b
	feedLocal = packet.AddrFrom(240, 0, 0, 1)
	feedOff   = packet.AddrFrom(172, 16, 0, 1) // matches no FEC
)

// feedNet is a pumped LER "a" with one wire to "b": ILM 100 swaps to
// 200, FEC 10.1/16 pushes 500, one local address, and the benchmark
// node's guard (spoof filter + TTL floor) with label 100 advertised to
// the upstream peer "x".
type feedNet struct {
	n     *Network
	a     *Router
	eng   *dataplane.Engine
	guard *guard.Guard
	drops telemetry.DropCounters
	trace *telemetry.Ring
	local []*packet.Packet // what a's OnDeliver saw
}

func newFeedNet(t *testing.T, workers int) *feedNet {
	t.Helper()
	n, err := Build([]NodeSpec{
		{Name: "a", EngineWorkers: workers, InfoBase: "indexed"},
		{Name: "b"},
	}, []LinkSpec{{A: "a", B: "b", RateBPS: 1e12, QueueCap: 1 << 20}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.Close)
	f := &feedNet{n: n, a: n.Router("a"), trace: telemetry.NewRing(256)}
	f.eng = f.a.Plane().(*EnginePlane).Engine
	n.SetTelemetry(telemetry.Sink{Drops: &f.drops, Trace: f.trace})
	f.guard = guard.New(
		guard.WithDefaultPolicy(guard.Policy{SpoofFilter: true, MinTTL: 2}),
		guard.WithDropFunc(n.Drop),
	)
	f.guard.Advertise("x", 100)
	n.SetGuard(f.guard)
	if err := f.eng.Update(func(fw *swmpls.Forwarder) error {
		if err := fw.InstallILM(100, swmpls.NHLFE{NextHop: "b", Op: label.OpSwap, PushLabels: []label.Label{200}}); err != nil {
			return err
		}
		return fw.InstallFEC(feedFEC, 16, swmpls.NHLFE{NextHop: "b", Op: label.OpPush, PushLabels: []label.Label{500}})
	}); err != nil {
		t.Fatal(err)
	}
	f.a.AddLocal(feedLocal)
	f.a.OnDeliver = func(p *packet.Packet) { f.local = append(f.local, p) }
	if err := n.AttachEgressPump("a"); err != nil {
		t.Fatal(err)
	}
	return f
}

func plainTo(dst packet.Addr, ttl uint8, seq uint64) *packet.Packet {
	p := packet.New(packet.AddrFrom(192, 0, 2, 1), dst, ttl, []byte("payload"))
	p.SeqNo = seq
	return p
}

func inbound(ps ...*packet.Packet) []transport.Inbound {
	batch := make([]transport.Inbound, len(ps))
	for i, p := range ps {
		batch[i] = transport.Inbound{P: p, From: "x"}
	}
	return batch
}

// TestFeedToClassifiesPerPacket feeds one mixed batch to a pumped LER
// and checks each class took the path the FeedTo contract names:
// labelled and LER-ingress packets through Engine.Process (guarded,
// pushed on the socket goroutine, flushed as a batch), local packets
// through serial Receive, and every discard counted exactly once by its
// owner.
func TestFeedToClassifiesPerPacket(t *testing.T) {
	f := newFeedNet(t, 2)
	feed := f.n.FeedTo("a", 1)

	var batch []*packet.Packet
	for i := 0; i < 3; i++ {
		batch = append(batch, pumpPacket(100, uint16(i))) // transit
	}
	for i := 0; i < 4; i++ {
		batch = append(batch, plainTo(packet.AddrFrom(10, 1, 2, byte(i)), 64, uint64(i))) // LER ingress
	}
	batch = append(batch,
		plainTo(feedOff, 64, 0), plainTo(feedOff, 64, 1), // no FEC: no-route, counted by the router
		plainTo(packet.AddrFrom(10, 1, 2, 3), 1, 0),         // below the guard's TTL floor
		pumpPacket(999, 0),                                  // label never advertised to x
		plainTo(feedLocal, 64, 0), plainTo(feedLocal, 1, 1), // local; the second is below the TTL floor
	)
	feed(inbound(batch...))

	// Both paths are synchronous in the sink.
	f.n.Lock()
	if len(f.local) != 1 || f.local[0].Header.Dst != feedLocal {
		t.Errorf("serial path delivered %d local packets, want 1", len(f.local))
	}
	f.n.Unlock()
	if got := f.eng.Snapshot().Submitted.Events; got != 3+4+2 {
		t.Errorf("engine took %d packets, want the 9 admitted transit ones (labelled, LER ingress, off-FEC)", got)
	}
	f.n.Close()

	if got := f.a.Stats.Forwarded.Events; got != 7 {
		t.Errorf("forwarded %d, want 7", got)
	}
	if got := f.a.Stats.Delivered.Events; got != 1 {
		t.Errorf("delivered %d, want 1", got)
	}
	if got, nr := f.a.Stats.Dropped.Events, f.a.Stats.DropsByReason[swmpls.DropNoRoute]; got != 2 || nr != 2 {
		t.Errorf("router dropped %d (no-route %d), want 2 and 2", got, nr)
	}
	want := map[telemetry.Reason]uint64{
		telemetry.ReasonNoRoute:     2,
		telemetry.ReasonTTLSecurity: 2, // one refused in FeedTo, one in Receive
		telemetry.ReasonLabelSpoof:  1,
	}
	for r := telemetry.Reason(0); r < telemetry.NumReasons; r++ {
		if got := f.drops.Get(r); got != want[r] {
			t.Errorf("node drops[%v] = %d, want %d", r, got, want[r])
		}
	}
	if got := f.guard.Drops().Total(); got != 3 {
		t.Errorf("guard counted %d drops, want 3", got)
	}
	// The engine traces in pump mode: one push per LER-ingress packet,
	// one discard per no-route, nothing twice.
	var pushes, discards int
	for _, ev := range f.trace.Events() {
		switch {
		case ev.Op == telemetry.TraceOp(label.OpPush):
			pushes++
		case ev.Op == telemetry.TraceDiscard && ev.Reason == telemetry.ReasonNoRoute:
			discards++
		}
	}
	if pushes != 4 || discards != 2 {
		t.Errorf("trace has %d pushes and %d no-route discards, want 4 and 2", pushes, discards)
	}
	l, _ := f.a.SimLink("b")
	if got := l.Sent.Events; got != 7 {
		t.Errorf("wire carried %d packets, want 7", got)
	}
}

// TestFeedToIPFallbackStaysSerial: with an IP table installed, an
// unlabelled FTN miss must reach act's IP fallback, so FeedTo keeps
// every unlabelled packet of that router off the engine.
func TestFeedToIPFallbackStaysSerial(t *testing.T) {
	f := newFeedNet(t, 2)
	tbl := iproute.NewTable()
	if err := tbl.Add(feedOff, 24, "b"); err != nil {
		t.Fatal(err)
	}
	f.a.SetIPTable(tbl)
	feed := f.n.FeedTo("a", 0)

	feed(inbound(plainTo(feedOff, 64, 0), plainTo(packet.AddrFrom(10, 1, 2, 3), 64, 1), pumpPacket(100, 0)))
	if got := f.eng.Snapshot().Submitted.Events; got != 1 {
		t.Errorf("engine took %d packets, want only the labelled one", got)
	}
	f.n.Lock()
	f.n.Sim.RunUntil(f.n.Sim.Now() + 1) // the serial path acts on the simulator
	f.n.Unlock()
	f.n.Close()
	// IP-routed, FEC-pushed (serially) and label-swapped (engine).
	if fwd, dropped := f.a.Stats.Forwarded.Events, f.a.Stats.Dropped.Events; fwd != 3 || dropped != 0 {
		t.Errorf("forwarded %d dropped %d, want 3 and 0", fwd, dropped)
	}
}

// TestFeedToAllocatesNothing pins the sink at zero allocations per
// batch, labelled and unlabelled, with a UDP egress link: classification,
// guard admission, Engine.Process (lookup, label op, trace, staging) and
// the synchronous SendBatch all run on the caller's goroutine in reused
// storage, so nothing is cloned and nothing is queued.
func TestFeedToAllocatesNothing(t *testing.T) {
	const batchLen, runs = 16, 50
	cases := []struct {
		name   string
		packet func(i int) *packet.Packet
	}{
		{"labelled", func(i int) *packet.Packet { return pumpPacketPayload(100, uint16(i)) }},
		{"unlabelled", func(i int) *packet.Packet { return plainTo(packet.AddrFrom(10, 1, 2, byte(i)), 64, uint64(i)) }},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			f := newFeedNet(t, 1)
			wire := f.udpEgress(t)
			feed := f.n.FeedTo("a", 0)
			ps := make([]*packet.Packet, batchLen)
			orig := make([]packet.Packet, batchLen)
			for i := range ps {
				ps[i] = tc.packet(i)
				orig[i] = *ps[i]
			}
			batch := inbound(ps...)
			// The label op rewrites the packets in place, as it rewrites a
			// receiver's storage; each round rewinds them first.
			round := func() {
				for i, p := range ps {
					*p = orig[i]
				}
				feed(batch)
			}
			round() // warm up: staging ring and wire scratch reach steady state
			if perBatch := testing.AllocsPerRun(runs, round); perBatch != 0 {
				t.Errorf("FeedTo allocates %v per %d-packet batch, want 0", perBatch, batchLen)
			}
			// AllocsPerRun adds one warm-up call of its own.
			want := uint64((runs + 2) * batchLen)
			f.n.Lock()
			fwd := f.a.Stats.Forwarded.Events
			f.n.Unlock()
			if fwd != want {
				t.Errorf("forwarded %d packets, want %d", fwd, want)
			}
			if tx := wire.Metrics().TxPackets.Load(); tx != want {
				t.Errorf("wire wrote %d packets by the time FeedTo returned, want %d", tx, want)
			}
		})
	}
}

// TestFeedToRetainingWiresGetClones: Process forwards in the receiver's
// storage, which the receiver overwrites with its next batch. A wire
// that queues packets (a simulated link) and the delivery path (control
// sinks, OnDeliver) keep them past the sink call, so they must be
// handed clones: overwriting every packet of the batch after feed
// returns — label, payload, TTL — must not reach what the link carries
// or what OnDeliver saw. The popped packets are addressed to a local
// address, so a local-class packet in the same batch must not make the
// serial pass take them for local ones once Process emptied their
// stacks: each is delivered once.
func TestFeedToRetainingWiresGetClones(t *testing.T) {
	f := newFeedNet(t, 2)
	// ILM 101 pops the last label: the engine delivers those here.
	f.guard.Advertise("x", 101)
	if err := f.eng.InstallILM(101, swmpls.NHLFE{Op: label.OpPop}); err != nil {
		t.Fatal(err)
	}
	var carried []packet.Packet // what a->b transmitted, by value
	l, _ := f.a.SimLink("b")
	l.SetFault(faultFunc(func(p *packet.Packet, _ netsim.Time) netsim.Verdict {
		carried = append(carried, *p)
		return netsim.Verdict{}
	}))

	batch := []*packet.Packet{
		pumpPacketPayload(100, 0), pumpPacketPayload(100, 1), // transit: swap to 200
		plainTo(packet.AddrFrom(10, 1, 2, 3), 64, 0),         // LER ingress: push 500
		pumpPacketPayload(101, 2), pumpPacketPayload(101, 3), // popped and delivered here
		plainTo(feedLocal, 64, 0), // local: the serial path
	}
	for _, p := range batch[3:5] {
		p.Header.Dst = feedLocal
	}
	f.n.FeedTo("a", 0)(inbound(batch...))
	for _, p := range batch {
		p.Stack.Reset()
		_ = p.Stack.Push(label.Entry{Label: 999, TTL: 1})
		p.Payload[0] = 'X'
		p.Header.TTL = 1
	}

	f.n.Lock()
	f.n.Sim.RunUntil(f.n.Sim.Now() + 1)
	f.n.Unlock()
	want := map[label.Label]int{200: 2, 500: 1}
	for _, p := range carried {
		top, err := p.Stack.Top()
		if err != nil || top.TTL < 2 || string(p.Payload) != "payload" || p.Header.TTL != 64 {
			t.Errorf("link carried %+v: overwritten after the sink returned", p)
			continue
		}
		want[top.Label]--
	}
	if len(carried) != 3 || want[200] != 0 || want[500] != 0 {
		t.Errorf("link carried %d packets (label balance %v), want two swapped to 200 and one pushed 500", len(carried), want)
	}
	if len(f.local) != 3 {
		t.Fatalf("OnDeliver saw %d packets, want the 2 popped ones and the local one", len(f.local))
	}
	for _, p := range f.local {
		if p.Labelled() || string(p.Payload) != "payload" || p.Header.TTL < 63 {
			t.Errorf("OnDeliver holds %+v: overwritten after the sink returned", *p)
		}
	}
}

// faultFunc adapts a closure to netsim.Fault.
type faultFunc func(p *packet.Packet, now netsim.Time) netsim.Verdict

func (f faultFunc) Transmit(p *packet.Packet, now netsim.Time) netsim.Verdict { return f(p, now) }

// udpEgress replaces a's simulated wire toward b with a UDP link into a
// socket nobody reads: the kernel drops the datagrams, so the test stays
// on one goroutine.
func (f *feedNet) udpEgress(t *testing.T) *transport.UDPLink {
	t.Helper()
	sink, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sink.Close() })
	l, err := transport.Dial("a", "b", sink.LocalAddr().String(),
		transport.WithCoalesce(32), transport.WithSysBatch(32))
	if err != nil {
		t.Fatal(err)
	}
	f.a.AttachLink(l)
	f.n.Manage(l)
	return l
}

func pumpPacketPayload(lbl label.Label, flow uint16) *packet.Packet {
	p := pumpPacket(lbl, flow)
	p.Payload = []byte("payload")
	return p
}
