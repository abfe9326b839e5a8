package router

import (
	"sync"
	"testing"
	"time"

	"embeddedmpls/internal/dataplane"
	"embeddedmpls/internal/guard"
	"embeddedmpls/internal/iproute"
	"embeddedmpls/internal/label"
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
// labelled and LER-ingress packets through the shard queue (guarded,
// pushed on the worker, flushed as a batch), local packets through
// serial Receive, and every discard counted exactly once by its owner.
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

	// Local delivery is synchronous in the sink; the rest is in flight.
	f.n.Lock()
	if len(f.local) != 1 || f.local[0].Header.Dst != feedLocal {
		t.Errorf("serial path delivered %d local packets, want 1", len(f.local))
	}
	f.n.Unlock()
	if got := f.eng.Snapshot().Submitted.Events; got != 3+4+2 {
		t.Errorf("engine took %d packets, want the 9 admitted transit ones (labelled, LER ingress, off-FEC)", got)
	}
	f.n.Close() // drains the staging rings through the pump

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

// TestFeedToAllocatesOnlyTheClones pins the sink at Clone's allocation
// count per packet — 2, the packet and its payload, labelled or not:
// the label stack is a value inside the packet, so copying the struct
// copies the labels — for a labelled and an unlabelled batch:
// classification, guard admission and the pinned submit add nothing.
// Moving receive-buffer ownership into the engine instead of cloning is
// what lowers this number.
func TestFeedToAllocatesOnlyTheClones(t *testing.T) {
	const batchLen, runs = 16, 50
	cases := []struct {
		name   string
		packet func(i int) *packet.Packet
		clone  float64
	}{
		{"labelled", func(i int) *packet.Packet { return pumpPacketPayload(100, uint16(i)) }, 2},
		{"unlabelled", func(i int) *packet.Packet { return plainTo(packet.AddrFrom(10, 1, 2, byte(i)), 64, uint64(i)) }, 2},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			f := newFeedNet(t, 1)
			feed := f.n.FeedTo("a", 0)
			ps := make([]*packet.Packet, batchLen)
			for i := range ps {
				ps[i] = tc.packet(i)
			}
			batch := inbound(ps...)
			if got := testing.AllocsPerRun(100, func() { cloneSink = ps[0].Clone() }); got != tc.clone {
				t.Fatalf("Clone allocates %v, the pin below assumes %v", got, tc.clone)
			}

			// AllocsPerRun counts every goroutine's allocations, so the
			// worker must stand still while the sink is measured: a stall
			// hook holds it at the top of its next batch. A first stalled
			// round grows the shard queue to the size the measurement
			// needs, so ring growth is not counted either.
			var stall sync.Mutex
			f.eng.SetStallHook(func(int) { stall.Lock(); stall.Unlock() })
			fed := uint64(0)
			stall.Lock()
			for i := 0; i <= runs; i++ {
				feed(batch)
				fed += batchLen
			}
			stall.Unlock()
			f.waitForwarded(t, fed)

			stall.Lock()
			perBatch := testing.AllocsPerRun(runs, func() { feed(batch) })
			stall.Unlock()
			fed += (runs + 1) * batchLen
			if want := tc.clone * batchLen; perBatch != want {
				t.Errorf("FeedTo allocates %v per %d-packet batch, want %v (%v per packet, Clone's)",
					perBatch, batchLen, want, tc.clone)
			}
			f.waitForwarded(t, fed) // what was measured was really forwarded
		})
	}
}

// cloneSink keeps the measured Clone from being optimised away.
var cloneSink *packet.Packet

func pumpPacketPayload(lbl label.Label, flow uint16) *packet.Packet {
	p := pumpPacket(lbl, flow)
	p.Payload = []byte("payload")
	return p
}

// waitForwarded blocks until the pump has flushed n packets in total.
func (f *feedNet) waitForwarded(t *testing.T, n uint64) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(200 * time.Microsecond) {
		f.n.Lock()
		got := f.a.Stats.Forwarded.Events
		f.n.Unlock()
		if got == n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("pump forwarded %d packets, waiting for %d", got, n)
		}
	}
}
