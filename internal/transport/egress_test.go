package transport

import (
	"net"
	"sync/atomic"
	"testing"
	"time"

	"embeddedmpls/internal/dataplane"
	"embeddedmpls/internal/label"
	"embeddedmpls/internal/packet"
	"embeddedmpls/internal/swmpls"
)

// wireSink is a batch egress sink backed by a UDPLink: the minimal
// shape of the router's egress pump, used to pin the allocation cost
// of the full engine -> staging ring -> SendBatch pipeline. After each
// flush it rewinds the packets' label stacks so the test can resubmit
// the same packets forever.
type wireSink struct {
	l       *UDPLink
	entry   label.Entry
	flushed atomic.Uint64
	stray   atomic.Uint64
}

func (s *wireSink) Flush(_ string, ps []*packet.Packet) {
	s.l.SendBatch(ps)
	for _, p := range ps {
		p.Stack.Reset()
		if err := p.Stack.Push(s.entry); err != nil {
			panic(err)
		}
	}
	s.flushed.Add(uint64(len(ps)))
}

func (s *wireSink) Deliver(ps []*packet.Packet) { s.stray.Add(uint64(len(ps))) }

func (s *wireSink) Discard(ps []*packet.Packet, _ []swmpls.DropReason) {
	s.stray.Add(uint64(len(ps)))
}

// TestEgressPumpAllocs pins the steady-state allocation cost of the
// batch-first egress path at zero, both ways a batch reaches the engine.
//
//   - queued: pinned Submit, shard queue, label swap, staging ring,
//     size-triggered flush, coalesced SendBatch. The submit batch equals
//     the flush size, so every iteration is exactly one drain, one staged
//     ring and one size-triggered flush out the wire.
//   - inline: socket to socket, the shape of router.Network.FeedTo —
//     recvmmsg, frame decode, Engine.Process on the reader goroutine
//     (label swap, staging, end-of-batch flush), SendBatch, sendmmsg.
func TestEgressPumpAllocs(t *testing.T) {
	const n = 16
	entry := label.Entry{Label: 100, TTL: 64}
	ps := make([]*packet.Packet, n)
	for i := range ps {
		p := packet.New(packet.AddrFrom(10, 0, 0, 1), packet.AddrFrom(10, 0, 0, 9), 64, nil)
		p.Header.FlowID = uint16(i)
		if err := p.Stack.Push(entry); err != nil {
			t.Fatal(err)
		}
		ps[i] = p
	}
	// newPump builds the wire (into a socket nobody reads — kernel-side
	// drops keep the measurement free of a receive goroutine there) and
	// an engine flushing onto it. Swap 100 -> 100: the sink's stack
	// rewind keeps every packet resubmittable without rebuilding it. The
	// flow cache stays off so the pin covers the uncached table walk.
	newPump := func(t *testing.T) (*dataplane.Engine, *wireSink) {
		sinkConn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { sinkConn.Close() })
		l, err := Dial("a", "b", sinkConn.LocalAddr().String(),
			WithCoalesce(32), WithSysBatch(32))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { l.Close() })
		sink := &wireSink{l: l, entry: entry}
		// Size is the only reachable worker trigger: the flush interval is
		// unreachable and each submit fills a ring exactly.
		e := dataplane.New(
			dataplane.WithWorkers(1), dataplane.WithBatch(n),
			dataplane.WithFlowCacheDisabled(),
			dataplane.WithEgress(sink), dataplane.WithEgressFlush(n, time.Hour))
		t.Cleanup(e.Close)
		if err := e.InstallILM(100, swmpls.NHLFE{
			NextHop: "b", Op: label.OpSwap, PushLabels: []label.Label{100},
		}); err != nil {
			t.Fatal(err)
		}
		return e, sink
	}
	// pin runs one warm-up cycle (ring, buffers and wire scratch reach
	// steady state), then measures.
	pin := func(t *testing.T, sink *wireSink, send func()) {
		var want uint64
		cycle := func() {
			want += n
			send()
			// Sleep, not Gosched: AllocsPerRun runs on one P, and a
			// spinning waiter would keep the reader parked in the
			// netpoller until sysmon's next poll.
			deadline := time.Now().Add(5 * time.Second)
			for sink.flushed.Load() < want {
				if time.Now().After(deadline) {
					t.Fatal("flush never completed")
				}
				time.Sleep(10 * time.Microsecond)
			}
		}
		cycle()
		if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
			t.Errorf("egress pump allocates %.1f times per batch, want 0", allocs)
		}
		if s := sink.stray.Load(); s != 0 {
			t.Errorf("%d packets left the forwarding path (deliver/discard), want 0", s)
		}
	}

	t.Run("queued", func(t *testing.T) {
		e, sink := newPump(t)
		pin(t, sink, func() {
			if got := e.Submit(ps, dataplane.SubmitOpts{Wait: true, Pin: true, Shard: 0}); got != n {
				t.Fatalf("pinned submit accepted %d of %d", got, n)
			}
		})
	})
	t.Run("inline", func(t *testing.T) {
		e, sink := newPump(t)
		batch := make([]*packet.Packet, 0, 64)
		r, err := Listen("127.0.0.1:0", func(in []Inbound) {
			batch = batch[:0]
			for _, a := range in {
				batch = append(batch, a.P)
			}
			e.Process(0, batch)
		}, WithBatch(64), WithSysBatch(32))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { r.Close() })
		tx, err := Dial("x", "a", r.Addr().String(), WithCoalesce(32), WithSysBatch(32))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { tx.Close() })
		pin(t, sink, func() { tx.SendBatch(ps) })
	})
}
