package transport

import (
	"sync"
	"testing"
	"time"

	"embeddedmpls/internal/label"
	"embeddedmpls/internal/netsim"
	"embeddedmpls/internal/packet"
	"embeddedmpls/internal/telemetry"
)

// sink collects delivered packets (cloned — the receiver reuses its
// batch storage) and lets tests wait for a count.
type sink struct {
	mu      sync.Mutex
	got     []Inbound
	batches int
}

func (s *sink) deliver(batch []Inbound) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.batches++
	for _, in := range batch {
		s.got = append(s.got, Inbound{P: in.P.Clone(), From: in.From})
	}
}

func (s *sink) wait(t *testing.T, n int) []Inbound {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		s.mu.Lock()
		if len(s.got) >= n {
			out := append([]Inbound(nil), s.got...)
			s.mu.Unlock()
			return out
		}
		s.mu.Unlock()
		time.Sleep(time.Millisecond)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	t.Fatalf("timed out waiting for %d packets, have %d", n, len(s.got))
	return nil
}

func labelled(seq uint64) *packet.Packet {
	p := packet.New(packet.AddrFrom(10, 0, 0, 1), packet.AddrFrom(10, 0, 0, 9), 64, []byte("payload"))
	p.SeqNo = seq
	p.Stack.Push(label.Entry{Label: 500, TTL: 64})
	return p
}

// faultFunc adapts a closure to netsim.Fault.
type faultFunc func(p *packet.Packet, now netsim.Time) netsim.Verdict

func (f faultFunc) Transmit(p *packet.Packet, now netsim.Time) netsim.Verdict { return f(p, now) }

func newPair(t *testing.T, aOpts, bOpts []Option) (*Duplex, *sink, *sink) {
	t.Helper()
	var sa, sb sink
	d, err := Pair("a", "b", sa.deliver, sb.deliver, aOpts, bOpts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	return d, &sa, &sb
}

func TestPairDelivery(t *testing.T) {
	d, sa, sb := newPair(t, nil, nil)
	for i := 0; i < 10; i++ {
		d.A.Send(labelled(uint64(i)))
	}
	got := sb.wait(t, 10)
	for i, in := range got {
		if in.From != "a" {
			t.Errorf("packet %d attributed to %q, want a", i, in.From)
		}
		if in.P.SeqNo != uint64(i) {
			t.Errorf("packet %d has seq %d: reordered or lost", i, in.P.SeqNo)
		}
		if top, err := in.P.Stack.Top(); err != nil || top.Label != 500 {
			t.Errorf("packet %d stack top = %v, %v; want label 500", i, top, err)
		}
	}
	d.B.Send(labelled(99))
	if in := sa.wait(t, 1); in[0].From != "b" {
		t.Errorf("reverse packet attributed to %q, want b", in[0].From)
	}
	if tx := d.A.Metrics().TxPackets.Load(); tx != 10 {
		t.Errorf("A TxPackets = %d, want 10", tx)
	}
}

// TestCorruptionBecomesWireDecodeDrop is the fault-hook contract: a
// fault that mutates the packet damages the bytes in flight, so the far
// end counts a wire-decode drop instead of forwarding a corrupt frame.
func TestCorruptionBecomesWireDecodeDrop(t *testing.T) {
	var drops telemetry.DropCounters
	d, _, sb := newPair(t, nil, []Option{WithDropCounters(&drops)})

	d.A.SetFault(faultFunc(func(p *packet.Packet, _ netsim.Time) netsim.Verdict {
		p.Stack.Swap(501) // label corruption in flight
		return netsim.Verdict{}
	}))
	d.A.Send(labelled(1))
	d.A.SetFault(nil)
	d.A.Send(labelled(2))

	got := sb.wait(t, 1)
	if got[0].P.SeqNo != 2 {
		t.Errorf("delivered seq %d, want only the clean packet (2)", got[0].P.SeqNo)
	}
	deadline := time.Now().Add(5 * time.Second)
	for d.RB.Metrics().DecodeErrors.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := d.RB.Metrics().DecodeErrors.Load(); n != 1 {
		t.Errorf("DecodeErrors = %d, want 1", n)
	}
	if n := drops.Get(telemetry.ReasonWireDecode); n != 1 {
		t.Errorf("wire-decode drops = %d, want 1", n)
	}
}

func TestDownLinkCountsLost(t *testing.T) {
	d, _, _ := newPair(t, nil, nil)
	var dropped []telemetry.Reason
	d.A.SetOnDrop(func(_ *packet.Packet, reason telemetry.Reason) {
		dropped = append(dropped, reason)
	})
	d.A.SetDown(true)
	if !d.A.Down() {
		t.Fatal("Down() = false after SetDown(true)")
	}
	d.A.Send(labelled(1))
	if n := d.A.Metrics().TxLost.Load(); n != 1 {
		t.Errorf("TxLost = %d, want 1", n)
	}
	if len(dropped) != 1 || dropped[0] != telemetry.ReasonNoRoute {
		t.Errorf("onDrop saw %v, want one no-route", dropped)
	}
	d.A.SetDown(false)
	d.A.Send(labelled(2))
	if n := d.A.Metrics().TxPackets.Load(); n != 1 {
		t.Errorf("TxPackets after restore = %d, want 1", n)
	}
}

func TestFaultDropAndDelay(t *testing.T) {
	d, _, sb := newPair(t, nil, nil)
	d.A.SetFault(faultFunc(func(_ *packet.Packet, _ netsim.Time) netsim.Verdict {
		return netsim.Verdict{Drop: true}
	}))
	d.A.Send(labelled(1))
	if n := d.A.Metrics().TxLost.Load(); n != 1 {
		t.Errorf("TxLost = %d, want 1 after fault drop", n)
	}

	// A delay verdict defers the socket write but still delivers.
	d.A.SetFault(faultFunc(func(_ *packet.Packet, _ netsim.Time) netsim.Verdict {
		return netsim.Verdict{ExtraDelay: 0.02}
	}))
	start := time.Now()
	d.A.Send(labelled(2))
	got := sb.wait(t, 1)
	if got[0].P.SeqNo != 2 {
		t.Errorf("delivered seq %d, want 2", got[0].P.SeqNo)
	}
	if since := time.Since(start); since < 15*time.Millisecond {
		t.Errorf("delayed packet arrived after %v, want >= ~20ms", since)
	}
}

// TestBatching: a burst larger than the batch size arrives complete, in
// more than one sink call, each no larger than the configured batch.
func TestBatching(t *testing.T) {
	opts := []Option{WithBatch(4), WithFlushInterval(time.Millisecond)}
	d, _, sb := newPair(t, nil, opts)
	const n = 10
	for i := 0; i < n; i++ {
		d.A.Send(labelled(uint64(i)))
	}
	sb.wait(t, n)
	sb.mu.Lock()
	defer sb.mu.Unlock()
	if sb.batches < n/4 {
		t.Errorf("%d packets arrived in %d batches, want >= %d", n, sb.batches, n/4)
	}
}

// TestReceiverFlushesWhenSocketDrains: a batch is what the socket holds
// right now. Five packets against a 256-packet batch and an hour-long
// flush interval must reach the sink at once — the receiver hands them
// over when its next read finds the socket empty, not when a timer
// fires — on the recvmmsg path and on the single-read one.
func TestReceiverFlushesWhenSocketDrains(t *testing.T) {
	for _, sys := range []int{32, 1} {
		var s sink
		r, err := Listen("127.0.0.1:0", s.deliver,
			WithBatch(256), WithFlushInterval(time.Hour), WithSysBatch(sys))
		if err != nil {
			t.Fatal(err)
		}
		l, err := Dial("a", "rx", r.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 5; i++ {
			l.Send(labelled(uint64(i)))
		}
		for deadline := time.Now().Add(100 * time.Millisecond); ; time.Sleep(time.Millisecond) {
			s.mu.Lock()
			n := len(s.got)
			s.mu.Unlock()
			if n == 5 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("sys-batch %d: sink has %d of 5 packets after 100ms", sys, n)
			}
		}
		l.Close()
		r.Close()
	}
}

// TestLinkCloseConcurrentWithSend: closing a link while senders hammer
// it must not race, double-release buffers, or lose accounting —
// every send ends up in TxPackets or TxLost/TxErrors.
func TestLinkCloseConcurrentWithSend(t *testing.T) {
	d, _, _ := newPair(t, nil, nil)
	const senders, per = 4, 50
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				d.A.Send(labelled(uint64(i)))
			}
		}()
	}
	time.Sleep(time.Millisecond)
	if err := d.A.Close(); err != nil {
		t.Fatal(err)
	}
	if err := d.A.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
	wg.Wait()
	m := d.A.Metrics()
	total := m.TxPackets.Load() + m.TxLost.Load() + m.TxErrors.Load()
	if total != senders*per {
		t.Errorf("accounted %d sends, want %d", total, senders*per)
	}
}

// TestSharedSocketNames: one receive socket shared by several
// neighbours attributes arrivals via the datagram's source NodeID.
func TestSharedSocketNames(t *testing.T) {
	var s sink
	names := []string{"a", "b", "c"}
	r, err := Listen("127.0.0.1:0", s.deliver, WithNames(names))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	for id, name := range names {
		l, err := Dial(name, "hub", r.Addr().String(), WithSource(NodeID(id)))
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		l.Send(labelled(uint64(id)))
	}
	got := s.wait(t, len(names))
	seen := map[string]bool{}
	for _, in := range got {
		seen[in.From] = true
	}
	for _, name := range names {
		if !seen[name] {
			t.Errorf("no arrival attributed to %s (got %v)", name, seen)
		}
	}
}
