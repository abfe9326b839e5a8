package transport

import (
	"net"
	"sync"
	"testing"
	"time"

	"embeddedmpls/internal/packet"
)

// TestCoalescedDelivery sends through a coalescing link with plain Send
// calls: packets must arrive intact and attributed, packed many to a
// datagram.
func TestCoalescedDelivery(t *testing.T) {
	opts := []Option{WithCoalesce(8), WithSysBatch(16)}
	d, _, sb := newPair(t, opts, opts)
	const n = 40
	for i := 0; i < n; i++ {
		d.A.Send(labelled(uint64(i)))
	}
	got := sb.wait(t, n)
	for i, in := range got {
		if in.From != "a" {
			t.Errorf("packet %d attributed to %q, want a", i, in.From)
		}
		if in.P.SeqNo != uint64(i) {
			t.Errorf("packet %d has seq %d: reordered or lost", i, in.P.SeqNo)
		}
	}
	m := d.A.Metrics()
	if tx := m.TxPackets.Load(); tx != n {
		t.Errorf("TxPackets = %d, want %d", tx, n)
	}
	if dg := m.TxDatagrams.Load(); dg >= n {
		t.Errorf("TxDatagrams = %d for %d packets: nothing coalesced", dg, n)
	}
}

// TestSendBatchDelivery drives the bulk path end to end: one SendBatch
// call, coalesced frames, batched syscalls, all packets out the far
// side with per-datagram and per-syscall counts showing the
// amortisation.
func TestSendBatchDelivery(t *testing.T) {
	opts := []Option{WithCoalesce(16), WithSysBatch(8)}
	d, _, sb := newPair(t, opts, opts)
	const n = 100
	ps := make([]*packet.Packet, n)
	for i := range ps {
		ps[i] = labelled(uint64(i))
	}
	d.A.SendBatch(ps)
	got := sb.wait(t, n)
	seen := make(map[uint64]bool, n)
	for _, in := range got {
		if in.From != "a" {
			t.Errorf("packet attributed to %q, want a", in.From)
		}
		seen[in.P.SeqNo] = true
	}
	if len(seen) != n {
		t.Errorf("delivered %d distinct packets, want %d", len(seen), n)
	}
	m := d.A.Metrics()
	if tx := m.TxPackets.Load(); tx != n {
		t.Errorf("TxPackets = %d, want %d", tx, n)
	}
	// 100 packets at 16 per frame is 7 datagrams; at 8 datagrams per
	// sendmmsg that is a syscall or two.
	if dg := m.TxDatagrams.Load(); dg > (n+15)/16 {
		t.Errorf("TxDatagrams = %d, want <= %d", dg, (n+15)/16)
	}
	if spp := m.SyscallsPerPacket(); spp > 0.2 {
		t.Errorf("syscalls/packet = %.3f, want <= 0.2 on the batched path", spp)
	}
}

// TestSendBatchUncoalesced exercises SendBatch with coalescing off: one
// datagram per packet, still batched into few syscalls where the
// platform has sendmmsg.
func TestSendBatchUncoalesced(t *testing.T) {
	opts := []Option{WithSysBatch(32)}
	d, _, sb := newPair(t, opts, opts)
	const n = 64
	ps := make([]*packet.Packet, n)
	for i := range ps {
		ps[i] = labelled(uint64(i))
	}
	d.A.SendBatch(ps)
	sb.wait(t, n)
	m := d.A.Metrics()
	if dg := m.TxDatagrams.Load(); dg != n {
		t.Errorf("TxDatagrams = %d, want %d with coalescing off", dg, n)
	}
	if haveMmsg {
		if sys := m.TxSyscalls.Load(); sys >= n {
			t.Errorf("TxSyscalls = %d for %d datagrams: sendmmsg not batching", sys, n)
		}
	}
}

// TestBatchedPathAllocs pins the steady-state allocation cost of the
// batched wire path at zero: encode buffers, frame state,
// scatter/gather arrays and syscall closures are all reused.
func TestBatchedPathAllocs(t *testing.T) {
	// The send side writes into a socket nobody reads — kernel-side
	// drops keep the test single-goroutine, which AllocsPerRun needs.
	sinkConn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer sinkConn.Close()
	l, err := Dial("a", "b", sinkConn.LocalAddr().String(),
		WithCoalesce(32), WithSysBatch(32))
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	ps := make([]*packet.Packet, 64)
	for i := range ps {
		ps[i] = labelled(uint64(i))
	}
	l.SendBatch(ps) // warm up: grow scratch to steady-state capacity
	if allocs := testing.AllocsPerRun(100, func() { l.SendBatch(ps) }); allocs != 0 {
		t.Errorf("SendBatch allocates %.1f times per call, want 0", allocs)
	}

	// Receive side, white box: drive the datagram decoder directly with
	// a prepared coalesced frame. The read loop is stopped first so the
	// ingest path runs single-goroutine, and the batch is one frame, so
	// every frame fills it and flushes.
	r, err := Listen("127.0.0.1:0", func([]Inbound) {}, WithSysBatch(1), WithBatch(32))
	if err != nil {
		t.Fatal(err)
	}
	r.Close()
	fr := BeginFrame(nil)
	for i := 0; i < 32; i++ {
		if err := fr.Append(ps[i], 1); err != nil {
			t.Fatal(err)
		}
	}
	frame, err := fr.Finish()
	if err != nil {
		t.Fatal(err)
	}
	r.ingestDatagram(frame) // warm up batch-slot storage
	if allocs := testing.AllocsPerRun(100, func() { r.ingestDatagram(frame) }); allocs != 0 {
		t.Errorf("ingestDatagram allocates %.1f times per frame, want 0", allocs)
	}
}

// TestShardedDelivery checks the SO_REUSEPORT contract: several
// connected senders into one sharded group, every packet arrives
// exactly once, and each sender's packets all land on one shard — the
// kernel's 4-tuple hash is sticky, so a shard worker owns its senders.
func TestShardedDelivery(t *testing.T) {
	if !haveMmsg {
		t.Skip("sharded sockets need SO_REUSEPORT (linux)")
	}
	const shards, senders, perSender = 2, 8, 25
	names := make([]string, senders)
	for i := range names {
		names[i] = string(rune('a' + i))
	}

	var mu sync.Mutex
	bySender := make(map[string]map[int]int) // sender -> shard -> packets
	sink := func(shard int) func(batch []Inbound) {
		return func(batch []Inbound) {
			mu.Lock()
			defer mu.Unlock()
			for _, in := range batch {
				m := bySender[in.From]
				if m == nil {
					m = make(map[int]int)
					bySender[in.From] = m
				}
				m[shard]++
			}
		}
	}
	sr, err := ListenSharded("127.0.0.1:0", shards, sink, WithNames(names))
	if err != nil {
		t.Fatal(err)
	}
	defer sr.Close()
	if sr.Shards() != shards {
		t.Fatalf("Shards = %d, want %d", sr.Shards(), shards)
	}

	for i := 0; i < senders; i++ {
		l, err := Dial(names[i], "rx", sr.Addr().String(),
			WithSource(NodeID(i)), WithCoalesce(4), WithSysBatch(8))
		if err != nil {
			t.Fatal(err)
		}
		ps := make([]*packet.Packet, perSender)
		for j := range ps {
			ps[j] = labelled(uint64(j))
		}
		l.SendBatch(ps)
		l.Close()
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		total := 0
		for _, m := range bySender {
			for _, n := range m {
				total += n
			}
		}
		mu.Unlock()
		if total >= senders*perSender {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out: %d of %d packets arrived", total, senders*perSender)
		}
		time.Sleep(time.Millisecond)
	}

	mu.Lock()
	defer mu.Unlock()
	for sender, m := range bySender {
		if len(m) != 1 {
			t.Errorf("sender %q spread across %d shards %v, want exactly 1", sender, len(m), m)
		}
		got := 0
		for _, n := range m {
			got += n
		}
		if got != perSender {
			t.Errorf("sender %q delivered %d packets, want %d", sender, got, perSender)
		}
	}
}

// TestShardedCloseUnderLoad is the teardown race regression: shard
// sockets close while senders hammer the group from several goroutines.
// Run under -race; the only requirement is no race, no panic, no hang.
func TestShardedCloseUnderLoad(t *testing.T) {
	if !haveMmsg {
		t.Skip("sharded sockets need SO_REUSEPORT (linux)")
	}
	sr, err := ListenSharded("127.0.0.1:0", 4, func(int) func(batch []Inbound) {
		return func([]Inbound) {}
	})
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		l, err := Dial("a", "rx", sr.Addr().String(), WithCoalesce(8), WithSysBatch(8))
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(l *UDPLink) {
			defer wg.Done()
			defer l.Close()
			ps := make([]*packet.Packet, 32)
			for j := range ps {
				ps[j] = labelled(uint64(j))
			}
			for {
				select {
				case <-stop:
					return
				default:
					l.SendBatch(ps)
					l.Send(labelled(0))
				}
			}
		}(l)
	}

	time.Sleep(20 * time.Millisecond)
	if err := sr.Close(); err != nil {
		t.Errorf("Close under load: %v", err)
	}
	if err := sr.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
	close(stop)
	wg.Wait()
}
