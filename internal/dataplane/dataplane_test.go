package dataplane

import (
	"bytes"
	"strings"
	"sync"
	"testing"
	"time"

	"embeddedmpls/internal/label"
	"embeddedmpls/internal/packet"
	"embeddedmpls/internal/swmpls"
	"embeddedmpls/internal/telemetry"
)

func swapNHLFE(out label.Label, nh string) swmpls.NHLFE {
	return swmpls.NHLFE{NextHop: nh, Op: label.OpSwap, PushLabels: []label.Label{out}}
}

func labelled(lbl label.Label, flow uint16, seq uint64) *packet.Packet {
	p := packet.New(packet.AddrFrom(192, 0, 2, 1), packet.AddrFrom(10, 0, 0, 9), 64, nil)
	p.Header.FlowID = flow
	p.SeqNo = seq
	if err := p.Stack.Push(label.Entry{Label: lbl, TTL: 64}); err != nil {
		panic(err)
	}
	return p
}

// submit and submitWait are the batch-of-one helpers most tests use.
func submit(e *Engine, p *packet.Packet) bool {
	return e.Submit([]*packet.Packet{p}, SubmitOpts{}) == 1
}

func submitWait(e *Engine, p *packet.Packet) bool {
	return e.Submit([]*packet.Packet{p}, SubmitOpts{Wait: true}) == 1
}

// sink is a batch egress sink recording per-packet outcomes for
// assertions, reconstructing a Result per packet from the batch call.
type sink struct {
	mu      sync.Mutex
	results []swmpls.Result
	perFlow map[uint16][]uint64
}

func newSink() *sink { return &sink{perFlow: make(map[uint16][]uint64)} }

func (s *sink) record(p *packet.Packet, res swmpls.Result) {
	s.mu.Lock()
	s.results = append(s.results, res)
	s.perFlow[p.Header.FlowID] = append(s.perFlow[p.Header.FlowID], p.SeqNo)
	s.mu.Unlock()
}

func (s *sink) Flush(nextHop string, ps []*packet.Packet) {
	for _, p := range ps {
		s.record(p, swmpls.Result{Action: swmpls.Forward, NextHop: nextHop})
	}
}

func (s *sink) Deliver(ps []*packet.Packet) {
	for _, p := range ps {
		s.record(p, swmpls.Result{Action: swmpls.Deliver})
	}
}

func (s *sink) Discard(ps []*packet.Packet, reasons []swmpls.DropReason) {
	for i, p := range ps {
		s.record(p, swmpls.Result{Action: swmpls.Drop, Drop: reasons[i]})
	}
}

// funcEgress adapts per-packet callbacks to the batch Egress contract
// for tests that only care about one class of outcome.
type funcEgress struct {
	forward func(nextHop string, p *packet.Packet)
	deliver func(p *packet.Packet)
	discard func(p *packet.Packet, reason swmpls.DropReason)
}

func (f funcEgress) Flush(nextHop string, ps []*packet.Packet) {
	if f.forward != nil {
		for _, p := range ps {
			f.forward(nextHop, p)
		}
	}
}

func (f funcEgress) Deliver(ps []*packet.Packet) {
	if f.deliver != nil {
		for _, p := range ps {
			f.deliver(p)
		}
	}
}

func (f funcEgress) Discard(ps []*packet.Packet, reasons []swmpls.DropReason) {
	if f.discard != nil {
		for i, p := range ps {
			f.discard(p, reasons[i])
		}
	}
}

func TestForwardAndAccount(t *testing.T) {
	sk := newSink()
	e := New(WithWorkers(4), WithEgress(sk))
	if err := e.Update(func(f *swmpls.Forwarder) error {
		if err := f.InstallFEC(packet.AddrFrom(10, 0, 0, 0), 8, swmpls.NHLFE{
			NextHop: "b", Op: label.OpPush, PushLabels: []label.Label{100},
		}); err != nil {
			return err
		}
		return f.InstallILM(100, swapNHLFE(200, "c"))
	}); err != nil {
		t.Fatal(err)
	}

	const n = 1000
	for i := 0; i < n; i++ {
		switch i % 3 {
		case 0: // ingress push via the FTN
			p := packet.New(packet.AddrFrom(192, 0, 2, 1), packet.AddrFrom(10, 1, 2, 3), 64, nil)
			p.Header.FlowID = uint16(i)
			if !submitWait(e, p) {
				t.Fatal("SubmitWait refused while open")
			}
		case 1: // transit swap via the ILM
			if !submitWait(e, labelled(100, uint16(i), 0)) {
				t.Fatal("SubmitWait refused while open")
			}
		default: // unroutable -> forwarding drop
			p := packet.New(packet.AddrFrom(192, 0, 2, 1), packet.AddrFrom(172, 16, 0, 1), 64, nil)
			p.Header.FlowID = uint16(i)
			if !submitWait(e, p) {
				t.Fatal("SubmitWait refused while open")
			}
		}
	}
	e.Close()

	snap := e.Snapshot()
	if snap.Submitted.Events != n {
		t.Fatalf("submitted %d, want %d", snap.Submitted.Events, n)
	}
	if got := snap.Processed(); got != n {
		t.Fatalf("processed %d, want %d", got, n)
	}
	wantFwd := uint64(334 + 333) // ceil(n/3) pushes + swaps
	if snap.Forwarded.Events != wantFwd {
		t.Errorf("forwarded %d, want %d", snap.Forwarded.Events, wantFwd)
	}
	if snap.Dropped.Events != 333 {
		t.Errorf("dropped %d, want 333", snap.Dropped.Events)
	}
	if snap.DropsByReason[swmpls.DropNoRoute] != 333 {
		t.Errorf("no-route drops %d, want 333", snap.DropsByReason[swmpls.DropNoRoute])
	}
	if snap.QueueDropped != 0 {
		t.Errorf("queue drops %d with backpressure submit", snap.QueueDropped)
	}
	if len(sk.results) != n {
		t.Errorf("deliver callback saw %d packets, want %d", len(sk.results), n)
	}
	if snap.BatchTime.Count() == 0 {
		t.Error("no batch time samples recorded")
	}
	var busy float64
	for _, b := range snap.WorkerBusy {
		busy += b
	}
	if busy <= 0 {
		t.Error("no worker busy time recorded")
	}

	// The engine is closed: nothing is accepted any more.
	if submit(e, labelled(100, 0, 0)) || submitWait(e, labelled(100, 0, 0)) {
		t.Error("submit accepted after Close")
	}
	e.Close() // idempotent
}

// TestConcurrentChurn forwards continuously while the control plane
// publishes well over 100 table snapshots. Under -race this doubles as
// the proof that readers and the updater never touch shared mutable
// state; functionally it asserts that every packet saw a complete table
// (next hop is always one of the two programmed values, never a torn
// in-between).
func TestConcurrentChurn(t *testing.T) {
	var mu sync.Mutex
	hops := make(map[string]uint64)
	e := New(WithWorkers(4), WithQueueCap(256), WithEgress(funcEgress{
		forward: func(nextHop string, p *packet.Packet) {
			mu.Lock()
			hops[nextHop]++
			mu.Unlock()
		},
	}))
	if err := e.InstallILM(100, swapNHLFE(200, "A")); err != nil {
		t.Fatal(err)
	}

	const packets = 20000
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < packets; i++ {
			if !submitWait(e, labelled(100, uint16(i%64), 0)) {
				t.Error("SubmitWait refused while open")
				return
			}
		}
	}()

	// Churn: flip the LSP between next hops A and B, and keep installing
	// and removing unrelated state so snapshots differ structurally too.
	const swaps = 150
	for i := 0; i < swaps; i++ {
		nh := "A"
		if i%2 == 1 {
			nh = "B"
		}
		if err := e.Update(func(f *swmpls.Forwarder) error {
			if err := f.InstallILM(100, swapNHLFE(200, nh)); err != nil {
				return err
			}
			if err := f.InstallILM(label.Label(1000+i), swapNHLFE(2000, "x")); err != nil {
				return err
			}
			f.RemoveILM(label.Label(1000 + i - 1))
			return f.InstallFEC(packet.AddrFrom(10, 0, byte(i), 0), 24, swmpls.NHLFE{
				NextHop: "y", Op: label.OpPush, PushLabels: []label.Label{label.Label(3000 + i)},
			})
		}); err != nil {
			t.Fatal(err)
		}
		time.Sleep(50 * time.Microsecond)
	}
	<-done
	e.Close()

	if e.Updates() < 100 {
		t.Fatalf("only %d snapshot swaps, want >= 100", e.Updates())
	}
	var total uint64
	for nh, n := range hops {
		if nh != "A" && nh != "B" {
			t.Errorf("packet forwarded to impossible next hop %q", nh)
		}
		total += n
	}
	if total != packets {
		t.Fatalf("forwarded %d packets, want %d", total, packets)
	}
	snap := e.Snapshot()
	if snap.Processed() != packets || snap.QueueDropped != 0 {
		t.Fatalf("processed=%d queueDropped=%d, want %d/0", snap.Processed(), snap.QueueDropped, packets)
	}
}

// TestFlowOrderPreserved interleaves many flows through a multi-worker
// engine and asserts each flow's packets come out in submission order.
func TestFlowOrderPreserved(t *testing.T) {
	sk := newSink()
	e := New(WithWorkers(4), WithEgress(sk))
	for i := 0; i < 8; i++ {
		if err := e.InstallILM(label.Label(16+i), swapNHLFE(label.Label(100+i), "b")); err != nil {
			t.Fatal(err)
		}
	}

	const flows, perFlow = 32, 200
	for seq := 0; seq < perFlow; seq++ {
		for f := 0; f < flows; f++ {
			// Several flows share each label, so per-flow order must
			// survive both the hashing and the per-shard queueing.
			p := labelled(label.Label(16+f%8), uint16(f), uint64(seq))
			if !submitWait(e, p) {
				t.Fatal("SubmitWait refused while open")
			}
		}
	}
	e.Close()

	if len(sk.perFlow) != flows {
		t.Fatalf("saw %d flows, want %d", len(sk.perFlow), flows)
	}
	for f, seqs := range sk.perFlow {
		if len(seqs) != perFlow {
			t.Fatalf("flow %d delivered %d packets, want %d", f, len(seqs), perFlow)
		}
		for i, s := range seqs {
			if s != uint64(i) {
				t.Fatalf("flow %d out of order: position %d holds seq %d", f, i, s)
			}
		}
	}
}

// TestTailDropAccounting overloads a tiny queue and checks that every
// offered packet is accounted for exactly once: processed or dropped at
// admission.
func TestTailDropAccounting(t *testing.T) {
	e := New(WithWorkers(1), WithQueueCap(8), WithBatch(4), WithEgress(funcEgress{
		forward: func(string, *packet.Packet) { time.Sleep(20 * time.Microsecond) },
	}))
	if err := e.InstallILM(100, swapNHLFE(200, "b")); err != nil {
		t.Fatal(err)
	}
	const offered = 500
	accepted := 0
	for i := 0; i < offered; i++ {
		if submit(e, labelled(100, uint16(i), 0)) {
			accepted++
		}
	}
	e.Close()
	snap := e.Snapshot()
	if snap.Submitted.Events != uint64(accepted) {
		t.Errorf("snapshot submitted %d, Submit accepted %d", snap.Submitted.Events, accepted)
	}
	if snap.QueueDropped != uint64(offered-accepted) {
		t.Errorf("queue dropped %d, want %d", snap.QueueDropped, offered-accepted)
	}
	if snap.Processed() != uint64(accepted) {
		t.Errorf("processed %d, want %d", snap.Processed(), accepted)
	}
	if snap.QueueDropped == 0 {
		t.Error("expected tail drops under overload")
	}
	// Admission rejections must appear in the unified reason accounting
	// too, matching the scheduler's own count exactly.
	if got := snap.Reasons[telemetry.ReasonQueueOverfull]; got != snap.QueueDropped {
		t.Errorf("queue-overfull reason count %d, scheduler dropped %d", got, snap.QueueDropped)
	}
}

// TestCoSAwarePreferentialDrop floods an overloaded CoS-aware engine
// with equal best-effort and premium traffic; the premium class must get
// through at a higher rate because it has reserved queue space and
// strict dequeue priority.
func TestCoSAwarePreferentialDrop(t *testing.T) {
	// The worker only completes a packet when the test hands it a token,
	// so the offered load outpaces the service rate deterministically —
	// no wall-clock pacing involved.
	tokens := make(chan struct{})
	var mu sync.Mutex
	byClass := make(map[label.CoS]uint64)
	e := New(WithWorkers(1), WithQueueCap(64), WithBatch(4), WithPolicy(CoSAware),
		WithEgressFlush(1, 200*time.Microsecond),
		WithEgress(funcEgress{forward: func(_ string, p *packet.Packet) {
			<-tokens
			top, err := p.Stack.Top()
			if err != nil {
				t.Errorf("delivered packet lost its stack: %v", err)
				return
			}
			mu.Lock()
			byClass[top.CoS]++
			mu.Unlock()
		}}))
	if err := e.InstallILM(100, swapNHLFE(200, "b")); err != nil {
		t.Fatal(err)
	}
	mk := func(cos label.CoS, flow uint16) *packet.Packet {
		p := packet.New(packet.AddrFrom(192, 0, 2, 1), packet.AddrFrom(10, 0, 0, 9), 64, nil)
		p.Header.FlowID = flow
		if err := p.Stack.Push(label.Entry{Label: 100, CoS: cos, TTL: 64}); err != nil {
			t.Fatal(err)
		}
		return p
	}
	// Saturate both class queues (8 slots each at QueueCap 64 / 8
	// classes), then keep offering one packet per class for every packet
	// the worker is allowed to finish: a 2x overload shared equally
	// between the classes.
	for i := 0; i < 150; i++ {
		submit(e, mk(0, uint16(i)))
		submit(e, mk(7, uint16(i)))
	}
	const served = 200
	for i := 0; i < served; i++ {
		tokens <- struct{}{}
		submit(e, mk(0, uint16(i)))
		submit(e, mk(7, uint16(i)))
	}
	close(tokens) // let the drain on Close run free
	e.Close()
	snap := e.Snapshot()
	if snap.QueueDropped == 0 {
		t.Fatal("expected queue drops under overload")
	}
	// Strict priority plus reserved per-class space must favour the
	// premium class decisively, not marginally.
	if byClass[7] <= 2*byClass[0] {
		t.Errorf("premium class served %d, best effort %d; want a decisive preference", byClass[7], byClass[0])
	}
}

func TestUpdateFailureLeavesTable(t *testing.T) {
	e := New(WithWorkers(1))
	defer e.Close()
	if err := e.InstallILM(100, swapNHLFE(200, "b")); err != nil {
		t.Fatal(err)
	}
	before := e.Updates()
	err := e.Update(func(f *swmpls.Forwarder) error {
		// A reserved label is rejected by the forwarder's validation.
		return f.InstallILM(1, swapNHLFE(300, "c"))
	})
	if err == nil {
		t.Fatal("expected install of reserved label to fail")
	}
	if e.Updates() != before {
		t.Error("failed update still published a snapshot")
	}
	p := labelled(100, 0, 0)
	res := e.ProcessInline(p)
	if res.Action != swmpls.Forward || res.NextHop != "b" {
		t.Errorf("table damaged by failed update: %+v", res)
	}
	top, _ := p.Stack.Top()
	if top.Label != 200 {
		t.Errorf("swap produced label %d, want 200", top.Label)
	}
}

// TestPenultimatePopMultiPass checks the worker's multi-pass loop: a pop
// exposing an inner label that this engine also maps is re-examined, as
// in the router's engine loop.
func TestPenultimatePopMultiPass(t *testing.T) {
	sk := newSink()
	e := New(WithWorkers(2), WithEgress(sk))
	if err := e.Update(func(f *swmpls.Forwarder) error {
		if err := f.InstallILM(100, swmpls.NHLFE{Op: label.OpPop}); err != nil {
			return err
		}
		return f.InstallILM(50, swapNHLFE(60, "out"))
	}); err != nil {
		t.Fatal(err)
	}
	p := packet.New(packet.AddrFrom(192, 0, 2, 1), packet.AddrFrom(10, 0, 0, 9), 64, nil)
	if err := p.Stack.Push(label.Entry{Label: 50, TTL: 64}); err != nil {
		t.Fatal(err)
	}
	if err := p.Stack.Push(label.Entry{Label: 100, TTL: 64}); err != nil {
		t.Fatal(err)
	}
	if !submitWait(e, p) {
		t.Fatal("SubmitWait refused while open")
	}
	e.Close()
	if len(sk.results) != 1 {
		t.Fatalf("delivered %d results", len(sk.results))
	}
	res := sk.results[0]
	if res.Action != swmpls.Forward || res.NextHop != "out" {
		t.Fatalf("multi-pass result %+v, want forward to out", res)
	}
}

// TestDropReasonTelemetry forces the paper's three discard transitions
// (information base lookup miss, TTL expiry, inconsistent stored
// operation) plus the software-only no-route case through the engine,
// and checks the unified reason counters, the histograms and the trace
// ring all see them.
func TestDropReasonTelemetry(t *testing.T) {
	trace := telemetry.NewRing(256)
	e := New(WithWorkers(2), WithNode("lsr-test"), WithTrace(trace))
	if err := e.Update(func(f *swmpls.Forwarder) error {
		if err := f.InstallILM(100, swapNHLFE(200, "b")); err != nil {
			return err
		}
		// A transit push on an already full stack is the inconsistent-
		// operation case: the stored operation cannot be applied.
		return f.InstallILM(300, swmpls.NHLFE{
			NextHop: "c", Op: label.OpPush, PushLabels: []label.Label{301},
		})
	}); err != nil {
		t.Fatal(err)
	}

	const per = 10
	for i := 0; i < per; i++ {
		// Lookup miss: a label with no ILM binding.
		if !submitWait(e, labelled(999, uint16(i), 0)) {
			t.Fatal("SubmitWait refused while open")
		}
		// TTL expiry: a mapped label arriving with TTL 1.
		p := labelled(100, uint16(i), 1)
		top, _ := p.Stack.Pop()
		top.TTL = 1
		if err := p.Stack.Push(top); err != nil {
			t.Fatal(err)
		}
		if !submitWait(e, p) {
			t.Fatal("SubmitWait refused while open")
		}
		// Inconsistent operation: label 300 wants a push, but the stack
		// is already at MaxDepth.
		full := labelled(20, uint16(i), 2)
		for _, l := range []label.Label{21, 300} {
			if err := full.Stack.Push(label.Entry{Label: l, TTL: 64}); err != nil {
				t.Fatal(err)
			}
		}
		if !submitWait(e, full) {
			t.Fatal("SubmitWait refused while open")
		}
		// No route: an unlabelled packet with no FEC binding.
		u := packet.New(packet.AddrFrom(192, 0, 2, 1), packet.AddrFrom(172, 16, 0, 1), 64, nil)
		u.Header.FlowID = uint16(i)
		if !submitWait(e, u) {
			t.Fatal("SubmitWait refused while open")
		}
		// And one forwardable packet so ops are traced too.
		if !submitWait(e, labelled(100, uint16(i), 3)) {
			t.Fatal("SubmitWait refused while open")
		}
	}
	e.Close()

	snap := e.Snapshot()
	for reason, want := range map[telemetry.Reason]uint64{
		telemetry.ReasonLookupMiss:     per,
		telemetry.ReasonTTLExpired:     per,
		telemetry.ReasonInconsistentOp: per,
		telemetry.ReasonNoRoute:        per,
		telemetry.ReasonQueueOverfull:  0,
	} {
		if got := snap.Reasons[reason]; got != want {
			t.Errorf("%v count = %d, want %d", reason, got, want)
		}
	}
	if got := e.Drops().Total(); got != 4*per {
		t.Errorf("total drops %d, want %d", got, 4*per)
	}
	// The legacy per-DropReason map and the unified taxonomy must agree.
	if snap.DropsByReason[swmpls.DropNoLabel] != snap.Reasons[telemetry.ReasonLookupMiss] {
		t.Errorf("DropsByReason[no-label]=%d, reasons[lookup-miss]=%d",
			snap.DropsByReason[swmpls.DropNoLabel], snap.Reasons[telemetry.ReasonLookupMiss])
	}
	// Histograms saw every processed packet.
	if snap.StackDepth.Count != 5*per {
		t.Errorf("stack depth observations %d, want %d", snap.StackDepth.Count, 5*per)
	}
	if snap.Latency.Count == 0 {
		t.Error("no batch latency observations")
	}

	// The trace ring holds one event per packet: swaps for the
	// forwardable ones, discards (with the right reasons) for the rest.
	byOp := make(map[telemetry.TraceOp]int)
	byReason := make(map[telemetry.Reason]int)
	for _, ev := range trace.Events() {
		if ev.Node != "lsr-test" {
			t.Fatalf("trace event from unexpected node %q", ev.Node)
		}
		byOp[ev.Op]++
		if ev.Op == telemetry.TraceDiscard {
			byReason[ev.Reason]++
		}
	}
	if byOp[telemetry.TraceSwap] != per {
		t.Errorf("traced %d swaps, want %d", byOp[telemetry.TraceSwap], per)
	}
	if byOp[telemetry.TraceDiscard] != 4*per {
		t.Errorf("traced %d discards, want %d", byOp[telemetry.TraceDiscard], 4*per)
	}
	for _, r := range []telemetry.Reason{
		telemetry.ReasonLookupMiss, telemetry.ReasonTTLExpired,
		telemetry.ReasonInconsistentOp, telemetry.ReasonNoRoute,
	} {
		if byReason[r] != per {
			t.Errorf("traced %d %v discards, want %d", byReason[r], r, per)
		}
	}
}

// TestConcurrentMetricsScrape runs the full telemetry surface under
// contention: shard workers forwarding, the control plane swapping RCU
// table snapshots, and two scrapers rendering the Prometheus exposition
// and reading Snapshot concurrently. Under -race this is the proof the
// metrics path shares no unsynchronised state with the fast path.
func TestConcurrentMetricsScrape(t *testing.T) {
	trace := telemetry.NewRing(1024)
	e := New(WithWorkers(4), WithQueueCap(256), WithNode("scraped"), WithTrace(trace))
	if err := e.InstallILM(100, swapNHLFE(200, "A")); err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	e.RegisterMetrics(reg, telemetry.Labels{"engine": "dataplane"})

	const packets = 8000
	var wg sync.WaitGroup
	stop := make(chan struct{})

	// Producer: a mix of forwardable and unroutable-labelled packets.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < packets; i++ {
			lbl := label.Label(100)
			if i%4 == 3 {
				lbl = 999 // lookup miss
			}
			if !submitWait(e, labelled(lbl, uint16(i%64), uint64(i))) {
				t.Error("SubmitWait refused while open")
				return
			}
		}
	}()

	// Control plane: keep publishing table snapshots.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			nh := "A"
			if i%2 == 1 {
				nh = "B"
			}
			if err := e.InstallILM(100, swapNHLFE(200, nh)); err != nil {
				t.Error(err)
				return
			}
			time.Sleep(100 * time.Microsecond)
		}
	}()

	// Scrapers: render the text exposition and read snapshots while the
	// engine runs.
	var scrapes int
	wg.Add(2)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			var buf bytes.Buffer
			if err := reg.WriteText(&buf); err != nil {
				t.Errorf("scrape failed: %v", err)
				return
			}
			scrapes++
		}
	}()
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			_ = e.Snapshot()
			_ = trace.Events()
			_ = reg.Var().String()
		}
	}()

	// Wait for the producer, then stop the background goroutines.
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for {
		s := e.Snapshot()
		if s.Processed() >= packets {
			break
		}
		time.Sleep(time.Millisecond)
	}
	close(stop)
	<-done
	e.Close()

	if scrapes == 0 {
		t.Fatal("exposition scraper never ran")
	}
	snap := e.Snapshot()
	if snap.Processed() != packets {
		t.Fatalf("processed %d, want %d", snap.Processed(), packets)
	}
	if snap.Reasons[telemetry.ReasonLookupMiss] != packets/4 {
		t.Errorf("lookup misses %d, want %d", snap.Reasons[telemetry.ReasonLookupMiss], packets/4)
	}
	// A final scrape must carry the settled counters.
	var buf bytes.Buffer
	if err := reg.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`mpls_dataplane_drops_total{engine="dataplane",node="scraped",reason="lookup-miss"} 2000`,
		`mpls_dataplane_forwarded_packets_total{engine="dataplane",node="scraped"} 6000`,
		"# TYPE mpls_dataplane_batch_seconds histogram",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("final exposition missing %q", want)
		}
	}
}

// TestSubmitBatch covers the grouped enqueue path.
func TestSubmitBatch(t *testing.T) {
	e := New(WithWorkers(4))
	if err := e.InstallILM(100, swapNHLFE(200, "b")); err != nil {
		t.Fatal(err)
	}
	ps := make([]*packet.Packet, 999)
	for i := range ps {
		ps[i] = labelled(100, uint16(i), 0)
	}
	if got := e.Submit(ps, SubmitOpts{Wait: true}); got != len(ps) {
		t.Fatalf("batch accepted %d, want %d", got, len(ps))
	}
	e.Close()
	if snap := e.Snapshot(); snap.Processed() != uint64(len(ps)) {
		t.Fatalf("processed %d, want %d", snap.Processed(), len(ps))
	}
}
