package dataplane

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"embeddedmpls/internal/label"
	"embeddedmpls/internal/packet"
	"embeddedmpls/internal/swmpls"
)

// tally is a batch egress sink that records per-call batch sizes and
// running totals per method, for flush-trigger and accounting checks.
type tally struct {
	mu        sync.Mutex
	flushes   []int // Flush batch sizes in call order
	forwarded uint64
	delivered uint64
	discarded uint64
}

func (t *tally) Flush(_ string, ps []*packet.Packet) {
	t.mu.Lock()
	t.flushes = append(t.flushes, len(ps))
	t.forwarded += uint64(len(ps))
	t.mu.Unlock()
}

func (t *tally) Deliver(ps []*packet.Packet) {
	t.mu.Lock()
	t.delivered += uint64(len(ps))
	t.mu.Unlock()
}

func (t *tally) Discard(ps []*packet.Packet, _ []swmpls.DropReason) {
	t.mu.Lock()
	t.discarded += uint64(len(ps))
	t.mu.Unlock()
}

func (t *tally) totals() (fwd, dlv, dsc uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.forwarded, t.delivered, t.discarded
}

// TestEgressSizeTrigger: with traffic outpacing the flush size, rings
// flush full — every size-triggered batch carries exactly flushN
// packets, and the batch histogram agrees with the flush counters.
func TestEgressSizeTrigger(t *testing.T) {
	tl := &tally{}
	e := New(WithWorkers(1), WithEgress(tl), WithEgressFlush(8, time.Hour))
	if err := e.InstallILM(100, swapNHLFE(200, "b")); err != nil {
		t.Fatal(err)
	}
	const n = 64
	for i := 0; i < n; i++ {
		if !submitWait(e, labelled(100, uint16(i), uint64(i))) {
			t.Fatal("submit refused")
		}
	}
	e.Close()

	fwd, _, _ := tl.totals()
	if fwd != n {
		t.Fatalf("sink saw %d forwarded packets, want %d", fwd, n)
	}
	snap := e.Snapshot()
	if snap.EgressFlushSize == 0 {
		t.Fatal("no size-triggered flushes despite saturating traffic")
	}
	tl.mu.Lock()
	for i, sz := range tl.flushes {
		if sz > 8 {
			t.Errorf("flush %d carried %d packets, flush size is 8", i, sz)
		}
	}
	tl.mu.Unlock()
	flushes := snap.EgressFlushSize + snap.EgressFlushTimer + snap.EgressFlushClose
	if snap.EgressBatch.Count != flushes {
		t.Errorf("batch histogram holds %d flushes, counters say %d", snap.EgressBatch.Count, flushes)
	}
	if got := uint64(snap.EgressBatch.Sum); got != n {
		t.Errorf("batch histogram sums %d packets, want %d", got, n)
	}
}

// TestEgressTimerTrigger: a partial ring on an idle queue must flush
// within the interval — no packet waits for the ring to fill.
func TestEgressTimerTrigger(t *testing.T) {
	tl := &tally{}
	e := New(WithWorkers(1), WithEgress(tl), WithEgressFlush(64, time.Millisecond))
	defer e.Close()
	if err := e.InstallILM(100, swapNHLFE(200, "b")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if !submitWait(e, labelled(100, uint16(i), uint64(i))) {
			t.Fatal("submit refused")
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if fwd, _, _ := tl.totals(); fwd == 5 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if fwd, _, _ := tl.totals(); fwd != 5 {
		t.Fatalf("sink saw %d packets before Close, want 5 via the timer", fwd)
	}
	if snap := e.Snapshot(); snap.EgressFlushTimer == 0 {
		t.Error("no timer-triggered flush recorded")
	}
}

// TestEgressCloseDrain: packets staged in partial rings at Close must
// reach the sink before Close returns — the losslessness half of the
// close contract — and be counted as close-triggered flushes.
func TestEgressCloseDrain(t *testing.T) {
	tl := &tally{}
	// Flush size and interval both unreachable: only Close can flush.
	e := New(WithWorkers(2), WithEgress(tl), WithEgressFlush(1<<20, time.Hour))
	if err := e.InstallILM(100, swapNHLFE(200, "b")); err != nil {
		t.Fatal(err)
	}
	const n = 100
	for i := 0; i < n; i++ {
		if !submitWait(e, labelled(100, uint16(i), uint64(i))) {
			t.Fatal("submit refused")
		}
	}
	e.Close()
	fwd, _, _ := tl.totals()
	if fwd != n {
		t.Fatalf("Close returned with %d of %d packets flushed", fwd, n)
	}
	snap := e.Snapshot()
	if snap.EgressFlushClose == 0 {
		t.Error("no close-triggered flush recorded")
	}
	if snap.EgressFlushSize != 0 || snap.EgressFlushTimer != 0 {
		t.Errorf("unexpected size/timer flushes (%d/%d) with unreachable thresholds",
			snap.EgressFlushSize, snap.EgressFlushTimer)
	}
}

// TestEgressAccountingConsistency: across concurrent workers and all
// three outcome classes, the engine's counters must equal the sum of
// the batch sizes its sink received — the packets==sum(batches)
// regression guard for the per-batch accounting path.
func TestEgressAccountingConsistency(t *testing.T) {
	tl := &tally{}
	e := New(WithWorkers(4), WithBatch(8), WithEgress(tl), WithEgressFlush(16, 100*time.Microsecond))
	if err := e.Update(func(f *swmpls.Forwarder) error {
		if err := f.InstallILM(100, swapNHLFE(200, "b")); err != nil {
			return err
		}
		return f.InstallILM(101, swmpls.NHLFE{NextHop: "e", Op: label.OpPop})
	}); err != nil {
		t.Fatal(err)
	}
	const n = 3000
	for i := 0; i < n; i++ {
		var p *packet.Packet
		switch i % 3 {
		case 0:
			p = labelled(100, uint16(i%64), uint64(i)) // forward
		case 1:
			p = labelled(101, uint16(i%64), uint64(i)) // deliver
		default:
			p = labelled(999, uint16(i%64), uint64(i)) // lookup miss: discard
		}
		if !submitWait(e, p) {
			t.Fatal("submit refused")
		}
	}
	e.Close()

	fwd, dlv, dsc := tl.totals()
	snap := e.Snapshot()
	if snap.Forwarded.Events != fwd {
		t.Errorf("engine forwarded %d, sink batch sum %d", snap.Forwarded.Events, fwd)
	}
	if snap.Delivered.Events != dlv {
		t.Errorf("engine delivered %d, sink batch sum %d", snap.Delivered.Events, dlv)
	}
	if snap.Dropped.Events != dsc {
		t.Errorf("engine dropped %d, sink batch sum %d", snap.Dropped.Events, dsc)
	}
	if fwd+dlv+dsc != n {
		t.Errorf("sink saw %d packets, offered %d", fwd+dlv+dsc, n)
	}
	if got := uint64(snap.EgressBatch.Sum); got != n {
		t.Errorf("batch histogram sums %d packets, want %d", got, n)
	}
}

// TestEgressCloseUnderFire races producers against Close: every packet
// the engine accepted must reach the sink exactly once — no packet may
// be stranded in a staging ring or double-flushed by the shutdown. Run
// under -race.
func TestEgressCloseUnderFire(t *testing.T) {
	trials := 20
	if testing.Short() {
		trials = 4
	}
	for trial := 0; trial < trials; trial++ {
		tl := &tally{}
		e := New(WithWorkers(4), WithQueueCap(16), WithBatch(4),
			WithEgress(tl), WithEgressFlush(8, 50*time.Microsecond))
		if err := e.InstallILM(100, swapNHLFE(200, "b")); err != nil {
			t.Fatal(err)
		}
		var accepted atomic.Uint64
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < 200; i++ {
					if g%2 == 0 {
						if submit(e, labelled(100, uint16(i), uint64(i))) {
							accepted.Add(1)
						}
					} else if submitWait(e, labelled(100, uint16(i), uint64(i))) {
						accepted.Add(1)
					}
				}
			}(g)
		}
		var closers sync.WaitGroup
		closers.Add(1)
		go func() {
			defer closers.Done()
			e.Close()
		}()
		closers.Wait()
		wg.Wait()

		fwd, dlv, dsc := tl.totals()
		if got, want := fwd+dlv+dsc, accepted.Load(); got != want {
			t.Fatalf("trial %d: sink saw %d packets, engine accepted %d", trial, got, want)
		}
		if snap := e.Snapshot(); snap.Processed() != accepted.Load() {
			t.Fatalf("trial %d: processed %d of %d accepted", trial, snap.Processed(), accepted.Load())
		}
	}
}

// TestSetEgressFirstBatchDelivered: a worker parked on its empty queue
// when the sink is attached must hand the batch that wakes it to that
// sink. It used to load the sink before parking, so the first batch per
// shard after SetEgress went to the stale nil sink and was lost.
func TestSetEgressFirstBatchDelivered(t *testing.T) {
	const workers, perShard = 4, 5
	e := New(WithWorkers(workers), WithEgressFlush(perShard, time.Hour))
	defer e.Close()
	if err := e.InstallILM(100, swapNHLFE(200, "b")); err != nil {
		t.Fatal(err)
	}
	// One packet through every shard with no sink: once it is accounted,
	// that worker has been round its loop and is parking again.
	for i := 0; i < workers; i++ {
		e.Submit([]*packet.Packet{labelled(100, 0, 0)}, SubmitOpts{Wait: true, Pin: true, Shard: i})
	}
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(100 * time.Microsecond) {
		if snap := e.Snapshot(); snap.Processed() >= workers {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("workers did not take the sinkless packets")
		}
	}
	time.Sleep(time.Millisecond) // from "accounted" to "parked" is a few instructions

	tl := &tally{}
	e.SetEgress(tl)
	for i := 0; i < workers; i++ {
		batch := make([]*packet.Packet, perShard)
		for j := range batch {
			batch[j] = labelled(100, uint16(j), uint64(j))
		}
		if got := e.Submit(batch, SubmitOpts{Wait: true, Pin: true, Shard: i}); got != perShard {
			t.Fatalf("shard %d accepted %d of %d", i, got, perShard)
		}
	}
	e.Close()
	if fwd, _, _ := tl.totals(); fwd != workers*perShard {
		t.Errorf("sink received %d of %d packets submitted after SetEgress", fwd, workers*perShard)
	}
}

// TestProcessInlineRunsToCompletion: Process forwards a batch on the
// caller's goroutine and every staged packet has reached the sink when
// it returns — no queue, no flush timer. The batch is counted into the
// shard's snapshot like a queued one, except for worker busy time.
func TestProcessInlineRunsToCompletion(t *testing.T) {
	tl := &tally{}
	e := New(WithWorkers(2), WithEgress(tl), WithEgressFlush(64, time.Hour))
	if err := e.Update(func(f *swmpls.Forwarder) error {
		if err := f.InstallILM(100, swapNHLFE(200, "b")); err != nil {
			return err
		}
		return f.InstallILM(101, swmpls.NHLFE{Op: label.OpPop})
	}); err != nil {
		t.Fatal(err)
	}
	var batch []*packet.Packet
	for round := 1; round <= 2; round++ {
		batch = batch[:0]
		for i := 0; i < 10; i++ {
			batch = append(batch,
				labelled(100, uint16(i), uint64(i)), // forward
				labelled(101, uint16(i), uint64(i)), // deliver
				labelled(999, uint16(i), uint64(i))) // lookup miss: discard
		}
		if got := e.Process(1, batch); got != len(batch) {
			t.Fatalf("round %d: Process took %d of %d", round, got, len(batch))
		}
		if fwd, dlv, dsc := tl.totals(); fwd != uint64(10*round) || dlv != uint64(10*round) || dsc != uint64(10*round) {
			t.Fatalf("round %d: sink saw %d/%d/%d when Process returned, want %d each", round, fwd, dlv, dsc, 10*round)
		}
	}
	snap := e.Snapshot()
	if snap.Submitted.Events != 60 || snap.Forwarded.Events != 20 || snap.Delivered.Events != 20 || snap.Dropped.Events != 20 {
		t.Errorf("snapshot %v, want 60 submitted: 20 forwarded, delivered, dropped", snap)
	}
	if snap.DropsByReason[swmpls.DropNoLabel] != 20 {
		t.Errorf("lookup-miss drops %d, want 20", snap.DropsByReason[swmpls.DropNoLabel])
	}
	if snap.CacheHits == 0 {
		t.Error("second round of the same flows hit the flow cache 0 times")
	}
	if snap.WorkerBusy[0]+snap.WorkerBusy[1] != 0 || snap.BatchTime.Count() != 0 {
		t.Errorf("Process counted worker time (busy %v, %d batch samples): that time is the caller's", snap.WorkerBusy, snap.BatchTime.Count())
	}
	if snap.EgressFlushTimer != 0 || uint64(snap.EgressBatch.Sum) != 60 {
		t.Errorf("egress: %d timer flushes, %v packets flushed; want 0 and 60", snap.EgressFlushTimer, snap.EgressBatch.Sum)
	}
	if e.Process(-1, batch) != 0 || e.Process(2, batch) != 0 {
		t.Error("Process accepted an out-of-range shard")
	}
	e.Close()
	if e.Process(0, batch) != 0 {
		t.Error("Process ran on a closed engine")
	}
	if fwd, _, _ := tl.totals(); fwd != 20 {
		t.Errorf("sink saw %d forwarded packets after Close, want 20", fwd)
	}
}

// TestProcessInlineRacesClose races inline callers on every shard
// against Close (run under -race): each batch Process reports taken
// reached the sink exactly once, and none ran after Close returned.
func TestProcessInlineRacesClose(t *testing.T) {
	for trial := 0; trial < 10; trial++ {
		tl := &tally{}
		e := New(WithWorkers(2), WithEgress(tl), WithEgressFlush(8, time.Hour))
		if err := e.InstallILM(100, swapNHLFE(200, "b")); err != nil {
			t.Fatal(err)
		}
		var taken atomic.Uint64
		var wg sync.WaitGroup
		for shard := 0; shard < 2; shard++ {
			wg.Add(1)
			go func(shard int) {
				defer wg.Done()
				batch := make([]*packet.Packet, 20)
				for i := 0; i < 200; i++ {
					for j := range batch {
						batch[j] = labelled(100, uint16(j), uint64(i))
					}
					taken.Add(uint64(e.Process(shard, batch)))
				}
			}(shard)
		}
		e.Close()
		closed, _, _ := tl.totals()
		wg.Wait()
		fwd, _, _ := tl.totals()
		if fwd != taken.Load() || closed != fwd {
			t.Fatalf("trial %d: Process took %d, sink saw %d at Close and %d after", trial, taken.Load(), closed, fwd)
		}
		if got := e.Snapshot().Submitted.Events; got != fwd {
			t.Fatalf("trial %d: snapshot submitted %d, sink saw %d", trial, got, fwd)
		}
	}
}
