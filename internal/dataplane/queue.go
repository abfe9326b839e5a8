package dataplane

import (
	"sync"
	"sync/atomic"
	"time"

	"embeddedmpls/internal/packet"
	"embeddedmpls/internal/qos"
	"embeddedmpls/internal/stats"
	"embeddedmpls/internal/swmpls"
	"embeddedmpls/internal/telemetry"
)

// shard is one worker's slice of the engine: a bounded ingress queue and
// the statistics accumulated from that worker's batches. The mutex only
// guards the queue handoff and the (per-batch, not per-packet) stats
// fold, so producer/worker contention is brief and confined to one
// shard.
type shard struct {
	mu       sync.Mutex
	notEmpty *sync.Cond // queue gained a packet, or shard closed
	notFull  *sync.Cond // worker drained, or shard closed
	sched    qos.Scheduler
	closed   bool
	agg      shardAgg

	// drops is the engine-wide reason accounting; admission rejections
	// land here as queue-overfull. lat, depth and egBatch are this
	// shard's lock-free histograms (batch seconds, per-packet stack
	// depth, egress flush sizes), written only by the shard's worker and
	// merged at Snapshot time. egFlush counts egress flushes by trigger
	// (size, timer, close) the same single-writer way.
	drops   *telemetry.DropCounters
	lat     *telemetry.Histogram
	depth   *telemetry.Histogram
	egBatch *telemetry.Histogram
	egFlush [numEgressTriggers]atomic.Uint64

	// inline is the shard's run-to-completion set for Process.
	inline inlineState
}

// inlineState is what Process runs with: a flow cache and egress
// staging owned by whichever caller holds mu — one socket reader per
// shard on the wire path, so the lock is uncontended. The shard's
// queued worker never touches it.
type inlineState struct {
	mu sync.Mutex
	fc *flowCache
	st *egressStage
}

// shardAgg is the shard's accumulated accounting, guarded by shard.mu.
type shardAgg struct {
	submitted     stats.Counter
	forwarded     stats.Counter
	delivered     stats.Counter
	dropped       stats.Counter
	dropsByReason [8]uint64
	batchTime     stats.Sample
	busy          float64
	cacheHits     uint64
	cacheMisses   uint64
}

func newShard(policy DropPolicy, queueCap int, drops *telemetry.DropCounters) *shard {
	var sched qos.Scheduler
	switch policy {
	case CoSAware:
		perClass := queueCap / qos.NumClasses
		if perClass < 1 {
			perClass = 1
		}
		sched = qos.NewPriority(perClass)
	default:
		sched = qos.NewFIFO(queueCap)
	}
	s := &shard{
		sched:   sched,
		drops:   drops,
		lat:     telemetry.NewHistogram(telemetry.LatencyBounds()...),
		depth:   telemetry.NewHistogram(telemetry.DepthBounds()...),
		egBatch: telemetry.NewHistogram(telemetry.BatchBounds()...),
	}
	s.notEmpty = sync.NewCond(&s.mu)
	s.notFull = sync.NewCond(&s.mu)
	return s
}

// enqueue admits one packet, blocking for space when wait is set.
func (s *shard) enqueue(p *packet.Packet, wait bool) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.enqueueLocked(p, wait)
}

// enqueueBatch admits a group of packets under one lock acquisition and
// returns how many were accepted.
func (s *shard) enqueueBatch(ps []*packet.Packet, wait bool) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	accepted := 0
	for _, p := range ps {
		if s.enqueueLocked(p, wait) {
			accepted++
		} else if s.closed {
			break
		}
	}
	return accepted
}

func (s *shard) enqueueLocked(p *packet.Packet, wait bool) bool {
	if wait {
		for s.sched.Full(p) && !s.closed {
			s.notFull.Wait()
		}
	}
	if s.closed {
		return false
	}
	if !s.sched.Enqueue(p) {
		s.drops.Inc(telemetry.ReasonQueueOverfull)
		return false // the scheduler counted the drop in its own total
	}
	s.agg.submitted.Add(p.Size())
	s.notEmpty.Signal()
	return true
}

// drain blocks until the queue holds packets (or the shard is closed and
// empty, in which case it returns nil to stop the worker), then moves up
// to max packets into buf.
func (s *shard) drain(buf []*packet.Packet, max int) []*packet.Packet {
	s.mu.Lock()
	for s.sched.Len() == 0 && !s.closed {
		s.notEmpty.Wait()
	}
	if s.sched.Len() == 0 {
		s.mu.Unlock()
		return nil
	}
	for len(buf) < max {
		p, ok := s.sched.Dequeue()
		if !ok {
			break
		}
		buf = append(buf, p)
	}
	s.notFull.Broadcast()
	s.mu.Unlock()
	return buf
}

// tryDrain moves up to max queued packets into buf without blocking —
// the worker's poll while egress staging holds packets, where parking
// on the condition variable would leave them stranded. stop reports
// that the shard is closed with nothing left to drain.
func (s *shard) tryDrain(buf []*packet.Packet, max int) (out []*packet.Packet, stop bool) {
	s.mu.Lock()
	if s.sched.Len() == 0 {
		closed := s.closed
		s.mu.Unlock()
		return buf, closed
	}
	for len(buf) < max {
		p, ok := s.sched.Dequeue()
		if !ok {
			break
		}
		buf = append(buf, p)
	}
	s.notFull.Broadcast()
	s.mu.Unlock()
	return buf, false
}

// waitArrival blocks for up to ivl waiting for the queue to gain a
// packet or the shard to close — the worker's pause while egress
// staging holds packets and the queue is momentarily idle. It polls
// with an escalating step rather than sleeping the whole interval, so
// a generous flush interval cannot stall Close (or delay a fresh
// arrival) by more than one step.
func (s *shard) waitArrival(ivl time.Duration) {
	const maxStep = 5 * time.Millisecond
	step := 50 * time.Microsecond
	deadline := time.Now().Add(ivl)
	for {
		s.mu.Lock()
		ready := s.sched.Len() > 0 || s.closed
		s.mu.Unlock()
		if ready {
			return
		}
		remain := time.Until(deadline)
		if remain <= 0 {
			return
		}
		if remain > step {
			remain = step
		}
		time.Sleep(remain)
		if step < maxStep {
			step *= 2
		}
	}
}

// observeEgress records one egress flush: the batch size into the
// shard's single-writer histogram, the trigger into its counter.
func (s *shard) observeEgress(n, trigger int) {
	s.egBatch.Observe(float64(n))
	s.egFlush[trigger].Add(1)
}

// fold merges one processed batch's accounting into the shard, one lock
// acquisition per batch so the per-packet path stays contention-free.
// timed folds the batch's busy time too (worker batches, not Process).
func (s *shard) fold(acc *batchAcc, timed bool) {
	s.mu.Lock()
	s.agg.submitted.Merge(acc.submitted)
	s.agg.forwarded.Merge(acc.forwarded)
	s.agg.delivered.Merge(acc.delivered)
	s.agg.dropped.Merge(acc.dropped)
	for r, n := range acc.dropsByReason {
		s.agg.dropsByReason[r] += n
	}
	if timed {
		s.agg.batchTime.Observe(acc.busy)
		s.agg.busy += acc.busy
	}
	s.agg.cacheHits += acc.cacheHits
	s.agg.cacheMisses += acc.cacheMisses
	s.mu.Unlock()
}

// setDrops repoints admission-rejection accounting (SetTelemetry).
func (s *shard) setDrops(c *telemetry.DropCounters) {
	s.mu.Lock()
	s.drops = c
	s.mu.Unlock()
}

func (s *shard) close() {
	s.mu.Lock()
	s.closed = true
	s.notEmpty.Broadcast()
	s.notFull.Broadcast()
	s.mu.Unlock()
}

// batchAcc is a worker's lock-free per-batch accumulator. submitted is
// Process's admission count; queued batches were counted at enqueue.
type batchAcc struct {
	submitted     stats.Counter
	forwarded     stats.Counter
	delivered     stats.Counter
	dropped       stats.Counter
	dropsByReason [8]uint64
	busy          float64
	cacheHits     uint64
	cacheMisses   uint64
}

func (a *batchAcc) reset() { *a = batchAcc{} }

func (a *batchAcc) record(p *packet.Packet, res swmpls.Result) {
	switch res.Action {
	case swmpls.Forward:
		a.forwarded.Add(p.Size())
	case swmpls.Deliver:
		a.delivered.Add(p.Size())
	default:
		a.dropped.Add(p.Size())
		if int(res.Drop) < len(a.dropsByReason) {
			a.dropsByReason[res.Drop]++
		}
	}
}
