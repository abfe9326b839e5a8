// Package dataplane is a concurrent, batch-oriented MPLS forwarding
// engine: the software analogue of the paper's replicated label stack
// modifier fast path. Where package swmpls forwards one packet at a time
// on the caller's goroutine, this engine runs N shard workers, each
// draining a bounded ingress queue in batches, all reading one immutable
// forwarding-table snapshot published through an atomic pointer.
//
// The design splits the paper's hardware/software partition along the
// same line in pure software:
//
//   - Fast path (workers): hash the packet to a shard by its flow
//     identity (top label or packet identifier, plus the flow ID), apply
//     the RFC 3031 label program from the current table snapshot, update
//     worker-private counters. No locks, no shared mutable state.
//   - Slow path (control plane): LDP/TE updates clone the live table,
//     edit the clone, and publish it with one atomic store — RCU-style,
//     so a table write never stalls a single packet.
//
// Per-flow order is preserved because a flow's packets always hash to
// the same shard and each shard is serviced by exactly one worker over a
// FIFO-per-class queue.
package dataplane

import (
	"fmt"
	"hash/maphash"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"embeddedmpls/internal/label"
	"embeddedmpls/internal/packet"
	"embeddedmpls/internal/stats"
	"embeddedmpls/internal/swmpls"
	"embeddedmpls/internal/telemetry"
)

// DropPolicy selects what an over-full ingress queue does.
type DropPolicy int

const (
	// TailDrop rejects arrivals once the shard queue holds QueueCap
	// packets, regardless of class.
	TailDrop DropPolicy = iota
	// CoSAware gives each service class its own slice of the shard queue
	// (QueueCap/qos.NumClasses packets) and serves high classes first, so
	// a flood of best-effort traffic can neither crowd out nor delay
	// high-CoS packets. Reuses the qos strict-priority scheduler.
	CoSAware
)

// Engine is the concurrent forwarding engine. Create one with New, feed
// it with Submit, attach a batch egress sink with WithEgress/SetEgress,
// reprogram it at any time with Update or the ldp.Installer methods,
// and stop it with Close.
type Engine struct {
	table   atomic.Pointer[swmpls.Forwarder]
	updates atomic.Uint64 // published snapshots, for observability/tests

	// updateMu serialises writers (cloning is not atomic); readers never
	// take it. It also guards publishHook.
	updateMu    sync.Mutex
	publishHook func() error

	// stallHook, when set, is consulted by every worker at the top of
	// each batch — the fault layer's shard-stall injection point.
	stallHook atomic.Pointer[func(worker int)]

	shards  []*shard
	batch   int
	seed    maphash.Seed
	noCache bool

	// egress is the batch egress sink (atomic so SetEgress can attach
	// one after construction, before traffic); egressN/egressIvl are the
	// staging rings' size and idle-flush triggers.
	egress    atomic.Pointer[Egress]
	egressN   int
	egressIvl time.Duration

	// drops is the engine-wide per-reason drop accounting. It is
	// attached to the root forwarding table, and Clone carries the
	// pointer forward, so every published RCU snapshot counts into the
	// same counters; queue admission rejections land here too. The
	// pointer is atomic so SetTelemetry can swap in a shared sink
	// while workers run.
	drops atomic.Pointer[telemetry.DropCounters]
	node  string
	// tsink is the trace attachment, loaded once per worker batch so
	// SetTelemetry can retarget it without stopping the engine.
	tsink atomic.Pointer[traceSink]

	closed atomic.Bool
	wg     sync.WaitGroup
}

// traceSink pairs a trace ring with the node name events carry.
type traceSink struct {
	ring *telemetry.Ring
	node string
}

// New starts an engine with an empty forwarding table, configured by
// functional options (WithWorkers, WithBatch, WithEgress, ...).
func New(opts ...Option) *Engine {
	var cfg config
	for _, opt := range opts {
		opt(&cfg)
	}
	workers := cfg.workers
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	queueCap := cfg.queueCap
	if queueCap <= 0 {
		queueCap = 1024
	}
	batch := cfg.batch
	if batch <= 0 {
		batch = 64
	}
	node := cfg.node
	if node == "" {
		node = "dataplane"
	}
	egressN := cfg.egressN
	if egressN <= 0 {
		egressN = batch
	}
	egressIvl := cfg.egressIvl
	if egressIvl <= 0 {
		egressIvl = 200 * time.Microsecond
	}
	e := &Engine{
		shards:    make([]*shard, workers),
		batch:     batch,
		egressN:   egressN,
		egressIvl: egressIvl,
		seed:      maphash.MakeSeed(),
		node:      node,
		noCache:   cfg.disableCache,
	}
	if cfg.egress != nil {
		e.SetEgress(cfg.egress)
	}
	drops := new(telemetry.DropCounters)
	e.drops.Store(drops)
	e.tsink.Store(&traceSink{ring: cfg.trace, node: node})
	root := swmpls.New()
	if cfg.newTable != nil {
		root = cfg.newTable()
	}
	root.SetDropCounters(drops)
	e.table.Store(root)
	for i := range e.shards {
		e.shards[i] = newShard(cfg.policy, queueCap, drops)
	}
	e.wg.Add(workers)
	for i := range e.shards {
		go e.worker(i, e.shards[i])
	}
	return e
}

// SetPublishHook installs an injectable interceptor for table publishes:
// Update (and the Installer methods riding it) consults the hook after
// the edit is applied to the clone, and a non-nil error discards the
// snapshot, leaving the live table unchanged. The fault layer uses it to
// model a control-plane write failure; nil removes the hook.
func (e *Engine) SetPublishHook(h func() error) {
	e.updateMu.Lock()
	e.publishHook = h
	e.updateMu.Unlock()
}

// SetStallHook installs a per-batch worker interceptor, called with the
// worker's index before each batch is processed — the fault layer's
// shard-stall injection point (the hook itself sleeps). The hook runs on
// worker goroutines, so it must be safe for concurrent use; nil removes
// it.
func (e *Engine) SetStallHook(h func(worker int)) {
	if h == nil {
		e.stallHook.Store(nil)
		return
	}
	e.stallHook.Store(&h)
}

// Workers returns the number of shard workers.
func (e *Engine) Workers() int { return len(e.shards) }

// Drops exposes the engine's per-reason drop counters. They cover
// forwarding drops on every published table snapshot (including
// ProcessInline traffic) and queue admission rejections. Safe to read
// while the engine runs.
func (e *Engine) Drops() *telemetry.DropCounters { return e.drops.Load() }

// SetTelemetry attaches the unified observability sink (the
// plane.Plane hook). The trace ring and node name take effect at each
// worker's next batch. A non-nil s.Drops replaces the engine's drop
// counters — a snapshot carrying them is published, every shard's
// admission accounting is repointed, and prior counts stay in the old
// counters (still reachable via the Snapshot taken before the call).
// Call it before RegisterMetrics so the registry exports the live
// counters.
func (e *Engine) SetTelemetry(s telemetry.Sink) {
	node := s.Node
	if node == "" {
		node = e.node
	}
	e.tsink.Store(&traceSink{ring: s.Trace, node: node})
	if s.Drops == nil || s.Drops == e.drops.Load() {
		return
	}
	e.drops.Store(s.Drops)
	for _, sh := range e.shards {
		sh.setDrops(s.Drops)
	}
	_ = e.Update(func(f *swmpls.Forwarder) error {
		f.SetDropCounters(s.Drops)
		return nil
	})
}

// Updates returns how many table snapshots have been published.
func (e *Engine) Updates() uint64 { return e.updates.Load() }

// shardOf hashes a packet to its shard. The key is the packet's flow
// identity — top label for labelled packets, the packet identifier
// (destination) otherwise, plus source and flow ID — so every packet of
// a flow lands on the same shard while distinct flows on one LSP still
// spread across workers.
func (e *Engine) shardOf(p *packet.Packet) *shard {
	if len(e.shards) == 1 {
		return e.shards[0]
	}
	var key uint64
	if top, err := p.Stack.Top(); err == nil {
		key = uint64(top.Label)
	} else {
		key = uint64(p.Identifier()) | 1<<32
	}
	var buf [16]byte
	for i := 0; i < 8; i++ {
		buf[i] = byte(key >> (8 * i))
	}
	flow := uint64(p.Header.Src)<<16 | uint64(p.Header.FlowID)
	for i := 0; i < 8; i++ {
		buf[8+i] = byte(flow >> (8 * i))
	}
	h := maphash.Bytes(e.seed, buf[:])
	return e.shards[h%uint64(len(e.shards))]
}

// SubmitOpts selects how Submit admits a batch. The zero value is the
// default path: flow-hash distribution across shards, drop-policy
// admission (loss under overload, counted in the snapshot).
type SubmitOpts struct {
	// Wait blocks while a shard queue is full — backpressure instead of
	// loss. Packets are then refused only when the engine is closed.
	Wait bool
	// Pin bypasses the flow-hash distribution and offers the whole
	// batch to shard Shard — the ingestion path for transport-level
	// sharding, where an SO_REUSEPORT socket already partitioned
	// arrivals by flow and shard i's socket feeds shard i's worker with
	// no cross-shard handoff. An out-of-range Shard rejects the batch.
	Pin   bool
	Shard int
}

// Submit offers a batch of packets to the engine — the single ingress
// entry point; a one-packet submit is just a batch of one. Packets are
// grouped by shard so each shard's lock is taken once per group rather
// than once per packet. It returns how many packets were accepted;
// rejections (drop policy, closed engine, bad pin) are counted in the
// snapshot where applicable.
func (e *Engine) Submit(ps []*packet.Packet, opts SubmitOpts) int {
	if e.closed.Load() || len(ps) == 0 {
		return 0
	}
	if opts.Pin {
		if opts.Shard < 0 || opts.Shard >= len(e.shards) {
			return 0
		}
		return e.shards[opts.Shard].enqueueBatch(ps, opts.Wait)
	}
	if len(ps) == 1 {
		if e.shardOf(ps[0]).enqueue(ps[0], opts.Wait) {
			return 1
		}
		return 0
	}
	groups := make(map[*shard][]*packet.Packet, len(e.shards))
	for _, p := range ps {
		s := e.shardOf(p)
		groups[s] = append(groups[s], p)
	}
	accepted := 0
	for s, group := range groups {
		accepted += s.enqueueBatch(group, opts.Wait)
	}
	return accepted
}

// SetEgress attaches the batch egress sink (replacing any current one);
// nil detaches it, after which processed packets are discarded once
// accounted. Workers observe the change at their next batch. Attach the
// sink before traffic flows when packets must not be lost to the
// transition.
func (e *Engine) SetEgress(sink Egress) {
	if sink == nil {
		e.egress.Store(nil)
		return
	}
	e.egress.Store(&sink)
}

// loadEgress returns the current egress sink, or nil.
func (e *Engine) loadEgress() Egress {
	if p := e.egress.Load(); p != nil {
		return *p
	}
	return nil
}

// Update publishes a new forwarding-table snapshot: the current table is
// cloned, apply edits the clone, and the result is installed with one
// atomic store. Workers observe either the old or the new table, never a
// partially edited one, and are never blocked by the update. If apply
// fails the snapshot is discarded and the live table is unchanged.
func (e *Engine) Update(apply func(*swmpls.Forwarder) error) error {
	e.updateMu.Lock()
	defer e.updateMu.Unlock()
	next := e.table.Load().Clone()
	if err := apply(next); err != nil {
		return err
	}
	if e.publishHook != nil {
		if err := e.publishHook(); err != nil {
			return err
		}
	}
	e.table.Store(next)
	e.updates.Add(1)
	return nil
}

// InstallFEC, InstallILM, RemoveILM and RemoveFEC implement the
// ldp.Installer contract, so an LDP manager (or a router wrapper) can
// program the engine exactly like the serial data planes. Each call
// publishes one snapshot; batch related changes through Update to
// publish them atomically together.

// InstallFEC implements ldp.Installer.
func (e *Engine) InstallFEC(dst packet.Addr, prefixLen int, n swmpls.NHLFE) error {
	return e.Update(func(f *swmpls.Forwarder) error { return f.InstallFEC(dst, prefixLen, n) })
}

// InstallILM implements ldp.Installer.
func (e *Engine) InstallILM(in label.Label, n swmpls.NHLFE) error {
	return e.Update(func(f *swmpls.Forwarder) error { return f.InstallILM(in, n) })
}

// RemoveILM implements ldp.Installer.
func (e *Engine) RemoveILM(in label.Label) {
	_ = e.Update(func(f *swmpls.Forwarder) error { f.RemoveILM(in); return nil })
}

// RemoveFEC implements ldp.Installer.
func (e *Engine) RemoveFEC(dst packet.Addr, prefixLen int) {
	_ = e.Update(func(f *swmpls.Forwarder) error { f.RemoveFEC(dst, prefixLen); return nil })
}

// TableSnapshot returns the engine's current forwarding-table
// snapshot. The snapshot is immutable once published (updates clone
// and replace it), so callers may read it — including the dump
// methods ILMEntries/FECEntries — without any synchronisation against
// forwarding or table programming.
func (e *Engine) TableSnapshot() *swmpls.Forwarder {
	return e.table.Load()
}

// forward applies the full label program to one packet against a table
// snapshot. Like the router's engine loop, one packet may need several
// passes (a tunnel tail pops, then re-examines the inner label);
// label.MaxDepth+1 bounds the passes.
func forward(tbl *swmpls.Forwarder, p *packet.Packet) swmpls.Result {
	var res swmpls.Result
	for pass := 0; pass < label.MaxDepth+1; pass++ {
		res = tbl.Forward(p)
		if res.Action == swmpls.Forward && res.NextHop == "" && p.Labelled() {
			continue
		}
		break
	}
	return res
}

// ProcessInline forwards one packet synchronously on the caller's
// goroutine against the current snapshot — the same lock-free table read
// the workers perform, without queueing. The discrete-event router uses
// it so simulated nodes get RCU table semantics while the simulator
// stays single-threaded. Inline packets bypass the engine's queues and
// statistics.
func (e *Engine) ProcessInline(p *packet.Packet) swmpls.Result {
	return forward(e.table.Load(), p)
}

// ProcessPacket implements the unified plane contract (plane.Plane):
// one table pass against the current snapshot on the caller's
// goroutine, the caller driving any multi-pass re-examination.
// ProcessInline runs the full program in one call instead.
func (e *Engine) ProcessPacket(p *packet.Packet) swmpls.Result {
	depth := p.Stack.Depth()
	var inLabel uint32
	if top, err := p.Stack.Top(); err == nil {
		inLabel = uint32(top.Label)
	}
	res := e.table.Load().Forward(p)
	if ts := e.tsink.Load(); ts.ring != nil {
		ts.traceResult(depth, inLabel, res)
	}
	return res
}

// worker drains one shard until the engine closes and the queue empties.
// The table snapshot, trace sink and egress sink are loaded once per
// batch, after the batch was taken off the queue — the batching
// amortises the atomic loads — and the worker-private flow cache is
// revalidated against the snapshot at the same point. Processed packets stage into the worker's egress rings;
// while anything is staged the worker polls the queue instead of
// parking on it, so an idle interval flushes the rings (trigger=timer)
// and a closed, drained queue flushes them one last time
// (trigger=close) before the worker exits — which is ordered before
// wg.Done, so Close returns only after every staged packet reached the
// sink.
func (e *Engine) worker(id int, s *shard) {
	defer e.wg.Done()
	batch := make([]*packet.Packet, 0, e.batch)
	var fc *flowCache
	if !e.noCache {
		fc = newFlowCache()
	}
	var acc batchAcc
	st := newEgressStage(s, e.egressN)
	for {
		if st.pending == 0 {
			// Nothing staged: park on the queue like any blocking
			// consumer. A nil return means closed and drained.
			batch = s.drain(batch[:0], e.batch)
			if batch == nil {
				return
			}
		} else {
			var stop bool
			batch, stop = s.tryDrain(batch[:0], e.batch)
			if stop {
				st.flushAll(e.loadEgress(), egressTriggerClose)
				return
			}
			if len(batch) == 0 {
				// Queue idle with packets staged: give arrivals one
				// flush interval to top the rings up, then flush what
				// we have so no packet waits longer than the interval.
				// The wait is close-aware, so a generous interval does
				// not hold Close hostage.
				s.waitArrival(e.egressIvl)
				batch, stop = s.tryDrain(batch[:0], e.batch)
				if stop {
					st.flushAll(e.loadEgress(), egressTriggerClose)
					return
				}
				if len(batch) == 0 {
					st.flushAll(e.loadEgress(), egressTriggerTimer)
					continue
				}
			}
		}
		// Loaded once the batch is in hand, not before parking for it: a
		// worker that parked before SetEgress must not process the batch
		// that wakes it against the sink it saw then.
		sink := e.loadEgress()
		if h := e.stallHook.Load(); h != nil {
			(*h)(id)
		}
		tbl := e.table.Load()
		ts := e.tsink.Load()
		if fc != nil {
			fc.sync(tbl)
		}
		acc.reset()
		start := time.Now()
		for _, p := range batch {
			depth := p.Stack.Depth()
			var inLabel uint32
			if top, err := p.Stack.Top(); err == nil {
				inLabel = uint32(top.Label)
			}
			s.depth.Observe(float64(depth))
			var res swmpls.Result
			if fc != nil {
				res = fc.forward(tbl, p)
			} else {
				res = forward(tbl, p)
			}
			acc.record(p, res)
			if ts.ring != nil {
				ts.traceResult(depth, inLabel, res)
			}
			if sink != nil {
				st.stage(sink, p, res)
			}
		}
		acc.busy = time.Since(start).Seconds()
		if fc != nil {
			acc.cacheHits, acc.cacheMisses = fc.take()
		}
		s.lat.Observe(acc.busy)
		s.fold(&acc)
	}
}

// traceResult records one packet's outcome in the trace ring: the
// label operation that was applied, or the discard with its mapped
// reason. The event's level is the stack depth on arrival and its
// label the incoming top label (zero for unlabelled packets).
func (ts *traceSink) traceResult(depth int, inLabel uint32, res swmpls.Result) {
	if res.Action == swmpls.Drop {
		if r, ok := res.Drop.Telemetry(); ok {
			ts.ring.RecordDiscard(ts.node, uint8(depth), inLabel, r)
		}
		return
	}
	if res.Op != label.OpNone {
		// telemetry.TraceOp values mirror label.Op numerically.
		ts.ring.RecordOp(ts.node, telemetry.TraceOp(res.Op), uint8(depth), inLabel)
	}
}

// Close stops the engine: no new packets are accepted, workers drain
// what is already queued, and Close returns when they have exited. The
// snapshot is final afterwards.
func (e *Engine) Close() {
	if e.closed.Swap(true) {
		e.wg.Wait()
		return
	}
	for _, s := range e.shards {
		s.close()
	}
	e.wg.Wait()
}

// Snapshot aggregates every shard's accounting.
type Snapshot struct {
	// Submitted counts packets accepted into the queues; QueueDropped
	// counts packets the admission policy rejected. Submitted + QueueDropped
	// is everything offered.
	Submitted    stats.Counter
	QueueDropped uint64
	// Forwarded/Delivered/Dropped classify processed packets by the
	// forwarding decision; DropsByReason breaks the forwarding drops
	// down.
	Forwarded     stats.Counter
	Delivered     stats.Counter
	Dropped       stats.Counter
	DropsByReason map[swmpls.DropReason]uint64
	// BatchTime samples seconds of processing per worker batch, merged
	// across workers. WorkerBusy is each worker's total processing time
	// in seconds — max(WorkerBusy) is the engine's critical path, which
	// is how the benchmark derives capacity on core-limited hosts.
	BatchTime  stats.Sample
	WorkerBusy []float64
	// CacheHits/CacheMisses count flow-cache outcomes across workers:
	// hits skipped the table search entirely, misses resolved through
	// the table and seeded the cache. Drops are neither (negative
	// results are not cached). Both stay zero with the cache disabled.
	CacheHits   uint64
	CacheMisses uint64
	// Reasons is the unified per-reason drop accounting: forwarding
	// drops across every table snapshot plus queue admission
	// rejections, indexed by telemetry.Reason.
	Reasons [telemetry.NumReasons]uint64
	// Latency and StackDepth are the per-shard histograms merged:
	// seconds per worker batch, and label stack depth per packet.
	Latency    telemetry.HistSnapshot
	StackDepth telemetry.HistSnapshot
	// EgressFlushSize/Timer/Close count egress staging-ring flushes by
	// trigger: the ring reached the flush size, the flush interval
	// expired on an idle queue, or the engine closed and drained.
	// EgressBatch is the flushed-batch occupancy histogram — together
	// they make the egress amortisation observable.
	EgressFlushSize  uint64
	EgressFlushTimer uint64
	EgressFlushClose uint64
	EgressBatch      telemetry.HistSnapshot
}

// Processed returns how many packets the workers have finished.
func (s *Snapshot) Processed() uint64 {
	return s.Forwarded.Events + s.Delivered.Events + s.Dropped.Events
}

// Snapshot merges the per-worker statistics into one view. It is safe to
// call while the engine runs (each shard is locked briefly); for exact
// totals call it after Close.
func (e *Engine) Snapshot() Snapshot {
	out := Snapshot{
		DropsByReason: make(map[swmpls.DropReason]uint64),
		WorkerBusy:    make([]float64, len(e.shards)),
	}
	for i, s := range e.shards {
		s.mu.Lock()
		out.Submitted.Merge(s.agg.submitted)
		out.QueueDropped += s.sched.Dropped()
		out.Forwarded.Merge(s.agg.forwarded)
		out.Delivered.Merge(s.agg.delivered)
		out.Dropped.Merge(s.agg.dropped)
		for r, n := range s.agg.dropsByReason {
			if n > 0 {
				out.DropsByReason[swmpls.DropReason(r)] += n
			}
		}
		out.BatchTime.Merge(&s.agg.batchTime)
		out.WorkerBusy[i] = s.agg.busy
		out.CacheHits += s.agg.cacheHits
		out.CacheMisses += s.agg.cacheMisses
		s.mu.Unlock()
		out.EgressFlushSize += s.egFlush[egressTriggerSize].Load()
		out.EgressFlushTimer += s.egFlush[egressTriggerTimer].Load()
		out.EgressFlushClose += s.egFlush[egressTriggerClose].Load()
	}
	out.Reasons = e.drops.Load().Snapshot()
	out.Latency = e.latencyHist().Snapshot()
	out.StackDepth = e.depthHist().Snapshot()
	out.EgressBatch = e.egressHist().Snapshot()
	return out
}

// latencyHist merges the shards' batch-time histograms.
func (e *Engine) latencyHist() *telemetry.Histogram {
	m := telemetry.NewHistogram(telemetry.LatencyBounds()...)
	for _, s := range e.shards {
		m.Merge(s.lat)
	}
	return m
}

// depthHist merges the shards' stack-depth histograms.
func (e *Engine) depthHist() *telemetry.Histogram {
	m := telemetry.NewHistogram(telemetry.DepthBounds()...)
	for _, s := range e.shards {
		m.Merge(s.depth)
	}
	return m
}

// egressHist merges the shards' egress batch-size histograms.
func (e *Engine) egressHist() *telemetry.Histogram {
	m := telemetry.NewHistogram(telemetry.BatchBounds()...)
	for _, s := range e.shards {
		m.Merge(s.egBatch)
	}
	return m
}

// egressFlushes sums one flush-trigger counter across shards.
func (e *Engine) egressFlushes(trigger int) uint64 {
	var n uint64
	for _, s := range e.shards {
		n += s.egFlush[trigger].Load()
	}
	return n
}

// queueLen sums the instantaneous shard queue depths.
func (e *Engine) queueLen() float64 {
	var n int
	for _, s := range e.shards {
		s.mu.Lock()
		n += s.sched.Len()
		s.mu.Unlock()
	}
	return float64(n)
}

// RegisterMetrics wires the engine into a telemetry registry. All
// values are read live at scrape time, so one registration serves the
// engine's whole lifetime — including across table updates. The given
// labels are attached to every series; pass nil to label the series
// with the engine's node name only.
func (e *Engine) RegisterMetrics(reg *telemetry.Registry, labels telemetry.Labels) {
	ls := telemetry.Labels{"node": e.node}
	for k, v := range labels {
		ls[k] = v
	}
	counter := func(c *stats.Counter) uint64 { return c.Events }
	reg.Counter("mpls_dataplane_submitted_packets_total",
		"Packets accepted into shard ingress queues.", ls,
		func() uint64 { s := e.Snapshot(); return counter(&s.Submitted) })
	reg.Counter("mpls_dataplane_forwarded_packets_total",
		"Packets forwarded to a next hop.", ls,
		func() uint64 { s := e.Snapshot(); return counter(&s.Forwarded) })
	reg.Counter("mpls_dataplane_delivered_packets_total",
		"Packets delivered to the IP side after the final pop.", ls,
		func() uint64 { s := e.Snapshot(); return counter(&s.Delivered) })
	reg.Counter("mpls_dataplane_table_updates_total",
		"Published forwarding-table snapshots.", ls, e.Updates)
	reg.Gauge("mpls_dataplane_queue_depth",
		"Instantaneous packets waiting across shard queues.", ls, e.queueLen)
	reg.Counter("mpls_dataplane_flowcache_hits_total",
		"Packets resolved from the per-worker flow cache.", ls,
		func() uint64 { return e.Snapshot().CacheHits })
	reg.Counter("mpls_dataplane_flowcache_misses_total",
		"Packets that took the full table search and seeded the flow cache.", ls,
		func() uint64 { return e.Snapshot().CacheMisses })
	reg.Drops("mpls_dataplane_drops_total",
		"Dropped packets by reason (forwarding and queue admission).", ls, e.drops.Load())
	reg.Histogram("mpls_dataplane_batch_seconds",
		"Seconds of forwarding work per worker batch.", ls,
		func() telemetry.HistSnapshot { return e.latencyHist().Snapshot() })
	reg.Histogram("mpls_dataplane_stack_depth",
		"Label stack depth of packets entering the forwarding step.", ls,
		func() telemetry.HistSnapshot { return e.depthHist().Snapshot() })
	for trigger, name := range map[int]string{
		egressTriggerSize:  "size",
		egressTriggerTimer: "timer",
		egressTriggerClose: "close",
	} {
		tls := telemetry.Labels{"trigger": name}
		for k, v := range ls {
			tls[k] = v
		}
		trigger := trigger
		reg.Counter("mpls_egress_flush_total",
			"Egress staging-ring flushes by trigger (size, timer, close).", tls,
			func() uint64 { return e.egressFlushes(trigger) })
	}
	reg.Histogram("mpls_egress_batch_packets",
		"Packets per egress flush handed to the batch sink.", ls,
		func() telemetry.HistSnapshot { return e.egressHist().Snapshot() })
}

// String summarises the snapshot for logs.
func (s Snapshot) String() string {
	return fmt.Sprintf("dataplane{submitted=%d qdrop=%d fwd=%d dlv=%d drop=%d}",
		s.Submitted.Events, s.QueueDropped, s.Forwarded.Events, s.Delivered.Events, s.Dropped.Events)
}
