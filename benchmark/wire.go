package main

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"embeddedmpls/internal/dataplane"
	"embeddedmpls/internal/guard"
	"embeddedmpls/internal/label"
	"embeddedmpls/internal/netsim"
	"embeddedmpls/internal/packet"
	"embeddedmpls/internal/resilience"
	"embeddedmpls/internal/router"
	"embeddedmpls/internal/signaling"
	"embeddedmpls/internal/swmpls"
	"embeddedmpls/internal/telemetry"
	"embeddedmpls/internal/transport"
)

// The wire workloads run a -> b -> c in one process over loopback UDP.
// b is built the way `mplsnode -shards 2` builds its node
// (config.BuildNode): a peer-scoped router.BuildLocal network with a
// two-worker engine plane on the indexed ILM, the ingress guard (spoof
// filter + TTL floor) attached through Network.SetGuard with the
// workload's labels advertised, the egress pump, and a two-shard
// SO_REUSEPORT listener feeding the engine shards, coalesce 32 /
// sys-batch 32. Two things differ from the daemon, both so that a
// closed loop loses nothing: receive sockets get a 4 MiB SO_RCVBUF, and
// the modelled software cost is 1 ns so the simulator's engine model
// does not throttle the serial path (as cmd/mplsbench does).

const (
	wireShards   = 2
	wireSenders  = 2
	wireCoalesce = 32
	wireSysBatch = 32
	wireRcvBuf   = 4 << 20

	// stallTimeout is how long a closed loop may see no delivery before
	// the run is declared broken (a lost datagram would otherwise block
	// the sender forever).
	stallTimeout = 2 * time.Second
)

// wireSpec is the fixed shape of one wire workload.
type wireSpec struct {
	name    string
	plan    func(seed int64) *wirePlan
	window  int // closed loop: packets in flight
	openPPS int // open loop: offered rate
	// warmBursts is the fixed warm-up work done as part of set-up.
	warmBursts int
}

var transitSpec = wireSpec{name: wTransit, plan: transitPlan, window: 4096, openPPS: 200_000, warmBursts: 800}
var edgeSpec = wireSpec{name: wEdge, plan: edgePlan, window: 512, openPPS: 50_000, warmBursts: 800}

// sink is node c: it verifies every arrival (out label, TTL-1, payload
// intact, per-flow sequence with no gap, duplicate or reorder) and, in
// the fixed-rate phase, takes one-way latency from the due time stamped
// in the payload.
type sink struct {
	plan   *wirePlan
	epoch  time.Time
	shift  label.Label // -break: expect a wrong label
	last   []uint32
	good   atomic.Int64
	bad    atomic.Int64
	reason atomic.Pointer[string]

	lat atomic.Pointer[latWindows]

	tr    *tracer
	trOn  *atomic.Bool
	burst uint64
}

func (s *sink) fail(format string, args ...any) {
	if s.reason.Load() == nil {
		msg := fmt.Sprintf(format, args...)
		s.reason.CompareAndSwap(nil, &msg)
	}
}

func (s *sink) deliver(batch []transport.Inbound) {
	tracing := s.tr != nil && s.trOn.Load() && len(batch) > 0
	var t0 int64
	if tracing {
		t0 = s.tr.now()
	}
	now := int64(time.Since(s.epoch))
	lat := s.lat.Load()
	good, bad := 0, 0
	for _, in := range batch {
		p := in.P
		if len(p.Payload) != s.plan.PayloadLen {
			bad++
			s.fail("payload %d bytes, want %d", len(p.Payload), s.plan.PayloadLen)
			continue
		}
		due, flow, fseq := unstamp(p.Payload)
		if int(flow) >= len(s.plan.Out) {
			bad++
			s.fail("flow %d out of range", flow)
			continue
		}
		top, err := p.Stack.Top()
		switch {
		case err != nil || p.Stack.Depth() != 1:
			bad++
			s.fail("flow %d: stack depth %d, want 1", flow, p.Stack.Depth())
		case top.Label != s.plan.Out[flow]+s.shift:
			bad++
			s.fail("flow %d: out label %d, want %d", flow, top.Label, s.plan.Out[flow]+s.shift)
		case top.TTL != expectTTL:
			bad++
			s.fail("flow %d: TTL %d, want %d", flow, top.TTL, expectTTL)
		case s.plan.Dst != nil && p.Header.Dst != s.plan.Dst[flow]:
			bad++
			s.fail("flow %d: destination %v, want %v", flow, p.Header.Dst, s.plan.Dst[flow])
		case fseq != s.last[flow]+1:
			bad++
			s.fail("flow %d: sequence %d after %d (lost, duplicated or reordered)", flow, fseq, s.last[flow])
		default:
			good++
			if lat != nil && due > 0 {
				lat.add(due, now-due)
			}
		}
		if fseq > s.last[flow] {
			s.last[flow] = fseq
		}
	}
	s.good.Add(int64(good))
	s.bad.Add(int64(bad))
	if tracing {
		if op := batch[0].P.SeqNo / s.burst; sampled(op) {
			s.tr.record("sink.deliver", "transport.send_batch", op, t0, s.tr.now())
		}
	}
}

func (s *sink) seen() int64 { return s.good.Load() + s.bad.Load() }

// tracedAdmission wraps the guard at the router.Admission interface:
// in sampled bursts every Admit is timed and recorded under the
// burst's feed span.
type tracedAdmission struct {
	inner router.Admission
	tr    *tracer
	on    *atomic.Bool
	burst uint64
	total seamTotal
}

func (a *tracedAdmission) Admit(p *packet.Packet, from string) bool {
	if !a.on.Load() {
		return a.inner.Admit(p, from)
	}
	op := p.SeqNo / a.burst
	if !sampled(op) {
		return a.inner.Admit(p, from)
	}
	t0 := a.tr.now()
	ok := a.inner.Admit(p, from)
	t1 := a.tr.now()
	a.total.add(t1-t0, 1)
	a.tr.record("guard.admit", "router.feed", op, t0, t1)
	return ok
}

func (a *tracedAdmission) PreAdmit(peer string, labelled bool) bool {
	return a.inner.PreAdmit(peer, labelled)
}

func (a *tracedAdmission) Malformed(peer string) { a.inner.Malformed(peer) }

// tracedWire wraps the netsim.Wire handed to Router.AttachLink for the
// b -> c link: every send is timed into a running total, sampled
// bursts also leave a span.
type tracedWire struct {
	netsim.Wire
	tr    *tracer
	on    *atomic.Bool
	burst uint64
	total seamTotal
}

func (w *tracedWire) SendBatch(ps []*packet.Packet) {
	if !w.on.Load() || len(ps) == 0 {
		w.Wire.SendBatch(ps)
		return
	}
	op := ps[0].SeqNo / w.burst
	t0 := w.tr.now()
	w.Wire.SendBatch(ps)
	t1 := w.tr.now()
	w.total.add(t1-t0, len(ps))
	if sampled(op) {
		w.tr.record("transport.send_batch", "router.feed", op, t0, t1)
	}
}

func (w *tracedWire) Send(p *packet.Packet) {
	if !w.on.Load() {
		w.Wire.Send(p)
		return
	}
	op := p.SeqNo / w.burst
	t0 := w.tr.now()
	w.Wire.Send(p)
	t1 := w.tr.now()
	w.total.add(t1-t0, 1)
	if sampled(op) {
		w.tr.record("transport.send_batch", "router.feed", op, t0, t1)
	}
}

// wireHarness is one built a -> b -> c system plus its load generator.
type wireHarness struct {
	spec  wireSpec
	plan  *wirePlan
	gen   *wireGen
	sink  *sink
	burst []*packet.Packet
	k     uint64 // next burst number
	sent  int64
	// retiredTx counts packets written by senders pinning closed again.
	retiredTx uint64

	net     *router.Network
	eng     *dataplane.Engine
	guard   *guard.Guard
	rcvB    *transport.ShardedReceiver
	rcvC    *transport.Receiver
	egress  *transport.UDPLink
	senders [wireSenders]*transport.UDPLink

	stop   chan struct{}
	simWG  sync.WaitGroup
	closed bool

	// trace seams (nil/zero when untraced)
	tr       *tracer
	trOn     atomic.Bool
	adm      *tracedAdmission
	wire     *tracedWire
	feed     seamTotal
	serial   seamTotal // feed spans of unlabelled (slow-path) batches
	sendSeam seamTotal
}

func buildWire(spec wireSpec, seed int64, tr *tracer, breakGate bool) (h *wireHarness, err error) {
	plan := spec.plan(seed)
	h = &wireHarness{spec: spec, plan: plan, tr: tr, stop: make(chan struct{})}
	defer func() {
		if err != nil {
			h.close()
		}
	}()
	h.gen = newWireGen(plan, seed, wireSenders)
	h.burst = h.gen.newBurst()
	h.sink = &sink{
		plan: plan, epoch: time.Now(), last: make([]uint32, plan.flows()),
		tr: tr, trOn: &h.trOn, burst: uint64(plan.Burst),
	}
	if breakGate {
		h.sink.shift = 1
	}

	h.rcvC, err = transport.Listen("127.0.0.1:0", h.sink.deliver,
		transport.WithBatch(256), transport.WithSysBatch(wireSysBatch), transport.WithReadBuffer(wireRcvBuf))
	if err != nil {
		return h, err
	}

	names := []string{"a", "b", "c"}
	h.net, err = router.BuildLocal([]router.NodeSpec{
		{Name: "a"},
		{Name: "b", EngineWorkers: wireShards, InfoBase: "indexed", SoftwareCost: 1e-9},
		{Name: "c"},
	}, []router.LinkSpec{{A: "a", B: "b"}, {A: "b", B: "c"}}, "b")
	if err != nil {
		return h, err
	}
	h.net.SetTelemetry(telemetry.Sink{Drops: &telemetry.DropCounters{}})

	h.guard = guard.New(
		guard.WithDefaultPolicy(guard.Policy{SpoofFilter: true, MinTTL: 2}),
		guard.WithControlFlows(signaling.FlowID, resilience.ProbeFlowID),
		guard.WithDropFunc(h.net.Drop),
	)
	for _, l := range plan.In {
		h.guard.Advertise("a", l)
	}
	if tr != nil {
		h.adm = &tracedAdmission{inner: h.guard, tr: tr, on: &h.trOn, burst: uint64(plan.Burst)}
		h.net.SetGuard(h.adm)
	} else {
		h.net.SetGuard(h.guard)
	}

	base := append(h.net.TransportOptions(),
		transport.WithCoalesce(wireCoalesce), transport.WithSysBatch(wireSysBatch))
	h.egress, err = transport.Dial("b", "c", h.rcvC.Addr().String(),
		append(append([]transport.Option{}, base...), transport.WithSource(1), transport.WithMetrics(nil))...)
	if err != nil {
		return h, err
	}
	rb := h.net.Router("b")
	if tr != nil {
		h.wire = &tracedWire{Wire: h.egress, tr: tr, on: &h.trOn, burst: uint64(plan.Burst)}
		rb.AttachLink(h.wire)
	} else {
		rb.AttachLink(h.egress)
	}
	h.net.Manage(h.egress)

	h.eng = rb.Plane().(*router.EnginePlane).Engine
	if err := h.eng.Update(func(f *swmpls.Forwarder) error {
		for i, in := range plan.In {
			n := swmpls.NHLFE{NextHop: "c", Op: label.OpSwap, PushLabels: []label.Label{plan.Out[i]}}
			if err := f.InstallILM(in, n); err != nil {
				return err
			}
		}
		for _, pf := range plan.Prefixes {
			n := swmpls.NHLFE{NextHop: "c", Op: label.OpPush, PushLabels: []label.Label{pf.Label}}
			if err := f.InstallFEC(pf.Addr, pf.Len, n); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return h, err
	}

	if err := h.net.AttachEgressPump("b"); err != nil {
		return h, err
	}
	if err := h.primeWorkers(); err != nil {
		return h, err
	}
	// Per-shard metrics (WithMetrics(nil) undoes the shared counter of
	// TransportOptions) are what shard pinning is verified with.
	lopts := append(append([]transport.Option{}, base...),
		transport.WithNames(names), transport.WithReadBuffer(wireRcvBuf), transport.WithMetrics(nil))
	h.rcvB, err = transport.ListenSharded("127.0.0.1:0", wireShards,
		func(i int) func([]transport.Inbound) { return h.feedSink(h.net.FeedTo("b", i)) }, lopts...)
	if err != nil {
		return h, err
	}
	h.net.Manage(h.rcvB)

	// The serial Receive path schedules forwarding on the simulator, so
	// a driver must advance virtual time, as in the daemon.
	h.simWG.Add(1)
	go func() {
		defer h.simWG.Done()
		h.net.RunRealStop(3600, h.stop)
	}()

	if err := h.pinSenders(); err != nil {
		return h, err
	}
	for i := 0; i < spec.warmBursts; i++ {
		h.sendBurst(0)
		if err := h.pace(spec.window); err != nil {
			return h, err
		}
	}
	return h, h.quiesce()
}

// primeWorkers pushes one packet through every engine shard. A worker
// loads the egress sink before it parks on its empty queue, so one that
// parked before AttachEgressPump still holds "no sink" and silently
// discards the first batch it wakes up to — attaching the pump before
// the listener opens, as the daemon does, does not help. The sacrificial
// packet takes that batch's place. It carries a label b has no binding
// for, so it is dropped either way (by the stale nil sink, or counted by
// the router if the worker already had the pump) and never reaches a
// socket. The workloads themselves contain no unbound label — one would
// show as a packet missing at the sink — so every lookup-miss drop is a
// priming packet, and counters() reports them apart as primeDrops.
func (h *wireHarness) primeWorkers() error {
	known := make(map[label.Label]bool, len(h.plan.In))
	for _, l := range h.plan.In {
		known[l] = true
	}
	unknown := label.FirstUnreserved
	for known[unknown] {
		unknown++
	}
	for i := 0; i < wireShards; i++ {
		p := packet.New(packet.AddrFrom(192, 0, 2, 1), packet.AddrFrom(10, 0, 0, 9), sendTTL, nil)
		_ = p.Stack.Push(label.Entry{Label: unknown, TTL: sendTTL})
		h.eng.Submit([]*packet.Packet{p}, dataplane.SubmitOpts{Wait: true, Pin: true, Shard: i})
	}
	for deadline := time.Now().Add(stallTimeout); ; time.Sleep(50 * time.Microsecond) {
		if snap := h.eng.Snapshot(); snap.Processed() >= wireShards {
			break
		}
		if time.Now().After(deadline) {
			return errors.New("engine workers did not take the priming packets")
		}
	}
	return nil
}

// feedSink is the seam around the sink FeedTo returns: a timing wrapper
// in the traced run, the bare sink otherwise.
func (h *wireHarness) feedSink(inner func([]transport.Inbound)) func([]transport.Inbound) {
	if h.tr == nil {
		return inner
	}
	burst := uint64(h.plan.Burst)
	return func(batch []transport.Inbound) {
		if !h.trOn.Load() || len(batch) == 0 {
			inner(batch)
			return
		}
		op := batch[0].P.SeqNo / burst
		n, slow := len(batch), !batch[0].P.Labelled()
		t0 := h.tr.now()
		var id int32
		if sampled(op) {
			id = h.tr.begin("router.feed", "loadgen.send", op, t0)
		}
		inner(batch)
		t1 := h.tr.now()
		h.feed.add(t1-t0, n)
		if slow {
			h.serial.add(t1-t0, n)
		}
		if id != 0 {
			h.tr.end(id, t1)
		}
	}
}

func (h *wireHarness) shardRx() [wireShards]uint64 {
	var out [wireShards]uint64
	for i := range out {
		out[i] = h.rcvB.Receiver(i).Metrics().RxPackets.Load()
	}
	return out
}

// pinSenders gives every SO_REUSEPORT shard exactly one sender. The
// kernel hashes a connected sender's ephemeral port to a shard, so two
// dials can land on the same one and leave the other idle — runs would
// be bimodal. Each candidate sends one real burst; the shard whose
// receive counter moved is where it landed, and a candidate landing on
// a taken shard is closed and redialled.
func (h *wireHarness) pinSenders() error {
	var taken [wireShards]bool
	opts := []transport.Option{
		transport.WithCoalesce(wireCoalesce), transport.WithSysBatch(wireSysBatch), transport.WithSource(0),
	}
	for s := 0; s < wireSenders; s++ {
		for attempt := 0; ; attempt++ {
			if attempt == 64 {
				return fmt.Errorf("shard pinning: sender %d found no free shard in %d dials", s, attempt)
			}
			l, err := transport.Dial("a", "b", h.rcvB.Addr().String(), opts...)
			if err != nil {
				return err
			}
			before := h.shardRx()
			h.senders[s] = l
			for h.k%wireSenders != uint64(s) {
				h.k++
			}
			h.sendBurst(0)
			if err := h.quiesce(); err != nil {
				l.Close()
				return fmt.Errorf("shard pinning: %w", err)
			}
			after := h.shardRx()
			shard, moved := 0, 0
			for i := range after {
				if after[i] != before[i] {
					shard = i
					moved++
				}
			}
			if moved != 1 {
				l.Close()
				return fmt.Errorf("shard pinning: probe burst moved %d shard counters, want 1", moved)
			}
			if !taken[shard] {
				taken[shard] = true
				break
			}
			h.senders[s] = nil
			h.retiredTx += l.Metrics().TxPackets.Load()
			l.Close()
		}
	}
	return nil
}

// sendBurst generates the next burst and sends it on its sender.
func (h *wireHarness) sendBurst(due int64) {
	op := h.gen.seq / uint64(h.plan.Burst)
	s := h.gen.next(h.burst, h.k, due)
	h.k++
	if h.tr != nil && h.trOn.Load() {
		t0 := h.tr.now()
		h.senders[s].SendBatch(h.burst)
		t1 := h.tr.now()
		h.sendSeam.add(t1-t0, len(h.burst))
		if sampled(op) {
			h.tr.record("loadgen.send", "", op, t0, t1)
		}
	} else {
		h.senders[s].SendBatch(h.burst)
	}
	h.sent += int64(len(h.burst))
}

// pace blocks while more than window packets are in flight.
func (h *wireHarness) pace(window int) error {
	limit := int64(window - len(h.burst))
	var stalledSince time.Time
	last := int64(-1)
	for {
		seen := h.sink.seen()
		if h.sent-seen <= limit {
			return nil
		}
		if seen != last {
			last, stalledSince = seen, time.Now()
		} else if time.Since(stalledSince) > stallTimeout {
			return fmt.Errorf("%d packets in flight and nothing delivered for %v (%s)", h.sent-seen, stallTimeout, h.where())
		}
		time.Sleep(20 * time.Microsecond)
	}
}

// quiesce waits until everything sent has reached the sink.
func (h *wireHarness) quiesce() error { return h.pace(len(h.burst)) }

// loop exposes the harness to the phase drivers: a burst is offered
// under the closed-loop window in the saturation phase and without it,
// stamped with its due time, in the fixed-rate phase.
func (h *wireHarness) loop() loop {
	return loop{
		epoch: h.sink.epoch,
		done:  h.sink.good.Load,
		offer: func(due int64) error {
			h.sendBurst(due)
			if due == 0 {
				return h.pace(h.spec.window)
			}
			if backlog := h.sent - h.sink.seen(); backlog > int64(h.spec.openPPS) {
				return fmt.Errorf("backlog passed one second of traffic (%d packets)", backlog)
			}
			return nil
		},
		settle: h.quiesce,
		record: h.sink.lat.Store,
	}
}

// wireCounters is a snapshot of every public counter the layers of node
// b (and the sockets around it) export; per-layer figures are deltas
// between two snapshots taken at phase boundaries.
type wireCounters struct {
	txA, rxB, rxSysB, decodeFail uint64
	guardDrops                   uint64
	fwdB, dropB, primeDrops      uint64 // dropB excludes primeDrops
	tx, txDgram, txSys, txLost   uint64 // b's egress link
	rxC                          uint64
	eng                          dataplane.Snapshot
}

func (h *wireHarness) counters() wireCounters {
	c := wireCounters{txA: h.retiredTx}
	for _, l := range h.senders {
		if l != nil {
			c.txA += l.Metrics().TxPackets.Load()
		}
	}
	for i := 0; h.rcvB != nil && i < wireShards; i++ {
		m := h.rcvB.Receiver(i).Metrics()
		c.rxB += m.RxPackets.Load()
		c.rxSysB += m.RxSyscalls.Load()
		c.decodeFail += m.DecodeErrors.Load()
	}
	c.decodeFail += h.rcvC.Metrics().DecodeErrors.Load()
	c.rxC = h.rcvC.Metrics().RxPackets.Load()
	c.guardDrops = h.guard.Drops().Total()
	h.net.Lock()
	st := h.net.Router("b").Stats
	c.primeDrops = st.DropsByReason[swmpls.DropNoLabel]
	c.fwdB, c.dropB = st.Forwarded.Events, st.Dropped.Events-c.primeDrops
	h.net.Unlock()
	em := h.egress.Metrics()
	c.tx, c.txDgram, c.txSys, c.txLost = em.TxPackets.Load(), em.TxDatagrams.Load(), em.TxSyscalls.Load(), em.TxLost.Load()
	c.eng = h.eng.Snapshot()
	return c
}

// where says, for a stall report, how far packets got.
func (h *wireHarness) where() string {
	c := h.counters()
	return fmt.Sprintf("sent %d: a wrote %d, b decoded %d (decode failures %d), guard dropped %d, engine %v, b forwarded %d dropped %d, b wrote %d lost %d, c decoded %d, sink saw %d",
		h.sent, c.txA, c.rxB, c.decodeFail, c.guardDrops, c.eng, c.fwdB, c.dropB, c.tx, c.txLost, c.rxC, h.sink.seen())
}

// conservation checks the packet conservation law at every node of a
// quiescent harness and returns the end-to-end residual: sent minus
// delivered minus every counted drop. Anything but zero is a leak.
func (h *wireHarness) conservation() (residual int64, violations []string) {
	c := h.counters()
	seen := uint64(h.sink.seen())
	if uint64(h.sent) != c.txA {
		violations = append(violations, fmt.Sprintf("a: generator sent %d, links wrote %d", h.sent, c.txA))
	}
	if c.txA != c.rxB+c.decodeFail {
		violations = append(violations, fmt.Sprintf("a->b: wrote %d, b decoded %d (+%d decode failures)", c.txA, c.rxB, c.decodeFail))
	}
	if c.rxB != c.guardDrops+c.fwdB+c.dropB {
		violations = append(violations, fmt.Sprintf("b: received %d != guard drops %d + forwarded %d + dropped %d", c.rxB, c.guardDrops, c.fwdB, c.dropB))
	}
	if c.fwdB != c.tx+c.txLost {
		violations = append(violations, fmt.Sprintf("b egress: forwarded %d != written %d + lost %d", c.fwdB, c.tx, c.txLost))
	}
	if c.tx != c.rxC || c.rxC != seen {
		violations = append(violations, fmt.Sprintf("b->c: wrote %d, c decoded %d, sink saw %d", c.tx, c.rxC, seen))
	}
	residual = h.sent - int64(seen) - int64(c.guardDrops+c.dropB+c.decodeFail+c.txLost)
	return residual, violations
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// layerDeltas turns two counter snapshots bracketing a phase into the
// counter-sourced per-layer metrics of that phase.
func layerDeltas(a, b wireCounters, ph phase, layer map[string]float64) {
	rx := float64(b.rxB - a.rxB)
	admitted := rx - float64(b.guardDrops-a.guardDrops)
	layer["transport.tx_syscalls_per_pkt"] = ratio(float64(b.txSys-a.txSys), float64(b.tx-a.tx))
	layer["transport.rx_syscalls_per_pkt"] = ratio(float64(b.rxSysB-a.rxSysB), rx)
	layer["transport.pkts_per_datagram"] = ratio(float64(b.tx-a.tx), float64(b.txDgram-a.txDgram))
	layer["guard.admit_ratio"] = ratio(admitted, rx)
	submitted := float64(b.eng.Submitted.Events - a.eng.Submitted.Events)
	layer["router.slow_path_ratio"] = ratio(admitted-submitted, admitted)
	engineDeltas(a.eng, b.eng, ph.wall, layer)
}

// engineDeltas derives the dataplane.* counter metrics from two engine
// snapshots. worker_busy_share is a labelled diagnostic (busy time over
// workers x wall), never a throughput figure.
func engineDeltas(a, b dataplane.Snapshot, wall time.Duration, layer map[string]float64) {
	processed := float64(b.Processed() - a.Processed())
	var busy float64
	for i := range b.WorkerBusy {
		busy += b.WorkerBusy[i]
		if i < len(a.WorkerBusy) {
			busy -= a.WorkerBusy[i]
		}
	}
	layer["dataplane.worker_busy_ns_per_pkt"] = ratio(busy*1e9, processed)
	layer["dataplane.worker_busy_share"] = ratio(busy, float64(len(b.WorkerBusy))*wall.Seconds())
	layer["dataplane.queue_drops_total"] = float64(b.QueueDropped - a.QueueDropped)
	hits, misses := float64(b.CacheHits-a.CacheHits), float64(b.CacheMisses-a.CacheMisses)
	layer["dataplane.flowcache_hit_ratio"] = ratio(hits, hits+misses)
	layer["dataplane.egress_batch_mean_pkts"] = ratio(b.EgressBatch.Sum-a.EgressBatch.Sum, float64(b.EgressBatch.Count-a.EgressBatch.Count))
}

func flushTimerShare(a, b dataplane.Snapshot) float64 {
	timer := float64(b.EgressFlushTimer - a.EgressFlushTimer)
	all := timer + float64(b.EgressFlushSize-a.EgressFlushSize) + float64(b.EgressFlushClose-a.EgressFlushClose)
	return ratio(timer, all)
}

func (h *wireHarness) close() {
	if h.closed {
		return
	}
	h.closed = true
	for _, l := range h.senders {
		if l != nil {
			l.Close()
		}
	}
	close(h.stop)
	h.simWG.Wait()
	if h.net != nil {
		h.net.Close()
	}
	if h.rcvC != nil {
		h.rcvC.Close()
	}
}

// rawWirePPS measures a -> c with no node in between — the ceiling the
// node's figure is read against: the same senders, coalescing and
// syscall batching, one counting socket.
func rawWirePPS(plan *wirePlan, seed int64, d time.Duration) (float64, error) {
	var delivered atomic.Int64
	rcv, err := transport.Listen("127.0.0.1:0",
		func(b []transport.Inbound) { delivered.Add(int64(len(b))) },
		transport.WithBatch(256), transport.WithSysBatch(wireSysBatch), transport.WithReadBuffer(wireRcvBuf))
	if err != nil {
		return 0, err
	}
	defer rcv.Close()
	var links [wireSenders]*transport.UDPLink
	for i := range links {
		l, err := transport.Dial("a", "c", rcv.Addr().String(),
			transport.WithCoalesce(wireCoalesce), transport.WithSysBatch(wireSysBatch))
		if err != nil {
			return 0, err
		}
		defer l.Close()
		links[i] = l
	}
	gen := newWireGen(plan, seed, wireSenders)
	ps := gen.newBurst()
	var sent int64
	t0 := time.Now()
	for k := uint64(0); time.Since(t0) < d; k++ {
		links[gen.next(ps, k, 0)].SendBatch(ps)
		sent += int64(len(ps))
		for stall := time.Now(); sent-delivered.Load() > 4096; {
			if time.Since(stall) > stallTimeout {
				return 0, errors.New("raw wire: receiver stalled")
			}
			time.Sleep(20 * time.Microsecond)
		}
	}
	return float64(delivered.Load()) / time.Since(t0).Seconds(), nil
}
