package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"embeddedmpls/internal/label"
	"embeddedmpls/internal/packet"
	"embeddedmpls/internal/signaling"
	"embeddedmpls/internal/swmpls"
	"embeddedmpls/internal/transport"
)

// runConfig is one invocation: which inputs, how long, traced or not.
type runConfig struct {
	seed      int64
	seconds   int
	trace     bool
	breakGate bool // expect a wrong output on purpose (gate self-test)
	outDir    string
}

// outcome is what a workload hands back: counts for the correctness
// gate, the metrics of the mode it ran in, and notes for the reader.
type outcome struct {
	attempted     int64
	correct       int64
	expectedDrops int64 // discards the generator predicted and the sink verified
	violations    []string
	e2e           map[string]float64
	layer         map[string]float64
	latSamples    int
	notes         []string
	// invalid, when set, says why the fixed-rate figures of this run
	// should not be read (the generator ran late).
	invalid string
}

func (o *outcome) failed() int64 { return o.attempted - o.correct - o.expectedDrops }

func (o *outcome) notef(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// setupReps is how many times at least a workload sets itself up;
// setup_s is the median, so one slow dial or page-fault storm does not
// move it. See timeSetups for setupMinTotal.
const (
	setupReps     = 5
	setupMinTotal = 500 * time.Millisecond
)

// phaseSplit divides the run's seconds between the saturation phase and
// the fixed-rate phase (2:1), and in a traced run between untraced
// saturation, traced saturation and traced fixed rate (1:1:1).
func phaseSplit(cfg runConfig) (closed, open time.Duration) {
	total := time.Duration(cfg.seconds) * time.Second
	if cfg.trace {
		return total / 3, total / 3
	}
	return total * 2 / 3, total / 3
}

var workloads = map[string]func(runConfig) (*outcome, error){
	wTransit: func(c runConfig) (*outcome, error) { return runWire(transitSpec, c) },
	wEdge:    func(c runConfig) (*outcome, error) { return runWire(edgeSpec, c) },
	wEngine:  runEngine,
	wControl: runControl,
	wLSM:     runLSM,
}

// setE2E fills the end-to-end metrics every data-plane workload shares.
func setE2E(o *outcome, closed phase, latP50, latP99 float64, samples int, setups []float64) {
	o.layer["e2e.lat_p99_us"] = latP99
	o.e2e = map[string]float64{
		"ops_per_s":     closed.opsRate,
		"lat_p50_us":    latP50,
		"cpu_us_per_op": ratio(float64(closed.cpu.Nanoseconds())/1e3, float64(closed.ops)),
		"allocs_per_op": ratio(float64(closed.mallocs), float64(closed.ops)),
		"peak_rss_mb":   peakRSSMiB(),
		"setup_s":       median(setups),
	}
	o.latSamples = samples
	cores := runtime.NumCPU()
	o.notef("saturation: %d correct ops in %.2fs wall, %.2fs cpu (%.0f%% of %d cores)",
		closed.ops, closed.wall.Seconds(), closed.cpu.Seconds(),
		100*closed.cpu.Seconds()/closed.wall.Seconds()/float64(cores), cores)
	o.notef("latency p50 %.1f us, p99 %.1f us over %d samples (median of one-second windows); set-up times %v", latP50, latP99, samples, setups)
}

// checkOpen applies the pacing-hygiene rule: a fixed-rate phase whose
// generator ran later than the tolerance at p99 measured itself (or a
// stall of the box), not the system. The run is marked invalid in its
// report — its operations were still correct, so the gate stays open.
func checkOpen(o *outcome, open phase, tolerance time.Duration) {
	o.notef("fixed rate: offered %.0f/s, generator lateness p99 %.1f us (burst period %.1f us, tolerance %.1f us)",
		open.offeredPPS, open.latePct99, float64(open.period.Microseconds()), float64(tolerance.Microseconds()))
	if open.latePct99 > float64(tolerance.Nanoseconds())/1e3 {
		o.invalid = fmt.Sprintf("loadgen.late_p99_us %.1f exceeds the tolerance of %.1f us: fixed-rate latencies of this run are the generator's",
			open.latePct99, float64(tolerance.Nanoseconds())/1e3)
	}
}

// ---- transit_wire, edge_wire ----

func runWire(spec wireSpec, cfg runConfig) (*outcome, error) {
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	var h *wireHarness
	setups, err := timeSetups(func() (err error) {
		if h != nil {
			h.close() // the previous repetition's, counted in this one
		}
		h, err = buildWire(spec, cfg.seed, tr, cfg.breakGate)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", spec.name, err)
	}
	defer h.close()
	o := &outcome{layer: map[string]float64{}}
	o.layer["e2e.setup_peak_rss_mb"] = settleMemory()
	closedFor, openFor := phaseSplit(cfg)

	closed, err := saturate(h.loop(), closedFor)
	if err != nil {
		return nil, fmt.Errorf("%s: saturation phase: %w", spec.name, err)
	}
	var traced phase
	var c0, c1 wireCounters
	if cfg.trace {
		c0 = h.counters()
		h.trOn.Store(true)
		if traced, err = saturate(h.loop(), closedFor); err != nil {
			return nil, fmt.Errorf("%s: traced saturation phase: %w", spec.name, err)
		}
		c1 = h.counters()
		// Seam totals cover the traced saturation phase only.
		o.layer["transport.send_batch_ns_per_pkt"] = h.wire.total.nsPerPkt()
		o.layer["guard.admit_ns_per_pkt"] = h.adm.total.nsPerPkt()
		o.layer["router.feed_ns_per_pkt"] = h.feed.nsPerPkt()
		o.layer["router.serial_ns_per_pkt"] = h.serial.nsPerPkt()
		o.layer["loadgen.send_ns_per_pkt"] = h.sendSeam.nsPerPkt()
	}
	open, err := fixedRate(h.loop(), openFor, spec.openPPS, h.plan.Burst)
	if err != nil {
		return nil, fmt.Errorf("%s: fixed-rate phase: %w", spec.name, err)
	}
	h.trOn.Store(false)
	checkOpen(o, open, open.period)

	residual, violations := h.conservation()
	o.violations = append(o.violations, violations...)
	o.attempted, o.correct = h.sent, h.sink.good.Load()
	if r := h.sink.reason.Load(); r != nil {
		o.violations = append(o.violations, "sink: "+*r)
	}
	p50, p99, samples := open.lat.summary()
	setE2E(o, closed, p50, p99, samples, setups)
	if !cfg.trace {
		return o, nil
	}

	c2 := h.counters()
	layerDeltas(c0, c1, traced, o.layer)
	o.layer["dataplane.egress_flush_timer_share"] = flushTimerShare(c1.eng, c2.eng)
	o.layer["transport.decode_fail_total"] = float64(c2.decodeFail)
	o.layer["guard.drops_total"] = float64(c2.guardDrops)
	o.layer["router.forwarded_total"] = float64(c1.fwdB - c0.fwdB)
	o.layer["router.dropped_total"] = float64(c2.dropB)
	o.layer["router.conservation_residual"] = float64(residual)
	o.layer["loadgen.late_p99_us"] = open.latePct99
	o.layer["loadgen.offered_pps"] = open.offeredPPS
	o.layer["trace.overhead_ratio"] = ratio(traced.opsRate, closed.opsRate)
	for reason, name := range dropMetric {
		o.layer[name] = float64(c2.eng.DropsByReason[reason])
	}
	// The engine counts both priming packets whichever sink dropped them.
	o.layer["swmpls.drop_lookup_miss_total"] -= wireShards

	// What share of the processor time per packet do the self times
	// along loadgen.send -> router.feed -> dataplane -> send_batch
	// explain? Worker busy time already contains the size-triggered
	// flushes and their send_batch, so the chain is send + feed + busy.
	cpuNs := ratio(float64(traced.cpu.Nanoseconds()), float64(traced.ops))
	accounted := o.layer["loadgen.send_ns_per_pkt"] + o.layer["router.feed_ns_per_pkt"] + o.layer["dataplane.worker_busy_ns_per_pkt"]
	o.layer["trace.cpu_accounted_share"] = ratio(accounted, cpuNs)
	o.notef("traced saturation: %.0f ns cpu per packet; loadgen.send %.0f + router.feed %.0f (guard.admit %.0f inside, sampled) + dataplane busy %.0f (transport.send_batch %.0f inside) = %.0f ns, %.0f%% of it",
		cpuNs, o.layer["loadgen.send_ns_per_pkt"], o.layer["router.feed_ns_per_pkt"], o.layer["guard.admit_ns_per_pkt"],
		o.layer["dataplane.worker_busy_ns_per_pkt"], o.layer["transport.send_batch_ns_per_pkt"], accounted, 100*o.layer["trace.cpu_accounted_share"])
	o.notef("the remainder is receive syscalls and frame decode inside transport's own goroutines (b's two shard readers, c's reader), timer-triggered flushes, the simulator pump and the Go runtime — spans only in-program tracing can record")

	raw, err := rawWirePPS(h.plan, cfg.seed, time.Second)
	if err != nil {
		return nil, fmt.Errorf("%s: raw wire: %w", spec.name, err)
	}
	o.layer["transport.raw_wire_pps"] = raw

	// Replays, on the workload's own packets and b's own tables.
	gen := newWireGen(h.plan, cfg.seed, wireSenders)
	var sample []*packet.Packet
	var bursts [][]*packet.Packet
	for len(sample) < replaySample {
		b := gen.newBurst()
		bursts = append(bursts, b)
		sample = append(sample, b...)
	}
	refill := func() {
		for k, b := range bursts {
			gen.next(b, uint64(k), 0)
		}
	}
	refill()
	replayCodec(sample, o.layer)
	replayClone(sample, o.layer)
	tbl := h.eng.TableSnapshot()
	replayForwarder(tbl, sample, refill, o.layer)
	o.layer["dataplane.process_inline_ns_per_pkt"], _ = replay(len(sample), refill, func(i int) { h.eng.ProcessInline(sample[i]) })
	if h.plan.In != nil {
		replayInfobase(true, h.plan.In, o.layer)
	}

	path, err := tr.write(cfg.outDir, spec.name, cfg.seed, o.layer, o.notes)
	if err != nil {
		return nil, err
	}
	o.notef("trace: %s", path)
	return o, nil
}

var dropMetric = map[swmpls.DropReason]string{
	swmpls.DropNoLabel:       "swmpls.drop_lookup_miss_total",
	swmpls.DropTTLExpired:    "swmpls.drop_ttl_expired_total",
	swmpls.DropStackOverflow: "swmpls.drop_inconsistent_total",
}

// ---- engine_mix ----

func runEngine(cfg runConfig) (*outcome, error) {
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	var h *engineHarness
	setups, err := timeSetups(func() (err error) {
		if h != nil {
			h.close()
		}
		h, err = buildEngine(cfg.seed, tr, cfg.breakGate)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("engine_mix: set-up: %w", err)
	}
	closedOnce := false
	defer func() {
		if !closedOnce {
			h.close()
		}
	}()
	o := &outcome{layer: map[string]float64{}}
	o.layer["e2e.setup_peak_rss_mb"] = settleMemory()
	closedFor, openFor := phaseSplit(cfg)

	closed, err := saturate(h.loop(), closedFor)
	if err != nil {
		return nil, fmt.Errorf("engine_mix: saturation phase: %w", err)
	}
	var traced phase
	s0 := h.eng.Snapshot()
	s1 := s0
	if cfg.trace {
		h.trOn.Store(true)
		if traced, err = saturate(h.loop(), closedFor); err != nil {
			return nil, fmt.Errorf("engine_mix: traced saturation phase: %w", err)
		}
		s1 = h.eng.Snapshot()
		o.layer["dataplane.submit_ns_per_pkt"] = h.submit.nsPerPkt()
		o.layer["dataplane.publish_ns_per_update"] = h.publish.nsPerPkt()
	}
	open, err := fixedRate(h.loop(), openFor, mixOpenPPS, mixOpenGroup*mixBatch)
	if err != nil {
		return nil, fmt.Errorf("engine_mix: fixed-rate phase: %w", err)
	}
	h.trOn.Store(false)
	// The writer beside the traffic holds a P for a whole publish (about
	// 20 ms at 1024 entries) and the submitter gets it back at the
	// runtime's 10 ms preemption tick at the earliest: on two cores that
	// lateness is the system's, charged to the packets through their due
	// times, not a fault of the generator. The tolerance is one publish,
	// not one burst period.
	checkOpen(o, open, 20*time.Millisecond)
	s2 := h.eng.Snapshot()

	// Close drains the engine; totals are exact afterwards.
	closedOnce = true
	h.close()
	o.violations = append(o.violations, h.gate()...)
	o.attempted, o.correct = h.sent, h.good.Load()
	for c := mixMiss; c < numMixClasses; c++ {
		o.expectedDrops += h.dropped[c].Load()
	}
	if r := h.reason.Load(); r != nil {
		o.violations = append(o.violations, "egress: "+*r)
	}
	p50, p99, samples := open.lat.summary()
	setE2E(o, closed, p50, p99, samples, setups)
	o.notef("%d table publishes beside the traffic; generated per class %v", h.updates.Load(), h.gen.Count)
	if !cfg.trace {
		return o, nil
	}

	engineDeltas(s0, s1, traced.wall, o.layer)
	o.layer["dataplane.egress_flush_timer_share"] = flushTimerShare(s1, s2)
	o.layer["loadgen.late_p99_us"] = open.latePct99
	o.layer["loadgen.offered_pps"] = open.offeredPPS
	o.layer["trace.overhead_ratio"] = ratio(traced.opsRate, closed.opsRate)
	final := h.eng.Snapshot()
	for reason, name := range dropMetric {
		o.layer[name] = float64(final.DropsByReason[reason])
	}

	// Replays on the mix's own packets and table.
	gen := newMixGen(h.plan, cfg.seed)
	sample := make([]*packet.Packet, replaySample)
	for i := range sample {
		sample[i] = packet.New(0, 0, sendTTL, make([]byte, 64))
	}
	refill := func() {
		for _, p := range sample {
			gen.fill(p, 0)
		}
	}
	refill()
	replayClone(sample, o.layer)
	// The engine is closed; its last published table is still readable.
	replayForwarder(h.eng.TableSnapshot(), sample, refill, o.layer)
	keys := make([]label.Label, 0, 1024)
	for _, bs := range [][]mixBinding{h.plan.Swap, h.plan.Pop, h.plan.Push} {
		for _, b := range bs {
			keys = append(keys, b.In)
		}
	}
	replayInfobase(true, keys, o.layer)
	o.layer["dataplane.process_inline_ns_per_pkt"], _ = replay(len(sample), refill, func(i int) { h.eng.ProcessInline(sample[i]) })

	path, err := tr.write(cfg.outDir, wEngine, cfg.seed, o.layer, o.notes)
	if err != nil {
		return nil, err
	}
	o.notef("trace: %s", path)
	return o, nil
}

// ---- control_ring ----

func runControl(cfg runConfig) (*outcome, error) {
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	plan := makeRingPlan(cfg.seed)
	// Set-up is everything before the first timed round: the plan plus
	// warm-up rounds that bring heap and caches to steady state. Each
	// repetition is three full rounds on fresh rings — one round is some
	// 30 ms in which the collector's phase alone moves the time by a
	// third.
	var first *ringRound
	setups, err := timeSetups(func() error {
		for k := 0; k < 3; k++ {
			r, err := runRing(plan, nil, 0)
			if err != nil {
				return err
			}
			if first == nil {
				first = r
			}
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("control_ring: set-up: %w", err)
	}

	o := &outcome{layer: map[string]float64{}}
	o.layer["e2e.setup_peak_rss_mb"] = settleMemory()
	var rates, tracedRates, hostUs []float64
	var ops int64
	var cspf seamTotal
	var last *ringRound
	m := startMeter()
	begin := time.Now()
	total := time.Duration(cfg.seconds) * time.Second
	for round := uint64(1); time.Since(begin) < total; round++ {
		// A traced run spends its second half with the tracer on.
		roundTr := tr
		if time.Since(begin) < total/2 {
			roundTr = nil
		}
		r, err := runRing(plan, roundTr, round)
		if err != nil {
			return nil, err
		}
		if want := first.simFigures(); r.simFigures() != want || cfg.breakGate {
			o.violations = append(o.violations, fmt.Sprintf("round %d simulated figures differ: %s, first round %s", round, r.simFigures(), want))
			break
		}
		if roundTr != nil {
			tracedRates = append(tracedRates, float64(r.ops)/r.host.Seconds())
		} else {
			rates = append(rates, float64(r.ops)/r.host.Seconds())
		}
		hostUs = append(hostUs, float64(r.host.Microseconds())/float64(r.ops))
		ops += int64(r.ops)
		cspf.add(r.cspf.ns.Load(), int(r.cspf.pkts.Load()))
		last = r
	}
	mt := m.stop()
	if last == nil {
		last = first
	}
	o.attempted, o.correct = ops, ops // a round that falls short returns an error above
	setup := sortedCopy(last.setupUs)
	o.e2e = map[string]float64{
		"ops_per_s":     median(rates),
		"lat_p50_us":    percentile(setup, 0.50),
		"cpu_us_per_op": ratio(float64(mt.cpu.Nanoseconds())/1e3, float64(ops)),
		"allocs_per_op": ratio(float64(mt.mallocs), float64(ops)),
		"peak_rss_mb":   peakRSSMiB(),
		"setup_s":       median(setups),
	}
	o.layer["e2e.lat_p99_us"] = percentile(setup, 0.99)
	o.latSamples = len(setup)
	o.notef("%d rounds, %d LSPs established and %d rerouted per round; latencies are simulated time (Setup -> established, %d samples), identical in every round",
		len(rates)+len(tracedRates), plan.Nodes*plan.PerNode, last.reroutes, len(setup))
	o.notef("simulated: %s", last.simFigures())
	if !cfg.trace {
		return o, nil
	}

	o.layer["signaling.msgs_per_lsp"] = ratio(float64(last.msgs), float64(last.ops))
	o.layer["signaling.failover_sim_ms"] = last.failoverMs
	o.layer["signaling.sessions_up_sim_ms"] = last.sessionsUpMs
	o.layer["signaling.host_us_per_lsp"] = median(hostUs)
	o.layer["te.cspf_ns_per_path"] = cspf.nsPerPkt()
	o.layer["trace.overhead_ratio"] = ratio(median(tracedRates), median(rates))
	o.layer["signaling.codec_ns_per_msg"] = replaySignalingCodec(plan)

	path, err := tr.write(cfg.outDir, wControl, cfg.seed, o.layer, o.notes)
	if err != nil {
		return nil, err
	}
	o.notef("trace: %s", path)
	return o, nil
}

// replaySignalingCodec measures encode+decode of the message the
// workload sends most: a label request carrying a 17-node explicit
// route.
func replaySignalingCodec(plan *ringPlan) float64 {
	msgs := make([]signaling.Message, 64)
	for i := range msgs {
		m := &msgs[i]
		m.Type = signaling.MsgLabelRequest
		m.SetID(lspID(i%plan.Nodes, i%plan.PerNode) + "#1")
		for hop := 0; hop <= plan.Nodes/2; hop++ {
			m.Route = append(m.Route, transport.NodeID((i+hop)%plan.Nodes))
		}
	}
	buf := make([]byte, 0, 1024)
	var into signaling.Message
	ns, _ := replay(len(msgs), nil, func(i int) {
		enc, err := signaling.AppendMessage(buf[:0], &msgs[i])
		if err == nil {
			_ = signaling.DecodeMessage(&into, enc)
		}
	})
	return ns
}

// ---- lsm_rtl ----

func runLSM(cfg runConfig) (*outcome, error) {
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	var h *lsmHarness
	setups, err := timeSetups(func() (err error) {
		if h, err = buildLSM(cfg.seed, tr, cfg.breakGate); err != nil {
			return err
		}
		// Fixed warm-up work: 200 packets through all four models.
		for k := 0; k < 200 && err == nil; k++ {
			_, err = h.one()
		}
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("lsm_rtl: set-up: %w", err)
	}
	o := &outcome{layer: map[string]float64{}}
	o.layer["e2e.setup_peak_rss_mb"] = settleMemory()
	h.rtlCycles, h.searchCycles, h.rtlHost, h.simCycles = 0, 0, 0, h.simCycles[:0]
	total := time.Duration(cfg.seconds) * time.Second
	if cfg.trace {
		total /= 2 // untraced half, then traced half
	}
	ph, err := h.run(total)
	if err != nil {
		return nil, err
	}
	var traced phase
	if cfg.trace {
		h.traced = true
		if traced, err = h.run(total); err != nil {
			return nil, err
		}
	}
	o.violations = h.gate()
	o.attempted, o.correct, o.expectedDrops = h.attempted, h.correct, h.discards
	p50, p99, samples := ph.lat.summary()
	setE2E(o, ph, p50, p99, samples, setups)
	o.notef("latencies are host time of one PktProc.Process call; the simulated figures (cycles at 50 MHz) are per-layer metrics and are pinned exactly by the gate")

	cyc := make([]float64, len(h.simCycles))
	for i, c := range h.simCycles {
		cyc[i] = float64(c)
	}
	sort.Float64s(cyc)
	usPerCycle := 1e6 / 50e6
	simP50, simP99 := percentile(cyc, 0.5)*usPerCycle, percentile(cyc, 0.99)*usPerCycle
	o.notef("simulated at 50 MHz: p50 %.2f us, p99 %.2f us, mean %.1f cycles/packet; Table 6, 3n+5 and the 6167-cycle worst case reproduced at set-up",
		simP50, simP99, ratio(float64(h.rtlCycles), float64(len(cyc))))
	if !cfg.trace {
		return o, nil
	}

	o.layer["lsm.sim_cycles_per_host_s"] = ratio(float64(h.rtlCycles), h.rtlHost.Seconds())
	o.layer["lsm.cycles_per_pkt_mean"] = ratio(float64(h.rtlCycles), float64(len(cyc)))
	o.layer["lsm.search_cycle_share"] = ratio(float64(h.searchCycles), float64(h.rtlCycles))
	o.layer["lsm.sim_lat_p50_us"] = simP50
	o.layer["lsm.sim_lat_p99_us"] = simP99
	o.layer["lsm.behavioral_ns_per_update"] = h.behSeam.nsPerPkt()
	o.layer["lsm.model_mismatch_total"] = float64(h.mismatch)
	o.layer["device.process_ns_per_pkt"] = h.devSeam.nsPerPkt()
	o.layer["swmpls.forward_ns_per_pkt"] = h.fwdSeam.nsPerPkt()
	o.layer["swmpls.drop_lookup_miss_total"] = float64(h.wantMiss)
	o.layer["trace.overhead_ratio"] = ratio(traced.opsRate, ph.opsRate)
	keys := make([]label.Label, len(h.plan.ILM))
	for i, p := range h.plan.ILM {
		keys[i] = label.Label(p.Index)
	}
	replayInfobase(false, keys, o.layer)

	path, err := tr.write(cfg.outDir, wLSM, cfg.seed, o.layer, o.notes)
	if err != nil {
		return nil, err
	}
	o.notef("trace: %s", path)
	return o, nil
}
