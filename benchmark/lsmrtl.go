package main

import (
	"fmt"
	"time"

	"embeddedmpls/internal/device"
	"embeddedmpls/internal/infobase"
	"embeddedmpls/internal/label"
	"embeddedmpls/internal/lsm"
	"embeddedmpls/internal/packet"
	"embeddedmpls/internal/swmpls"
	"embeddedmpls/internal/telemetry"
)

// lsm_rtl runs the paper's own contribution: the cycle-accurate label
// stack modifier behind its hardware packet interfaces (lsm.PktProc),
// every information base level filled to 1024 entries. Each generated
// packet also goes through the behavioral model with the cycle cost
// model, the device and the software forwarder; the four must agree on
// the outgoing stack and the discard, and the RTL's cycle count must
// equal the cost model's. A single goroutine does everything.

// Per packet the RTL interfaces add to the update itself: one cycle to
// latch start, three per entry loaded, one hand-off cycle when the
// update completes, and three per entry unloaded (none for a discarded
// packet, whose stack was reset).
func pktProcFraming(in, out int) int {
	return 1 + lsm.CyclesUserPush*in + 1 + lsm.CyclesUserPop*out
}

type lsmHarness struct {
	plan      *lsmPlan
	gen       *lsmGen
	pp        *lsm.PktProc
	beh       *lsm.Behavioral
	dev       *device.Device
	fwd       *swmpls.Forwarder
	fwdDrops  telemetry.DropCounters
	breakGate bool

	attempted, correct, discards int64
	mismatch                     int64
	reason                       string
	wantMiss                     int64

	// running totals
	rtlCycles, searchCycles int64
	rtlHost                 time.Duration
	simCycles               []int32

	// traced seams: timers around the three reference models, and for
	// one packet in sampleEvery a span per model under a packet span.
	tr                        *tracer
	traced                    bool
	behSeam, devSeam, fwdSeam seamTotal
}

func (h *lsmHarness) fail(format string, args ...any) {
	h.mismatch++
	if h.reason == "" {
		h.reason = fmt.Sprintf(format, args...)
	}
}

// table6 reproduces the paper's evaluation on a fresh modifier: every
// Table 6 row, the 3n+5 search law and the 6167-cycle worst case. Any
// difference is a set-up failure — nothing measured afterwards would
// mean what the paper's numbers mean.
func table6() error {
	b := lsm.NewBench(lsm.LSR)
	check := func(what string, want, got int, err error) error {
		if err != nil {
			return fmt.Errorf("table 6: %s: %w", what, err)
		}
		if got != want {
			return fmt.Errorf("table 6: %s took %d cycles, paper says %d", what, got, want)
		}
		return nil
	}
	// The paper's worst case, run for real: reset, three user pushes, a
	// full level of writes, a swap whose search scans all of it.
	total := 0
	c, err := b.ResetOp()
	if err := check("reset", lsm.CyclesReset, c, err); err != nil {
		return err
	}
	total += c
	for i := 0; i < label.MaxDepth; i++ {
		c, err = b.UserPush(label.Entry{Label: label.Label(100 + i), TTL: sendTTL})
		if err := check("push from the user", lsm.CyclesUserPush, c, err); err != nil {
			return err
		}
		total += c
	}
	n := infobase.EntriesPerLevel
	// keyAt is the index stored at 1-based position pos; the top entry
	// (102) matches only the last pair written.
	keyAt := func(pos int) infobase.Key {
		if pos == n {
			return 102
		}
		return infobase.Key(5000 + pos)
	}
	for pos := 1; pos <= n; pos++ {
		c, err = b.WritePair(infobase.Level3, infobase.Pair{Index: keyAt(pos), NewLabel: 9, Op: label.OpSwap})
		if err := check("write label pair", lsm.CyclesWritePair, c, err); err != nil {
			return err
		}
		total += c
	}
	for _, pos := range []int{1, 10, 100, n} {
		_, c, err = b.Lookup(infobase.Level3, keyAt(pos))
		if err := check(fmt.Sprintf("search at position %d (3n+5)", pos), 3*pos+5, c, err); err != nil {
			return err
		}
	}
	res, c, err := b.Update(lsm.UpdateRequest{})
	if err := check("update with full-level search", lsm.SearchCycles(n)+lsm.CyclesSwapFromIB, c, err); err != nil {
		return err
	}
	if res.Discarded() || res.SearchPos != n {
		return fmt.Errorf("table 6: worst-case swap: %+v", res)
	}
	total += c
	if total != 6167 || total != lsm.WorstCaseScenarioCycles(n) {
		return fmt.Errorf("worst case took %d cycles, paper says 6167 (model %d)", total, lsm.WorstCaseScenarioCycles(n))
	}
	_, c, err = b.UserPop()
	return check("pop from the user", lsm.CyclesUserPop, c, err)
}

func buildLSM(seed int64, tr *tracer, breakGate bool) (*lsmHarness, error) {
	if err := table6(); err != nil {
		return nil, err
	}
	plan := makeLSMPlan(seed)
	h := &lsmHarness{
		plan: plan, gen: newLSMGen(plan, seed), tr: tr, breakGate: breakGate,
		pp:  lsm.NewPktProc(lsm.LER, lsm.Options{}),
		beh: lsm.NewBehavioral(lsm.LER),
		dev: device.New(lsm.LER, lsm.DefaultClock),
		fwd: swmpls.New(swmpls.WithILM(swmpls.ILMLinear)),
	}
	h.fwd.SetDropCounters(&h.fwdDrops)
	bench := h.pp.Bench()
	write := func(lv infobase.Level, p infobase.Pair) error {
		if _, err := bench.WritePair(lv, p); err != nil {
			return err
		}
		return h.beh.WritePair(lv, p)
	}
	for _, p := range plan.FEC {
		n := swmpls.NHLFE{NextHop: "n", Op: label.OpPush, PushLabels: []label.Label{p.NewLabel}}
		if err := write(infobase.Level1, p); err != nil {
			return nil, err
		}
		if err := h.dev.InstallFEC(packet.Addr(p.Index), 32, n); err != nil {
			return nil, err
		}
		if err := h.fwd.InstallFEC(packet.Addr(p.Index), 32, n); err != nil {
			return nil, err
		}
	}
	for _, p := range plan.ILM {
		n := swmpls.NHLFE{NextHop: "n", Op: p.Op}
		if p.Op == label.OpSwap {
			n.PushLabels = []label.Label{p.NewLabel}
		}
		// The device writes every binding to levels 2 and 3; the RTL and
		// the behavioral model get the same pairs in the same order, so
		// all search positions agree.
		if err := write(infobase.Level2, p); err != nil {
			return nil, err
		}
		if err := write(infobase.Level3, p); err != nil {
			return nil, err
		}
		if err := h.dev.InstallILM(label.Label(p.Index), n); err != nil {
			return nil, err
		}
		if err := h.fwd.InstallILM(label.Label(p.Index), n); err != nil {
			return nil, err
		}
	}
	return h, nil
}

func (h *lsmHarness) asPacket(pk lsmPacket) *packet.Packet {
	p := packet.New(packet.AddrFrom(192, 0, 2, 1), packet.Addr(pk.PacketID), sendTTL, nil)
	for _, e := range pk.Stack {
		_ = p.Stack.Push(e) // at most two entries
	}
	return p
}

// one runs the next generated packet through all four models and
// checks them against each other. It returns the RTL call's host time.
func (h *lsmHarness) one() (time.Duration, error) {
	pk := h.gen.next()
	h.attempted++
	if pk.Kind == lsmMiss {
		h.wantMiss++
	}
	in := len(pk.Stack)

	t0 := time.Now()
	out, discarded, cycles, err := h.pp.Process(pk.Stack, pk.PacketID, sendTTL, 0)
	host := time.Since(t0)
	if err != nil {
		return host, fmt.Errorf("lsm_rtl: RTL packet processor: %w", err)
	}
	h.rtlHost += host
	h.rtlCycles += int64(cycles)
	h.simCycles = append(h.simCycles, int32(cycles))

	// Behavioral model + cycle cost model.
	var b0 time.Time
	if h.traced {
		b0 = time.Now()
	}
	h.beh.Reset()
	for _, e := range pk.Stack {
		_ = h.beh.UserPush(e)
	}
	res := h.beh.Update(lsm.UpdateRequest{PacketID: pk.PacketID, TTLIn: sendTTL})
	var b1 time.Time
	if h.traced {
		b1 = time.Now()
		h.behSeam.add(b1.Sub(b0).Nanoseconds(), 1)
	}
	model := lsm.UpdateCycles(res)
	h.searchCycles += int64(lsm.SearchCycles(res.SearchPos))

	// Device and software forwarder.
	dp, sp := h.asPacket(pk), h.asPacket(pk)
	var d0 time.Time
	if h.traced {
		d0 = time.Now()
	}
	dres, dcycles := h.dev.Process(dp)
	var d1 time.Time
	if h.traced {
		d1 = time.Now()
		h.devSeam.add(d1.Sub(d0).Nanoseconds(), 1)
	}
	sres := h.fwd.Forward(sp)
	if h.traced {
		d2 := time.Now()
		h.fwdSeam.add(d2.Sub(d1).Nanoseconds(), 1)
		if op := uint64(h.attempted); sampled(op) {
			id := h.tr.begin("lsm_rtl.packet", "", op, h.tr.at(t0))
			h.tr.record("lsm.pktproc", "lsm_rtl.packet", op, h.tr.at(t0), h.tr.at(t0.Add(host)))
			h.tr.record("lsm.behavioral", "lsm_rtl.packet", op, h.tr.at(b0), h.tr.at(b1))
			h.tr.record("device.process", "lsm_rtl.packet", op, h.tr.at(d0), h.tr.at(d1))
			h.tr.record("swmpls.forward", "lsm_rtl.packet", op, h.tr.at(d1), h.tr.at(d2))
			h.tr.end(id, h.tr.at(d2))
		}
	}

	wantCycles := pktProcFraming(in, out.Depth()) + model
	if h.breakGate {
		wantCycles++
	}
	ok := true
	switch {
	case cycles != wantCycles:
		ok = false
		h.fail("packet %d (kind %d): RTL took %d cycles, cost model says %d (update %d)", h.attempted, pk.Kind, cycles, wantCycles, model)
	case dcycles != lsm.CyclesUserPush*in+model:
		ok = false
		h.fail("packet %d: device charged %d cycles, cost model says %d", h.attempted, dcycles, lsm.CyclesUserPush*in+model)
	case discarded != res.Discarded() || discarded != (dres.Action == swmpls.Drop) || discarded != (sres.Action == swmpls.Drop):
		ok = false
		h.fail("packet %d: discard disagrees: rtl=%v model=%v device=%v swmpls=%v", h.attempted, discarded, res.Discarded(), dres.Action, sres.Action)
	case discarded && (dres.Drop != res.Discard.Drop() || sres.Drop != dres.Drop):
		ok = false
		h.fail("packet %d: discard reason disagrees: model=%v device=%v swmpls=%v", h.attempted, res.Discard, dres.Drop, sres.Drop)
	case !discarded && !(out.Equal(h.beh.Stack()) && out.Equal(dp.Stack) && out.Equal(sp.Stack)):
		ok = false
		h.fail("packet %d: stacks disagree: rtl=%v model=%v device=%v swmpls=%v", h.attempted, out, h.beh.Stack(), dp.Stack, sp.Stack)
	case !discarded && (dres.NextHop != sres.NextHop || dres.Op != sres.Op):
		ok = false
		h.fail("packet %d: device %v/%v, swmpls %v/%v", h.attempted, dres.NextHop, dres.Op, sres.NextHop, sres.Op)
	case discarded != (pk.Kind == lsmMiss):
		ok = false
		h.fail("packet %d (kind %d): discarded=%v", h.attempted, pk.Kind, discarded)
	}
	if ok {
		if discarded {
			h.discards++
		} else {
			h.correct++
		}
	}
	return host, nil
}

// run processes packets for d. The latency of a packet is the host
// time of its RTL call, filed under the second it ran in.
func (h *lsmHarness) run(d time.Duration) (phase, error) {
	t0 := time.Now()
	lat := newLatWindows(0, int((d+time.Second-1)/time.Second), 1<<16)
	ph, err := saturate(loop{
		done: func() int64 { return h.correct + h.discards },
		offer: func(int64) error {
			at := time.Since(t0)
			host, err := h.one()
			lat.add(int64(at), host.Nanoseconds())
			return err
		},
		settle: func() error { return nil },
	}, d)
	ph.lat = lat
	return ph, err
}

func (h *lsmHarness) gate() (violations []string) {
	if h.mismatch > 0 {
		violations = append(violations, fmt.Sprintf("%d packets where RTL, cost model, device and swmpls disagree; first: %s", h.mismatch, h.reason))
	}
	if got := int64(h.fwdDrops.Get(telemetry.ReasonLookupMiss)); got != h.wantMiss {
		violations = append(violations, fmt.Sprintf("swmpls counted %d lookup misses, generator made %d", got, h.wantMiss))
	}
	if h.discards != h.wantMiss {
		violations = append(violations, fmt.Sprintf("%d verified discards, generator made %d misses", h.discards, h.wantMiss))
	}
	return violations
}
