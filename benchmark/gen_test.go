package main

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"embeddedmpls/internal/packet"
	"embeddedmpls/internal/transport"
)

// wireSchedule renders the first bursts of a wire workload exactly as
// they would cross the wire: sender index plus every packet's encoding.
func wireSchedule(t *testing.T, plan func(int64) *wirePlan, seed int64, bursts int) []byte {
	t.Helper()
	g := newWireGen(plan(seed), seed, wireSenders)
	ps := g.newBurst()
	var out []byte
	for k := 0; k < bursts; k++ {
		out = append(out, byte(g.next(ps, uint64(k), int64(k)*1000)))
		for _, p := range ps {
			var err error
			if out, err = transport.AppendPacket(out, p, 0); err != nil {
				t.Fatal(err)
			}
		}
	}
	return out
}

// TestSameSeedSameSchedule: the seed is the only source of randomness —
// same seed, byte-identical packet schedule; another seed, another one.
func TestSameSeedSameSchedule(t *testing.T) {
	for name, plan := range map[string]func(int64) *wirePlan{wTransit: transitPlan, wEdge: edgePlan} {
		a, b := wireSchedule(t, plan, 7, 8), wireSchedule(t, plan, 7, 8)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: same seed gave different schedules", name)
		}
		if bytes.Equal(a, wireSchedule(t, plan, 8, 8)) {
			t.Errorf("%s: different seeds gave the same schedule", name)
		}
	}
}

func mixSchedule(seed int64, n int) ([]byte, [numMixClasses]int64) {
	plan := makeMixPlan(seed)
	g := newMixGen(plan, seed)
	p := packet.New(0, 0, sendTTL, make([]byte, 64))
	var out []byte
	for i := 0; i < n; i++ {
		e := g.fill(p, 0)
		out, _ = transport.AppendPacket(out, p, 0)
		out = fmt.Appendf(out, "|%+v\n", e)
	}
	return out, g.Count
}

func TestSameSeedSameMix(t *testing.T) {
	a, ca := mixSchedule(3, 20000)
	b, cb := mixSchedule(3, 20000)
	if !bytes.Equal(a, b) || ca != cb {
		t.Error("same seed gave a different mix")
	}
	if c, _ := mixSchedule(4, 20000); bytes.Equal(a, c) {
		t.Error("different seeds gave the same mix")
	}
	// The mix is the declared one: 60/15/10/10 and the 5% of discards
	// split three ways, within sampling error.
	want := [numMixClasses]float64{mixSwap1: 0.60, mixPop2: 0.15, mixSwap3: 0.10, mixPush0: 0.10, mixMiss: 0.05 / 3, mixTTL: 0.05 / 3, mixInconsistent: 0.05 / 3}
	for c, w := range want {
		if got := float64(ca[c]) / 20000; got < w-0.015 || got > w+0.015 {
			t.Errorf("class %d: share %.3f, want %.3f", c, got, w)
		}
	}
}

func TestSameSeedSamePlans(t *testing.T) {
	if !reflect.DeepEqual(makeLSMPlan(5), makeLSMPlan(5)) || reflect.DeepEqual(makeLSMPlan(5), makeLSMPlan(6)) {
		t.Error("lsm plan is not a function of the seed alone")
	}
	if !reflect.DeepEqual(makeRingPlan(5), makeRingPlan(5)) || reflect.DeepEqual(makeRingPlan(5), makeRingPlan(6)) {
		t.Error("ring plan is not a function of the seed alone")
	}
	g1, g2 := newLSMGen(makeLSMPlan(5), 5), newLSMGen(makeLSMPlan(5), 5)
	for i := 0; i < 5000; i++ {
		if a, b := g1.next(), g2.next(); !reflect.DeepEqual(a, b) {
			t.Fatalf("lsm packet %d differs: %+v vs %+v", i, a, b)
		}
	}
}

// TestEdgePlanAgreesWithReferenceLPM: every destination's expected
// label is what a plain longest-prefix scan gives, nested prefixes
// included, and some destinations do fall into a more-specific.
func TestEdgePlanAgreesWithReferenceLPM(t *testing.T) {
	p := edgePlan(1)
	if len(p.Dst) != 4096 || len(p.Prefixes) != 64 {
		t.Fatalf("%d destinations under %d prefixes", len(p.Dst), len(p.Prefixes))
	}
	nested := 0
	for i, d := range p.Dst {
		best, ok := lpm(p.Prefixes, d)
		if !ok || best.Label != p.Out[i] {
			t.Fatalf("destination %v: expected label %d, reference LPM %d", d, p.Out[i], best.Label)
		}
		for _, pf := range p.Prefixes {
			if pf.contains(d) && pf.Len < best.Len {
				nested++
				break
			}
		}
	}
	if nested == 0 {
		t.Error("no destination has a choice of prefixes: LPM is not exercised")
	}
}

// TestRingRound plays one control_ring round and checks it is
// deterministic — the workload's own gate, at unit-test size.
func TestRingRound(t *testing.T) {
	plan := makeRingPlan(2)
	a, err := runRing(plan, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := runRing(plan, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	if a.simFigures() != b.simFigures() {
		t.Errorf("two rounds of one plan differ:\n%s\n%s", a.simFigures(), b.simFigures())
	}
	if a.ops != plan.Nodes*plan.PerNode+a.reroutes || a.reroutes == 0 {
		t.Errorf("ops %d, reroutes %d", a.ops, a.reroutes)
	}
}

// TestTable6 reproduces the paper's Table 6, 3n+5 and the 6167-cycle
// worst case on the RTL — the set-up gate of lsm_rtl.
func TestTable6(t *testing.T) {
	if err := table6(); err != nil {
		t.Fatal(err)
	}
}

// TestLSMModelsAgree runs a few hundred generated packets through RTL,
// cost model, device and swmpls; the harness counts any disagreement.
func TestLSMModelsAgree(t *testing.T) {
	h, err := buildLSM(9, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 150; i++ {
		if _, err := h.one(); err != nil {
			t.Fatal(err)
		}
	}
	if v := h.gate(); len(v) > 0 {
		t.Fatal(v)
	}
}
