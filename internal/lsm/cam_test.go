package lsm

import (
	"math/rand"
	"testing"

	"embeddedmpls/internal/infobase"
	"embeddedmpls/internal/label"
	"embeddedmpls/internal/rtl"
)

// TestCAMLookupConstantTime pins the associative ablation's headline
// property: lookup cost is CyclesSearchCAM regardless of table size or
// key position.
func TestCAMLookupConstantTime(t *testing.T) {
	b := NewBenchWith(LSR, Options{Search: SearchCAM})
	for _, n := range []int{1, 10, 100, 500} {
		for b.HW.Sim.Lookup("ib_wcnt_2").Get() < uint64(n) {
			i := b.HW.Sim.Lookup("ib_wcnt_2").Get()
			if _, err := b.WritePair(infobase.Level2, infobase.Pair{Index: infobase.Key(i + 1), NewLabel: label.Label(500 + i), Op: label.OpSwap}); err != nil {
				t.Fatal(err)
			}
		}
		// First entry, last entry and a miss all cost the same.
		for _, key := range []infobase.Key{1, infobase.Key(n), 99999} {
			res, cycles, err := b.Lookup(infobase.Level2, key)
			if err != nil {
				t.Fatal(err)
			}
			if cycles != CyclesSearchCAM {
				t.Errorf("n=%d key=%d: %d cycles, want constant %d", n, key, cycles, CyclesSearchCAM)
			}
			wantFound := key != 99999
			if res.Found != wantFound {
				t.Errorf("n=%d key=%d: found=%v", n, key, res.Found)
			}
		}
	}
}

// TestCAMBankMatchFollowsItsContents pins the dependency the match logic
// has on the bank's stored words: with the key and the entry count held
// still, a write that makes the key present — and a clear that removes
// it — must still move hit and addr. Nothing but the bank's generation
// signal tells the match process that the contents changed.
func TestCAMBankMatchFollowsItsContents(t *testing.T) {
	sim := rtl.New()
	wen := sim.Signal("wen", 1)
	waddr := sim.Signal("waddr", indexBits)
	wdata := sim.Signal("wdata", 20)
	clr := sim.Signal("clr", 1)
	key := sim.Signal("key", 20)
	count := sim.Signal("count", indexBits)
	c := newCAMBank(sim, "cam", 16, wen, waddr, wdata, clr, key, count)
	count.Set(16)
	key.Set(42)
	sim.Step()
	if c.hit.Bool() {
		t.Fatal("hit on an empty bank")
	}
	waddr.Set(5)
	wdata.Set(42)
	wen.SetBool(true)
	sim.Step()
	wen.SetBool(false)
	if !c.hit.Bool() || c.addr.Get() != 5 {
		t.Fatalf("straight after writing the key at 5: hit=%v addr=%d", c.hit.Bool(), c.addr.Get())
	}
	clr.SetBool(true)
	sim.Step()
	clr.SetBool(false)
	if c.hit.Bool() {
		t.Error("hit survives a clear")
	}
}

// TestCAMLookupStraightAfterWrite is the same at the command port: a
// lookup issued on the edge after a write completes finds the pair.
func TestCAMLookupStraightAfterWrite(t *testing.T) {
	b := NewBenchWith(LSR, Options{Search: SearchCAM})
	for i := 0; i < 5; i++ {
		key := infobase.Key(300 + i)
		if _, err := b.WritePair(infobase.Level2, infobase.Pair{Index: key, NewLabel: label.Label(i + 1), Op: label.OpSwap}); err != nil {
			t.Fatal(err)
		}
		res, cycles, err := b.Lookup(infobase.Level2, key)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Found || res.SearchPos != i+1 || res.Label != label.Label(i+1) || cycles != CyclesSearchCAM {
			t.Errorf("lookup of %d straight after its write: %+v in %d cycles", key, res, cycles)
		}
	}
}

// TestCAMLookupCorrectValues checks the CAM returns the same answers as
// the linear design, including first-match-wins on duplicates.
func TestCAMLookupCorrectValues(t *testing.T) {
	cam := NewBenchWith(LER, Options{Search: SearchCAM})
	lin := NewBench(LER)
	rng := rand.New(rand.NewSource(13))
	type write struct {
		lv infobase.Level
		p  infobase.Pair
	}
	var writes []write
	for i := 0; i < 60; i++ {
		w := write{
			lv: infobase.Level(1 + rng.Intn(3)),
			p: infobase.Pair{
				Index:    infobase.Key(rng.Intn(40)), // force duplicates
				NewLabel: label.Label(1000 + i),
				Op:       label.Op(1 + rng.Intn(3)),
			},
		}
		writes = append(writes, w)
		if _, err := cam.WritePair(w.lv, w.p); err != nil {
			t.Fatal(err)
		}
		if _, err := lin.WritePair(w.lv, w.p); err != nil {
			t.Fatal(err)
		}
	}
	for trial := 0; trial < 300; trial++ {
		lv := infobase.Level(1 + rng.Intn(3))
		key := infobase.Key(rng.Intn(50))
		rc, _, err := cam.Lookup(lv, key)
		if err != nil {
			t.Fatal(err)
		}
		rl, _, err := lin.Lookup(lv, key)
		if err != nil {
			t.Fatal(err)
		}
		if rc.Found != rl.Found || rc.Label != rl.Label || rc.Op != rl.Op {
			t.Fatalf("trial %d (lv %d key %d): cam=%+v linear=%+v", trial, lv, key, rc, rl)
		}
		if rc.Found && rc.SearchPos != rl.SearchPos {
			t.Fatalf("trial %d: hit position differs: cam=%d linear=%d (first match must win)",
				trial, rc.SearchPos, rl.SearchPos)
		}
	}
}

// TestCAMUpdateSwap runs the full update path on the CAM variant: same
// stack transformation as the paper's design, constant search component.
func TestCAMUpdateSwap(t *testing.T) {
	b := NewBenchWith(LSR, Options{Search: SearchCAM})
	for i := 0; i < 200; i++ {
		if _, err := b.WritePair(infobase.Level2, infobase.Pair{Index: infobase.Key(1000 + i), NewLabel: 1, Op: label.OpSwap}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := b.WritePair(infobase.Level2, infobase.Pair{Index: 42, NewLabel: 777, Op: label.OpSwap}); err != nil {
		t.Fatal(err)
	}
	if _, err := b.UserPush(label.Entry{Label: 42, CoS: 3, TTL: 64}); err != nil {
		t.Fatal(err)
	}
	res, cycles, err := b.Update(UpdateRequest{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Discarded() || res.NewLabel != 777 {
		t.Fatalf("result = %+v", res)
	}
	if want := CyclesSearchCAM + CyclesSwapFromIB; cycles != want {
		t.Errorf("CAM swap update: %d cycles, want %d (constant despite 201 entries)", cycles, want)
	}
	top, _ := b.StackSnapshot().Top()
	if top.Label != 777 || top.TTL != 63 || top.CoS != 3 {
		t.Errorf("top = %v", top)
	}
}

// TestCAMResetInvalidates checks that the 3-cycle reset also clears the
// associative banks (a stale CAM hit after reset would resurrect dead
// LSPs).
func TestCAMResetInvalidates(t *testing.T) {
	b := NewBenchWith(LER, Options{Search: SearchCAM})
	if _, err := b.WritePair(infobase.Level2, infobase.Pair{Index: 5, NewLabel: 6, Op: label.OpSwap}); err != nil {
		t.Fatal(err)
	}
	if _, err := b.ResetOp(); err != nil {
		t.Fatal(err)
	}
	res, cycles, err := b.Lookup(infobase.Level2, 5)
	if err != nil {
		t.Fatal(err)
	}
	if res.Found {
		t.Error("CAM hit survived reset")
	}
	if cycles != CyclesSearchCAM {
		t.Errorf("post-reset lookup = %d cycles", cycles)
	}
}

// TestCAMMatchesBehavioralRandomOps reuses the equivalence harness
// against the CAM-configured hardware: the functional semantics must be
// identical to the paper's design, only the timing differs.
func TestCAMMatchesBehavioralRandomOps(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	hw := NewBenchWith(LSR, Options{Search: SearchCAM})
	sw := NewBehavioral(LSR)
	for i := 0; i < 250; i++ {
		switch rng.Intn(6) {
		case 0, 1: // write pair (distinct keys so positions align)
			lv := infobase.Level(1 + rng.Intn(3))
			if sw.InfoBase().Count(lv) >= 48 {
				continue
			}
			p := infobase.Pair{
				Index:    infobase.Key(rng.Intn(1 << 16)),
				NewLabel: label.Label(rng.Intn(1 << 20)),
				Op:       label.Op(rng.Intn(4)),
			}
			if err := sw.WritePair(lv, p); err != nil {
				t.Fatal(err)
			}
			if _, err := hw.WritePair(lv, p); err != nil {
				t.Fatal(err)
			}
		case 2: // user push
			if sw.Stack().Depth() >= label.MaxDepth {
				continue
			}
			e := label.Entry{Label: label.Label(rng.Intn(1 << 20)), TTL: uint8(1 + rng.Intn(255))}
			if err := sw.UserPush(e); err != nil {
				t.Fatal(err)
			}
			if _, err := hw.UserPush(e); err != nil {
				t.Fatal(err)
			}
		default: // update
			req := UpdateRequest{PacketID: uint32(rng.Intn(1 << 16)), TTLIn: uint8(1 + rng.Intn(255))}
			want := sw.Update(req)
			got, cycles, err := hw.Update(req)
			if err != nil {
				t.Fatal(err)
			}
			if got.Discard != want.Discard {
				t.Fatalf("step %d: discard hw=%v sw=%v", i, got.Discard, want.Discard)
			}
			if !want.Discarded() && (got.Op != want.Op || got.NewLabel != want.NewLabel) {
				t.Fatalf("step %d: op mismatch hw=%+v sw=%+v", i, got, want)
			}
			// Constant search component under CAM.
			wantCycles := UpdateCycles(want) - SearchCycles(want.SearchPos) + CyclesSearchCAM
			if cycles != wantCycles {
				t.Fatalf("step %d: cycles=%d want=%d (result %+v)", i, cycles, wantCycles, want)
			}
		}
		if !hw.StackSnapshot().Equal(sw.Stack()) {
			t.Fatalf("step %d: stack divergence hw=%v sw=%v", i, hw.StackSnapshot(), sw.Stack())
		}
	}
}
