package lsm

import (
	"testing"
	"testing/quick"

	"embeddedmpls/internal/label"
	"embeddedmpls/internal/rtl"
)

type stackBench struct {
	sim                 *rtl.Simulator
	clr, push, pop, set *rtl.Signal
	din, ttl            *rtl.Signal
	sf                  *StackFile
}

func newStackBench() *stackBench {
	sim := rtl.New()
	b := &stackBench{
		sim:  sim,
		clr:  sim.Signal("clr", 1),
		push: sim.Signal("push", 1),
		pop:  sim.Signal("pop", 1),
		set:  sim.Signal("set", 1),
		din:  sim.Signal("din", 32),
		ttl:  sim.Signal("ttl", 8),
	}
	b.sf = NewStackFile(sim, "s_", b.clr, b.push, b.pop, b.set, b.din, b.ttl)
	return b
}

func (b *stackBench) pushEntry(e label.Entry) {
	b.din.Set(uint64(e.MustPack()))
	b.push.SetBool(true)
	b.sim.Step()
	b.push.SetBool(false)
}

func TestStackFilePushPopBottomBit(t *testing.T) {
	b := newStackBench()
	b.pushEntry(label.Entry{Label: 1, TTL: 9, Bottom: false}) // S forced on
	b.pushEntry(label.Entry{Label: 2, TTL: 9, Bottom: true})  // S forced off
	if b.sf.Size.Get() != 2 {
		t.Fatalf("size = %d, want 2", b.sf.Size.Get())
	}
	st := b.sf.Snapshot()
	if !st.Consistent() {
		t.Fatalf("S bits wrong: %v", st)
	}
	top := label.Unpack(uint32(b.sf.Top.Get()))
	if top.Label != 2 || top.Bottom {
		t.Errorf("top = %v, want lbl=2 S=0", top)
	}

	b.pop.SetBool(true)
	b.sim.Step()
	b.pop.SetBool(false)
	top = label.Unpack(uint32(b.sf.Top.Get()))
	if b.sf.Size.Get() != 1 || top.Label != 1 || !top.Bottom {
		t.Errorf("after pop: size=%d top=%v", b.sf.Size.Get(), top)
	}
}

func TestStackFileOverflowAndUnderflowIgnored(t *testing.T) {
	b := newStackBench()
	for i := 0; i < label.MaxDepth+2; i++ {
		b.pushEntry(label.Entry{Label: label.Label(i + 1), TTL: 1})
	}
	if b.sf.Size.Get() != label.MaxDepth {
		t.Errorf("size = %d, want clamp at %d", b.sf.Size.Get(), label.MaxDepth)
	}
	b.pop.SetBool(true)
	b.sim.Run(label.MaxDepth + 3)
	b.pop.SetBool(false)
	if b.sf.Size.Get() != 0 || b.sf.Top.Get() != 0 {
		t.Errorf("after draining: size=%d top=%#x, want 0/0", b.sf.Size.Get(), b.sf.Top.Get())
	}
}

func TestStackFileSetTTLOnTop(t *testing.T) {
	b := newStackBench()
	b.pushEntry(label.Entry{Label: 7, CoS: 2, TTL: 100})
	b.ttl.Set(42)
	b.set.SetBool(true)
	b.sim.Step()
	b.set.SetBool(false)
	top := label.Unpack(uint32(b.sf.Top.Get()))
	if top.TTL != 42 || top.Label != 7 || top.CoS != 2 {
		t.Errorf("top = %v, want ttl=42 with other fields intact", top)
	}
	// SetTTL on an empty stack must be a no-op.
	b.clr.SetBool(true)
	b.sim.Step()
	b.clr.SetBool(false)
	b.set.SetBool(true)
	b.sim.Step()
	b.set.SetBool(false)
	if b.sf.Size.Get() != 0 {
		t.Error("SetTTL resurrected an empty stack")
	}
}

func TestStackFileClearDominates(t *testing.T) {
	b := newStackBench()
	b.pushEntry(label.Entry{Label: 1, TTL: 1})
	b.din.Set(uint64(label.Entry{Label: 9, TTL: 9}.MustPack()))
	b.clr.SetBool(true)
	b.push.SetBool(true) // clear must win over push
	b.sim.Step()
	b.clr.SetBool(false)
	b.push.SetBool(false)
	if b.sf.Size.Get() != 0 {
		t.Error("clear did not dominate a simultaneous push")
	}
}

func TestStackFilePopPushSameEdgeIsReplace(t *testing.T) {
	b := newStackBench()
	b.pushEntry(label.Entry{Label: 1, TTL: 5})
	b.pushEntry(label.Entry{Label: 2, TTL: 5})
	b.din.Set(uint64(label.Entry{Label: 99, TTL: 4}.MustPack()))
	b.pop.SetBool(true)
	b.push.SetBool(true)
	b.sim.Step()
	b.pop.SetBool(false)
	b.push.SetBool(false)
	top := label.Unpack(uint32(b.sf.Top.Get()))
	if b.sf.Size.Get() != 2 || top.Label != 99 {
		t.Errorf("replace: size=%d top=%v, want depth 2 top lbl=99", b.sf.Size.Get(), top)
	}
}

// TestCostModelProperties uses testing/quick to pin algebraic properties
// of the cycle cost model.
func TestStackFileBackToBackPushesWithControlsHeld(t *testing.T) {
	// Push and Din held across three edges: each edge must push again,
	// although from the second on no input of the file has moved (and
	// from the second to the third push not even Top does).
	b := newStackBench()
	b.din.Set(uint64(label.Entry{Label: 7, TTL: 9}.MustPack()))
	b.push.SetBool(true)
	for want := uint64(1); want <= label.MaxDepth; want++ {
		b.sim.Step()
		if b.sf.Size.Get() != want {
			t.Fatalf("after %d edges with push held, size = %d", want, b.sf.Size.Get())
		}
	}
	if st := b.sf.Snapshot(); !st.Consistent() || st.Depth() != label.MaxDepth {
		t.Errorf("stack after held pushes: %v", st)
	}
}

func TestCostModelProperties(t *testing.T) {
	// Search cost is affine with slope 3 and intercept 5, and never
	// negative even for nonsense positions.
	affine := func(pos uint16) bool {
		p := int(pos % 2048)
		return SearchCycles(p) == 3*p+5 && SearchCycles(p+1)-SearchCycles(p) == 3
	}
	if err := quick.Check(affine, nil); err != nil {
		t.Error(err)
	}
	if SearchCycles(-5) != 5 {
		t.Error("negative positions must clamp to the overhead cost")
	}
	// The swap update is always search + 6, dominating pop by 1 and
	// dominated by push by 1.
	tails := func(pos uint16) bool {
		p := int(pos % 2048)
		swap := UpdateCycles(UpdateResult{Op: label.OpSwap, SearchPos: p})
		pop := UpdateCycles(UpdateResult{Op: label.OpPop, SearchPos: p})
		push := UpdateCycles(UpdateResult{Op: label.OpPush, SearchPos: p})
		return swap == SearchCycles(p)+6 && pop == swap-1 && push == swap+1
	}
	if err := quick.Check(tails, nil); err != nil {
		t.Error(err)
	}
}

func TestWorstCaseFormula(t *testing.T) {
	// 3 + 9 + 3n + (3n+5) + 6 for n pair writes.
	for _, n := range []int{0, 1, 10, 1024} {
		want := 3 + 9 + 3*n + (3*n + 5) + 6
		if got := WorstCaseScenarioCycles(n); got != want {
			t.Errorf("WorstCaseScenarioCycles(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestClockConversion(t *testing.T) {
	if s := DefaultClock.Seconds(50_000_000); s != 1.0 {
		t.Errorf("50M cycles at 50 MHz = %v s, want 1", s)
	}
	if ns := DefaultClock.Nanos(1); ns != 20 {
		t.Errorf("1 cycle at 50 MHz = %v ns, want 20", ns)
	}
	// The paper's worst case: 6167 cycles ~ 0.12334 ms.
	ms := DefaultClock.Seconds(6167) * 1e3
	if ms < 0.1233 || ms > 0.1234 {
		t.Errorf("6167 cycles = %v ms, want ~0.1233", ms)
	}
}
