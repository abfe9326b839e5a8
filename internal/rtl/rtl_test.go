package rtl

import (
	"fmt"
	"strings"
	"testing"
)

func TestSignalMasking(t *testing.T) {
	sim := New()
	s := sim.Signal("s", 4)
	s.Set(0x1f)
	if s.Get() != 0xf {
		t.Errorf("4-bit signal holds %#x, want masked 0xf", s.Get())
	}
	b := sim.Signal("b", 1)
	b.SetBool(true)
	if !b.Bool() || b.Get() != 1 {
		t.Error("SetBool(true) did not set the bit")
	}
	b.SetBool(false)
	if b.Bool() {
		t.Error("SetBool(false) did not clear the bit")
	}
	w := sim.Signal("w", 64)
	w.Set(^uint64(0))
	if w.Get() != ^uint64(0) {
		t.Error("64-bit signal truncated")
	}
}

func TestSignalRegistryAndPanics(t *testing.T) {
	sim := New()
	s := sim.Signal("x", 8)
	if sim.Lookup("x") != s {
		t.Error("Lookup did not return the registered signal")
	}
	if sim.Lookup("missing") != nil {
		t.Error("Lookup of an unknown name should be nil")
	}
	if len(sim.Signals()) != 1 {
		t.Error("Signals() should list one signal")
	}
	assertPanics(t, "duplicate name", func() { sim.Signal("x", 8) })
	assertPanics(t, "zero width", func() { sim.Signal("z", 0) })
	assertPanics(t, "width > 64", func() { sim.Signal("y", 65) })
}

func assertPanics(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: expected panic", name)
		}
	}()
	f()
}

func TestCombSettlesChains(t *testing.T) {
	sim := New()
	a := sim.Signal("a", 8)
	b := sim.Signal("b", 8)
	c := sim.Signal("c", 8)
	// Deliberately register dependent combs in reverse order, so that
	// registration order is not level order: c = b + 1, b = a + 1.
	evals := 0
	sim.Comb(func() { evals++; c.Set(b.Get() + 1) }, Sigs{b}, Sigs{c})
	sim.Comb(func() { evals++; b.Set(a.Get() + 1) }, Sigs{a}, Sigs{b})
	sim.Settle()
	evals = 0
	a.Set(5)
	sim.Settle()
	if b.Get() != 6 || c.Get() != 7 {
		t.Errorf("settled b=%d c=%d, want 6, 7", b.Get(), c.Get())
	}
	if evals != 2 {
		t.Errorf("%d evaluations for a two-comb chain, want each comb once", evals)
	}
	sim.Settle()
	if evals != 2 {
		t.Errorf("Settle with nothing changed evaluated %d combs", evals-2)
	}
}

// panicMessage runs f and returns what it panicked with ("" if it
// returned).
func panicMessage(f func()) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	f()
	return ""
}

func TestCombinationalCyclePanics(t *testing.T) {
	// The loop is found when the process that closes it is registered,
	// not after a bounded number of passes at run time, and the message
	// names the signals on it.
	sim := New()
	a := sim.Signal("a", 8)
	b := sim.Signal("b", 8)
	c := sim.Signal("c", 8)
	in := sim.Signal("outside", 8)
	sim.Comb(func() { a.Set(b.Get() + in.Get()) }, Sigs{b, in}, Sigs{a})
	sim.Comb(func() { c.Set(a.Get() + 1) }, Sigs{a}, Sigs{c})
	msg := panicMessage(func() {
		sim.Comb(func() { b.Set(c.Get() + 1) }, Sigs{c}, Sigs{b})
	})
	if !strings.Contains(msg, "combinational loop") {
		t.Fatalf("registering the closing comb: panic %q, want a combinational loop", msg)
	}
	for _, name := range []string{"a", "b", "c"} {
		if !strings.Contains(msg, " "+name) {
			t.Errorf("loop message %q does not name signal %q", msg, name)
		}
	}
	if strings.Contains(msg, "outside") {
		t.Errorf("loop message %q names a signal that is not on the loop", msg)
	}

	// A comb that reads what it drives is the shortest loop.
	sim = New()
	x := sim.Signal("x", 8)
	msg = panicMessage(func() { sim.Comb(func() { x.Set(x.Get() + 1) }, Sigs{x}, Sigs{x}) })
	if !strings.Contains(msg, "combinational loop") || !strings.Contains(msg, "x") {
		t.Errorf("self-loop: panic %q", msg)
	}
}

func TestTwoDriversPanic(t *testing.T) {
	sim := New()
	a := sim.Signal("a", 8)
	q := sim.Signal("q", 8)
	sim.Comb(func() { q.Set(a.Get()) }, Sigs{a}, Sigs{q})
	msg := panicMessage(func() { NewRegister(sim, a, q, nil, nil) })
	if !strings.Contains(msg, "two drivers") || !strings.Contains(msg, `"q"`) {
		t.Errorf("second driver of q: panic %q", msg)
	}
}

func TestCheckSensitivity(t *testing.T) {
	sim := New()
	a := sim.Signal("a", 8)
	b := sim.Signal("b", 8)
	hidden := sim.Signal("hidden", 8)
	// b's comb also reads hidden, which it did not declare: without the
	// check a change of hidden alone goes unseen.
	sim.Comb(func() { b.Set(a.Get() + hidden.Get()) }, Sigs{a}, Sigs{b})
	sim.Settle()
	hidden.Set(1)
	sim.Settle()
	if b.Get() != 0 {
		t.Fatalf("b=%d: the undeclared read was scheduled after all", b.Get())
	}
	sim.CheckSensitivity()
	a.Set(1)
	msg := panicMessage(sim.Settle)
	if !strings.Contains(msg, `"hidden"`) || !strings.Contains(msg, "sensitivity") {
		t.Errorf("undeclared read: panic %q", msg)
	}

	sim = New()
	a = sim.Signal("a", 8)
	b = sim.Signal("b", 8)
	stray := sim.Signal("stray", 8)
	sim.Comb(func() { b.Set(a.Get()); stray.Set(0) }, Sigs{a}, Sigs{b})
	sim.CheckSensitivity()
	// Test benches are not processes: they may touch anything.
	stray.Set(3)
	_ = stray.Get()
	a.Set(1)
	msg = panicMessage(sim.Settle)
	if !strings.Contains(msg, `"stray"`) || !strings.Contains(msg, "did not declare") {
		t.Errorf("undeclared drive: panic %q", msg)
	}
}

func TestRegisterLoadEnableClear(t *testing.T) {
	sim := New()
	d := sim.Signal("d", 8)
	q := sim.Signal("q", 8)
	en := sim.Signal("en", 1)
	clr := sim.Signal("clr", 1)
	NewRegister(sim, d, q, en, clr)

	d.Set(0xab)
	sim.Step()
	if q.Get() != 0 {
		t.Error("register loaded with enable low")
	}
	en.SetBool(true)
	sim.Step()
	if q.Get() != 0xab {
		t.Errorf("q=%#x after enabled load, want 0xab", q.Get())
	}
	en.SetBool(false)
	d.Set(0x11)
	sim.Step()
	if q.Get() != 0xab {
		t.Error("register changed while disabled")
	}
	clr.SetBool(true)
	en.SetBool(true) // clear must dominate enable
	sim.Step()
	if q.Get() != 0 {
		t.Error("clear did not zero the register")
	}
}

func TestRegisterAlwaysLoadWithNilEnable(t *testing.T) {
	sim := New()
	d := sim.Signal("d", 8)
	q := sim.Signal("q", 8)
	NewRegister(sim, d, q, nil, nil)
	d.Set(7)
	sim.Step()
	if q.Get() != 7 {
		t.Errorf("q=%d, want 7", q.Get())
	}
}

func TestRegistersUpdateSimultaneously(t *testing.T) {
	// A two-stage shift register proves latch/commit ordering: both
	// registers must see pre-edge values.
	sim := New()
	in := sim.Signal("in", 8)
	q1 := sim.Signal("q1", 8)
	q2 := sim.Signal("q2", 8)
	NewRegister(sim, in, q1, nil, nil)
	NewRegister(sim, q1, q2, nil, nil)
	in.Set(1)
	sim.Step()
	if q1.Get() != 1 || q2.Get() != 0 {
		t.Fatalf("after 1 step q1=%d q2=%d, want 1, 0", q1.Get(), q2.Get())
	}
	in.Set(2)
	sim.Step()
	if q1.Get() != 2 || q2.Get() != 1 {
		t.Fatalf("after 2 steps q1=%d q2=%d, want 2, 1", q1.Get(), q2.Get())
	}
}

func TestCounterUpDownLoadClearSaturate(t *testing.T) {
	sim := New()
	q := sim.Signal("q", 8)
	en := sim.Signal("en", 1)
	down := sim.Signal("down", 1)
	ld := sim.Signal("ld", 1)
	d := sim.Signal("d", 8)
	clr := sim.Signal("clr", 1)
	NewCounter(sim, q, en, down, ld, d, clr)

	en.SetBool(true)
	sim.Run(3)
	if q.Get() != 3 {
		t.Errorf("count=%d after 3 up steps, want 3", q.Get())
	}
	down.SetBool(true)
	sim.Run(2)
	if q.Get() != 1 {
		t.Errorf("count=%d after 2 down steps, want 1", q.Get())
	}
	sim.Run(3)
	if q.Get() != 0 {
		t.Errorf("down count must saturate at 0, got %d", q.Get())
	}
	d.Set(42)
	ld.SetBool(true)
	sim.Step()
	if q.Get() != 42 {
		t.Errorf("load: count=%d, want 42", q.Get())
	}
	ld.SetBool(false)
	clr.SetBool(true)
	sim.Step()
	if q.Get() != 0 {
		t.Error("clear did not zero the counter")
	}
}

func TestCounterLoadNeedsValue(t *testing.T) {
	sim := New()
	q := sim.Signal("q", 8)
	ld := sim.Signal("ld", 1)
	assertPanics(t, "load without value", func() { NewCounter(sim, q, nil, nil, ld, nil, nil) })
}

func TestRAMSynchronousReadWrite(t *testing.T) {
	sim := New()
	raddr := sim.Signal("raddr", 10)
	rdata := sim.Signal("rdata", 32)
	waddr := sim.Signal("waddr", 10)
	wdata := sim.Signal("wdata", 32)
	wen := sim.Signal("wen", 1)
	m := NewRAM(sim, 1024, raddr, rdata, waddr, wdata, wen)

	if m.Words() != 1024 {
		t.Fatalf("Words=%d", m.Words())
	}
	waddr.Set(5)
	wdata.Set(0xdead)
	wen.SetBool(true)
	sim.Step()
	wen.SetBool(false)
	if m.Peek(5) != 0xdead {
		t.Fatalf("write did not land: %#x", m.Peek(5))
	}
	raddr.Set(5)
	sim.Step() // read data appears one edge after the address
	if rdata.Get() != 0xdead {
		t.Errorf("rdata=%#x, want 0xdead", rdata.Get())
	}
}

func TestRAMReadBeforeWrite(t *testing.T) {
	sim := New()
	raddr := sim.Signal("raddr", 4)
	rdata := sim.Signal("rdata", 8)
	waddr := sim.Signal("waddr", 4)
	wdata := sim.Signal("wdata", 8)
	wen := sim.Signal("wen", 1)
	NewRAM(sim, 16, raddr, rdata, waddr, wdata, wen)

	// Read and write address 3 on the same edge: the read must return the
	// old word.
	raddr.Set(3)
	waddr.Set(3)
	wdata.Set(9)
	wen.SetBool(true)
	sim.Step()
	if rdata.Get() != 0 {
		t.Errorf("simultaneous read returned the new word (%d), want old (0)", rdata.Get())
	}
	wen.SetBool(false)
	sim.Step()
	if rdata.Get() != 9 {
		t.Errorf("next read = %d, want 9", rdata.Get())
	}
}

func TestRAMReadsWordJustWrittenWithPortsHeld(t *testing.T) {
	// The first edge reads the old word and writes the new one. Nothing
	// on any port moves afterwards, yet the second edge must read what
	// the first wrote: stored words are state no signal carries.
	sim := New()
	raddr := sim.Signal("raddr", 4)
	rdata := sim.Signal("rdata", 8)
	waddr := sim.Signal("waddr", 4)
	wdata := sim.Signal("wdata", 8)
	wen := sim.Signal("wen", 1)
	NewRAM(sim, 16, raddr, rdata, waddr, wdata, wen)
	raddr.Set(3)
	waddr.Set(3)
	wdata.Set(9)
	wen.SetBool(true)
	sim.Step()
	if rdata.Get() != 0 {
		t.Fatalf("first edge read %d, want the old word 0", rdata.Get())
	}
	sim.Step()
	if rdata.Get() != 9 {
		t.Errorf("second edge, ports held: read %d, want the word just written (9)", rdata.Get())
	}
}

func TestIdleComponentsAreNotClocked(t *testing.T) {
	// The point of the event-driven edge: a state machine whose inputs
	// and state hold still is not evaluated, and is again once one moves.
	sim := New()
	state := sim.Signal("state", 2)
	start := sim.Signal("start", 1)
	evals := 0
	NewFSM(sim, state, func() uint64 {
		evals++
		if start.Bool() {
			return 1
		}
		return 0
	}, Sigs{start})
	sim.Run(5)
	if evals != 1 {
		t.Errorf("idle FSM evaluated %d times in 5 cycles, want once (the first edge)", evals)
	}
	start.SetBool(true)
	sim.Run(5)
	// The edge after start rose, and the one after the state moved.
	if evals != 3 || state.Get() != 1 {
		t.Errorf("after start: %d evaluations, state %d; want 3 and 1", evals, state.Get())
	}
}

func TestRAMAddressWrapsAndSizePanics(t *testing.T) {
	sim := New()
	raddr := sim.Signal("raddr", 8)
	rdata := sim.Signal("rdata", 8)
	waddr := sim.Signal("waddr", 8)
	wdata := sim.Signal("wdata", 8)
	wen := sim.Signal("wen", 1)
	m := NewRAM(sim, 4, raddr, rdata, waddr, wdata, wen)
	waddr.Set(6) // wraps to 2
	wdata.Set(1)
	wen.SetBool(true)
	sim.Step()
	if m.Peek(2) != 1 {
		t.Error("out-of-range write address did not wrap")
	}
	assertPanics(t, "zero words", func() { NewRAM(sim, 0, raddr, rdata, waddr, wdata, wen) })
}

func TestComparator(t *testing.T) {
	sim := New()
	a := sim.Signal("a", 32)
	b := sim.Signal("b", 32)
	eq := sim.Signal("eq", 1)
	Comparator(sim, a, b, eq)
	a.Set(604)
	b.Set(604)
	sim.Settle()
	if !eq.Bool() {
		t.Error("comparator missed equal values")
	}
	b.Set(605)
	sim.Settle()
	if eq.Bool() {
		t.Error("comparator matched unequal values")
	}
}

func TestFSMStepsThroughStates(t *testing.T) {
	const (
		idle = iota
		work
		done
	)
	sim := New()
	state := sim.Signal("state", 2)
	start := sim.Signal("start", 1)
	busy := sim.Signal("busy", 1)
	NewFSM(sim, state, func() uint64 {
		switch state.Get() {
		case idle:
			if start.Bool() {
				return work
			}
			return idle
		case work:
			return done
		default:
			return idle
		}
	}, Sigs{start})
	sim.Comb(func() { busy.SetBool(state.Get() == work) }, Sigs{state}, Sigs{busy})

	sim.Step()
	if state.Get() != idle {
		t.Fatal("FSM left idle without start")
	}
	start.SetBool(true)
	sim.Step()
	if state.Get() != work || !busy.Bool() {
		t.Fatalf("state=%d busy=%v, want work/busy", state.Get(), busy.Bool())
	}
	sim.Step()
	if state.Get() != done {
		t.Fatal("FSM did not reach done")
	}
	sim.Step()
	if state.Get() != idle {
		t.Fatal("FSM did not wrap to idle")
	}
}

func TestStepUntilSet(t *testing.T) {
	sim := New()
	q := sim.Signal("q", 8)
	en := sim.Signal("en", 1)
	five := sim.Signal("five", 8)
	atFive := sim.Signal("at_five", 1)
	never := sim.Signal("never", 1)
	NewCounter(sim, q, en, nil, nil, nil, nil)
	Comparator(sim, q, five, atFive)
	five.Set(5)
	en.SetBool(true)
	cycles, ok := sim.StepUntilSet(atFive, 100)
	if !ok || cycles != 5 {
		t.Errorf("StepUntilSet: cycles=%d ok=%v, want 5, true", cycles, ok)
	}
	_, ok = sim.StepUntilSet(never, 3)
	if ok {
		t.Error("StepUntilSet reported success for a signal that never rises")
	}
	if sim.Cycle() != 8 {
		t.Errorf("Cycle()=%d, want 8", sim.Cycle())
	}
}

func TestOnSampleFires(t *testing.T) {
	sim := New()
	var cycles []uint64
	sim.OnSample(func(c uint64) { cycles = append(cycles, c) })
	sim.Run(3)
	if len(cycles) != 3 || cycles[0] != 1 || cycles[2] != 3 {
		t.Errorf("sampled cycles %v, want [1 2 3]", cycles)
	}
}
