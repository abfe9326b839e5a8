package rtl_test

import (
	"fmt"
	"math/rand"
	"testing"

	"embeddedmpls/internal/infobase"
	"embeddedmpls/internal/label"
	"embeddedmpls/internal/lsm"
	"embeddedmpls/internal/rtl"
)

// The lock-step differential suite: the one design built on this kernel,
// the label stack modifier, is instantiated twice and fed the same seeded
// command stream. One copy is stepped by the event-driven kernel with
// sensitivity checking on, the other by the evaluate-everything oracle in
// export_test.go. After every clock edge every signal of the two must be
// equal — which makes every cycle count equal too, since completion is a
// signal.

// twin is the two copies and the bench that drives both.
type twin struct {
	t      *testing.T
	ev, or *rtl.Simulator // event-driven, oracle
	evSigs []*rtl.Signal
	orSigs []*rtl.Signal
	rng    *rand.Rand
	glitch []string // inputs that may change value in the middle of a command
	cycles int
	last   string // the command in progress, for failure messages
}

func newTwin(t *testing.T, seed int64, ev, or *rtl.Simulator) *twin {
	ev.CheckSensitivity()
	or.OracleSettle()
	tw := &twin{t: t, ev: ev, or: or, evSigs: ev.Signals(), orSigs: or.Signals(),
		rng: rand.New(rand.NewSource(seed))}
	if len(tw.evSigs) != len(tw.orSigs) {
		t.Fatalf("the copies have %d and %d signals", len(tw.evSigs), len(tw.orSigs))
	}
	tw.compare()
	return tw
}

func (tw *twin) set(name string, v uint64) {
	tw.ev.Lookup(name).Set(v)
	tw.or.Lookup(name).Set(v)
}

func (tw *twin) get(name string) uint64 { return tw.ev.Lookup(name).Get() }

func (tw *twin) compare() {
	tw.t.Helper()
	for i, s := range tw.evSigs {
		if o := tw.orSigs[i]; s.Get() != o.Get() {
			tw.t.Fatalf("cycle %d (%s): signal %s is %#x under the event-driven kernel, %#x under the oracle",
				tw.cycles, tw.last, s.Name(), s.Get(), o.Get())
		}
	}
}

// step clocks both copies once, now and then after changing an input the
// command in progress does not own.
func (tw *twin) step() {
	tw.t.Helper()
	if len(tw.glitch) > 0 && tw.rng.Intn(8) == 0 {
		tw.set(tw.glitch[tw.rng.Intn(len(tw.glitch))], uint64(tw.rng.Intn(16)))
	}
	tw.ev.Step()
	tw.or.OracleStep()
	tw.cycles++
	tw.compare()
}

// until steps until the named signal is raised and returns the cycles
// that took.
func (tw *twin) until(done string, max int) int {
	tw.t.Helper()
	for n := 1; n <= max; n++ {
		tw.step()
		if tw.get(done) != 0 {
			return n
		}
	}
	tw.t.Fatalf("%s: %s not raised within %d cycles", tw.last, done, max)
	return 0
}

const maxOp = 3*infobase.EntriesPerLevel + 200

// command runs one command through the modifier's port the way
// lsm.Bench does: strobe, count edges to done, release.
func (tw *twin) command(cmd lsm.Command, what string) int {
	tw.t.Helper()
	tw.last = what
	tw.set("extoperation", uint64(cmd))
	tw.set("enable", 1)
	n := tw.until("done", maxOp)
	tw.set("enable", 0)
	tw.set("extoperation", uint64(lsm.CmdNone))
	return n
}

func (tw *twin) reset() {
	tw.t.Helper()
	tw.last = "reset"
	for i := 0; i < 4 && (tw.get("rst_cnt") != 0 || tw.get("done") != 0); i++ {
		tw.step()
	}
	tw.set("reset", 1)
	if n := tw.until("done", 16); n != lsm.CyclesReset {
		tw.t.Fatalf("reset took %d cycles", n)
	}
	tw.set("reset", 0)
}

func (tw *twin) writePair(lv infobase.Level, index, newLabel, op uint64) {
	tw.t.Helper()
	if tw.get(fmt.Sprintf("ib_wcnt_%d", lv)) >= infobase.EntriesPerLevel {
		return // the bench refuses to wrap a full level
	}
	tw.set("level", uint64(lv))
	tw.set("new_label", newLabel)
	tw.set("operation_in", op)
	if lv == infobase.Level1 {
		tw.set("packetid", index)
	} else {
		tw.set("old_label", index)
	}
	// A write samples its data on its last edge; keep it what was asked.
	glitch := tw.glitch
	tw.glitch = nil
	if n := tw.command(lsm.CmdWritePair, fmt.Sprintf("write level %d index %d", lv, index)); n != lsm.CyclesWritePair {
		tw.t.Fatalf("%s took %d cycles", tw.last, n)
	}
	tw.glitch = glitch
}

func (tw *twin) lookup(lv infobase.Level, key uint64) int {
	tw.t.Helper()
	tw.set("level", uint64(lv))
	if lv == infobase.Level1 {
		tw.set("packetid", key)
	} else {
		tw.set("label_lookup", key)
	}
	return tw.command(lsm.CmdLookup, fmt.Sprintf("lookup level %d key %d", lv, key))
}

func (tw *twin) randomEntry() label.Entry {
	return label.Entry{Label: label.Label(1 + tw.rng.Intn(12)), CoS: label.CoS(tw.rng.Intn(8)),
		TTL: uint8([]int{0, 1, 2, 64, 255}[tw.rng.Intn(5)])}
}

// randomCommand issues one command of the bare modifier's repertoire with
// small keys, so hits, misses, duplicates and every discard reason occur.
func (tw *twin) randomCommand() {
	tw.t.Helper()
	lv := infobase.Level(1 + tw.rng.Intn(infobase.NumLevels))
	key := uint64(1 + tw.rng.Intn(12))
	switch r := tw.rng.Intn(100); {
	case r < 4:
		tw.reset()
	case r < 20:
		tw.set("data_in", uint64(tw.randomEntry().MustPack()))
		tw.command(lsm.CmdUserPush, "user push")
	case r < 30:
		tw.command(lsm.CmdUserPop, "user pop")
	case r < 55:
		tw.writePair(lv, key, uint64(100+tw.rng.Intn(900)), uint64(tw.rng.Intn(4)))
	case r < 70:
		tw.lookup(lv, key)
	case r < 80:
		// Read-out of any word, written or not, in range or wrapping.
		tw.set("level", uint64(lv))
		tw.set("data_in", uint64(tw.rng.Intn(infobase.EntriesPerLevel+40)))
		tw.command(lsm.CmdReadPair, "read pair")
	default:
		tw.set("packetid", key)
		tw.set("ttl_in", uint64(tw.rng.Intn(3)))
		tw.set("cos_in", uint64(tw.rng.Intn(8)))
		tw.command(lsm.CmdUpdate, "update")
	}
	for i := tw.rng.Intn(3); i > 0; i-- {
		tw.step() // idle edges between commands
	}
}

// packet runs one packet through the hardware packet interfaces, as
// PktProc.Process does.
func (tw *twin) packet() {
	tw.t.Helper()
	depth := tw.rng.Intn(label.MaxDepth + 1)
	for i := 0; i < depth; i++ {
		tw.set(fmt.Sprintf("pp_in_%d", i), uint64(tw.randomEntry().MustPack()))
	}
	tw.set("pp_in_count", uint64(depth))
	tw.set("packetid", uint64(1+tw.rng.Intn(12)))
	tw.set("ttl_in", uint64(tw.rng.Intn(3)))
	tw.set("cos_in", uint64(tw.rng.Intn(8)))
	tw.last = fmt.Sprintf("packet of depth %d", depth)
	tw.set("pp_start", 1)
	tw.until("pp_ready", maxOp)
	tw.set("pp_start", 0)
	tw.step() // drain the done state back to idle
}

func searchKinds() []lsm.SearchKind { return []lsm.SearchKind{lsm.SearchLinear, lsm.SearchCAM} }

func TestDifferentialBareModifier(t *testing.T) {
	for _, rtype := range []lsm.RouterType{lsm.LER, lsm.LSR} {
		for _, kind := range searchKinds() {
			for seed := int64(1); seed <= 3; seed++ {
				t.Run(fmt.Sprintf("%v/%v/seed%d", rtype, kind, seed), func(t *testing.T) {
					ev, or := lsm.NewWith(lsm.Options{Search: kind}), lsm.NewWith(lsm.Options{Search: kind})
					tw := newTwin(t, seed, ev.Sim, or.Sim)
					tw.set("rtrtype", uint64(rtype))
					tw.glitch = []string{"packetid", "old_label", "new_label", "operation_in", "level",
						"label_lookup", "ttl_in", "cos_in", "data_in"}
					for i := 0; i < 500; i++ {
						tw.randomCommand()
					}
					if !ev.Stack.Snapshot().Equal(or.Stack.Snapshot()) {
						t.Errorf("stacks differ: %v vs %v", ev.Stack.Snapshot(), or.Stack.Snapshot())
					}
					assertSameInfoBase(t, ev, or)
				})
			}
		}
	}
}

func TestDifferentialPacketProcessor(t *testing.T) {
	for _, rtype := range []lsm.RouterType{lsm.LER, lsm.LSR} {
		for _, kind := range searchKinds() {
			for seed := int64(1); seed <= 3; seed++ {
				t.Run(fmt.Sprintf("%v/%v/seed%d", rtype, kind, seed), func(t *testing.T) {
					opts := lsm.Options{Search: kind}
					ev, or := lsm.NewPktProc(rtype, opts), lsm.NewPktProc(rtype, opts)
					tw := newTwin(t, seed, ev.HW.Sim, or.HW.Sim)
					// While a packet is in flight the processor owns the
					// command port; the other inputs are fair game.
					tw.glitch = []string{"packetid", "label_lookup", "ttl_in", "cos_in", "level", "pp_in_0", "pp_in_2"}
					for i := 0; i < 400; i++ {
						switch r := tw.rng.Intn(10); {
						case r < 6:
							tw.packet()
						case r < 9:
							// The routing software, between packets.
							lv := infobase.Level(1 + tw.rng.Intn(infobase.NumLevels))
							tw.writePair(lv, uint64(1+tw.rng.Intn(12)), uint64(100+tw.rng.Intn(900)), uint64(tw.rng.Intn(4)))
						default:
							tw.reset()
						}
					}
					assertSameInfoBase(t, ev.HW, or.HW)
				})
			}
		}
	}
}

// TestDifferentialFullLevel covers what the short streams cannot: a level
// filled to capacity, searched to its last entry and past it, while the
// other levels stay empty.
func TestDifferentialFullLevel(t *testing.T) {
	for _, kind := range searchKinds() {
		t.Run(kind.String(), func(t *testing.T) {
			opts := lsm.Options{Search: kind}
			ev, or := lsm.NewPktProc(lsm.LSR, opts), lsm.NewPktProc(lsm.LSR, opts)
			tw := newTwin(t, 1, ev.HW.Sim, or.HW.Sim)
			n := infobase.EntriesPerLevel
			for i := 1; i <= n; i++ {
				tw.writePair(infobase.Level2, uint64(5000+i), uint64(i), uint64(label.OpSwap))
			}
			tw.writePair(infobase.Level2, 1, 1, uint64(label.OpSwap)) // full: refused
			want := func(pos int) int { return lsm.SearchCyclesFor(kind, pos) }
			for _, pos := range []int{1, 2, n / 2, n} {
				if got := tw.lookup(infobase.Level2, uint64(5000+pos)); got != want(pos) {
					t.Errorf("hit at %d took %d cycles, want %d", pos, got, want(pos))
				}
			}
			if got := tw.lookup(infobase.Level2, 77); got != want(n) {
				t.Errorf("miss over a full level took %d cycles, want %d", got, want(n))
			}
			if got := tw.lookup(infobase.Level3, 77); got != want(0) {
				t.Errorf("miss over an empty level took %d cycles, want %d", got, want(0))
			}
			// A packet whose top label sits last, then one that misses.
			for _, lbl := range []uint64{uint64(5000 + n), 77} {
				tw.set("pp_in_0", uint64(label.Entry{Label: label.Label(lbl), TTL: 9}.MustPack()))
				tw.set("pp_in_count", 1)
				tw.last = fmt.Sprintf("packet with label %d", lbl)
				tw.set("pp_start", 1)
				tw.until("pp_ready", maxOp)
				tw.set("pp_start", 0)
				tw.step()
			}
			assertSameInfoBase(t, ev.HW, or.HW)
		})
	}
}

// assertSameInfoBase compares the state no signal carries: the memory
// contents behind the write counters.
func assertSameInfoBase(t *testing.T, ev, or *lsm.HW) {
	t.Helper()
	a, b := ev.InfoBaseSnapshot(), or.InfoBaseSnapshot()
	for lv := infobase.Level1; lv <= infobase.Level3; lv++ {
		pa, pb := a.Entries(lv), b.Entries(lv)
		if len(pa) != len(pb) {
			t.Fatalf("level %d holds %d pairs under the event-driven kernel, %d under the oracle", lv, len(pa), len(pb))
		}
		for i := range pa {
			if pa[i] != pb[i] {
				t.Fatalf("level %d address %d: %+v vs %+v", lv, i, pa[i], pb[i])
			}
		}
	}
}
