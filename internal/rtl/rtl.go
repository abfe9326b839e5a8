// Package rtl is a small cycle-accurate synchronous-logic simulation
// kernel. It stands in for the FPGA fabric that Peterkin & Ionescu's
// embedded MPLS architecture targets (an Altera Stratix EP1S40F780C5):
// the paper's entire evaluation consists of HDL simulation waveforms and
// clock-cycle counts, and this kernel produces exactly those observables.
//
// The model is a single clock domain with two-phase semantics, scheduled
// by events rather than by evaluating everything:
//
//  1. Every process — a combinational function or a sequential component
//     — declares the signals it reads and the signals it drives. From the
//     declarations the simulator orders the combinational processes
//     topologically once, at registration (a combinational loop or a
//     signal with two drivers panics there, naming the signals).
//  2. Signal.Set on a changed value marks only the processes that read
//     the signal. Settle runs the marked combinational processes in
//     level order, each at most once: a process runs after everything it
//     reads has its final value, so the result is the unique fixed point
//     an evaluate-until-stable loop would reach.
//  3. On Step (one rising clock edge) the marked sequential components
//     each compute their next state from the settled signals; the
//     outputs that change are held back and land together, so every
//     state element observes the pre-edge value of every other — exactly
//     the semantics of synchronous RTL. A component none of whose
//     signals changed since it was last clocked would compute the state
//     it already holds, so it is skipped.
//
// Skipping never changes an observable: a skipped process is a pure
// function of values that did not change. The contract this rests on is
// the sensitivity declaration; CheckSensitivity turns every undeclared
// Get or Set into a panic, and the differential tests run the design
// against the evaluate-everything kernel this package used to have with
// that check on.
//
// Signals are named, width-masked wires; the wave package samples them to
// render waveforms.
package rtl

import (
	"fmt"
	"math/bits"
	"strings"
)

// Signal is a named wire carrying an unsigned value of a fixed bit width.
// Values wider than the signal are masked on Set, like an HDL assignment
// to a narrower net.
type Signal struct {
	val  uint64
	mask uint64
	fan  []fanWord // processes to mark when the value changes
	sim  *Simulator
	chk  *checker // non-nil only under CheckSensitivity

	name   string
	width  uint
	driver *proc // the process declared to drive the signal, if any
}

// fanWord is one word of a signal's fan-out in the simulator's dirty
// bitset.
type fanWord struct {
	word int
	mask uint64
}

// Sigs is a list of signals, as used in sensitivity declarations. Nil
// entries (an optional port left unconnected) are ignored.
type Sigs []*Signal

// Name returns the signal's name.
func (s *Signal) Name() string { return s.name }

// Width returns the signal's bit width.
func (s *Signal) Width() uint { return s.width }

// Get returns the current value of the signal.
func (s *Signal) Get() uint64 {
	if s.chk != nil {
		s.chk.read(s)
	}
	return s.val
}

// Set drives the signal to v (masked to the signal width). If the value
// changed, the processes that read the signal are marked for evaluation.
func (s *Signal) Set(v uint64) {
	// Small enough to inline: the common case, a process re-driving the
	// value a signal already holds, costs a compare.
	if v != s.val || s.chk != nil {
		s.update(v)
	}
}

func (s *Signal) update(v uint64) {
	if s.chk != nil {
		s.chk.drive(s)
	}
	if v &= s.mask; v == s.val {
		return
	}
	s.val = v
	dirty := s.sim.dirty
	for _, f := range s.fan {
		dirty[f.word] |= f.mask
	}
}

// Bool returns the signal interpreted as a single-bit boolean.
func (s *Signal) Bool() bool { return s.Get() != 0 }

// SetBool drives a single-bit signal.
func (s *Signal) SetBool(b bool) {
	var v uint64
	if b {
		v = 1
	}
	if v != s.val || s.chk != nil { // Set, spelled out to stay inlinable
		s.update(v)
	}
}

// proc is the scheduling header of a process: its declared sensitivity
// and its bit in the simulator's dirty set.
type proc struct {
	kind   string
	reads  Sigs
	drives Sigs
	word   int
	bit    uint64
}

func (p *proc) String() string {
	names := make([]string, len(p.drives))
	for i, s := range p.drives {
		names[i] = s.name
	}
	return fmt.Sprintf("%s driving [%s]", p.kind, strings.Join(names, " "))
}

// comb is a combinational process.
type comb struct {
	proc
	f func()
}

// Sequential is a clocked component defined outside this package (the
// label stack register file, a CAM bank). Latch computes the next state
// from the settled signal values; Commit applies it and drives the
// outputs. The split guarantees that every sequential element observes
// the pre-edge value of every other, as real flip-flops do.
//
// Latch may read only the signals declared as reads at Add, and Commit
// may drive only the declared drives. The simulator clocks the component
// on an edge only if one of those signals changed since it was last
// clocked, so every change of internal state that can alter the outcome
// of a later edge must show as a change on a driven signal.
type Sequential interface {
	Latch()
	Commit()
}

type custom struct {
	proc
	c Sequential
}

func (x *custom) clock(sim *Simulator) {
	x.c.Latch()
	sim.committing = append(sim.committing, x)
}

// clocked is a sequential component as the clock edge sees it: clock
// computes the next state from the pre-edge signals and defers the
// outputs that change.
type clocked interface {
	header() *proc
	clock(sim *Simulator)
}

func (p *proc) header() *proc { return p }

// write is a signal assignment held back until every sequential
// component has seen the pre-edge values.
type write struct {
	s *Signal
	v uint64
}

// Simulator owns the signals and processes of one synchronous design and
// advances them cycle by cycle.
type Simulator struct {
	signals []*Signal
	byName  map[string]*Signal

	combs []*comb // registration order
	order []*comb // level order: a comb's index is its bit in dirty

	seqs []clocked // sequential components, registration order

	// dirty has one bit per process: the combs by level, then, from a
	// word of their own, the sequential components. active is the set as
	// it stood at the clock edge being applied.
	dirty  []uint64
	active []uint64
	seqLo  int // words below this belong to the combs

	deferred   []write   // outputs changing at the clock edge being applied
	committing []*custom // Sequentials latched at that edge

	cycle   uint64
	samples []func(cycle uint64)
	chk     *checker
}

// New returns an empty simulator.
func New() *Simulator {
	return &Simulator{byName: make(map[string]*Signal)}
}

// Signal creates and registers a named signal of the given width (1-64
// bits). Duplicate names and out-of-range widths are construction bugs and
// panic.
func (sim *Simulator) Signal(name string, width uint) *Signal {
	if width == 0 || width > 64 {
		panic(fmt.Sprintf("rtl: signal %q has unsupported width %d", name, width))
	}
	if _, dup := sim.byName[name]; dup {
		panic(fmt.Sprintf("rtl: duplicate signal name %q", name))
	}
	var mask uint64 = ^uint64(0)
	if width < 64 {
		mask = 1<<width - 1
	}
	s := &Signal{name: name, width: width, mask: mask, sim: sim, chk: sim.chk}
	sim.signals = append(sim.signals, s)
	sim.byName[name] = s
	return s
}

// Lookup returns the signal registered under name, or nil. It is a map
// access: resolve a signal once and keep the handle, not per cycle.
func (sim *Simulator) Lookup(name string) *Signal { return sim.byName[name] }

// Signals returns the registered signals in creation order.
func (sim *Simulator) Signals() []*Signal { return sim.signals }

// Comb registers a combinational process: f must be a pure function of
// the signals in reads, and may drive only the signals in drives. It runs
// whenever one of its reads changed, after every process that drives one
// of them. A combinational loop panics here, naming the signals on it.
func (sim *Simulator) Comb(f func(), reads, drives Sigs) {
	c := &comb{f: f}
	sim.declare(&c.proc, "comb", reads, drives)
	sim.combs = append(sim.combs, c)
	sim.elaborate()
}

// Add registers a sequential component defined outside this package with
// the signals its Latch reads and its Commit drives. The driven signals
// count as read: when one moves, state moved, and the component is
// clocked again on the next edge.
func (sim *Simulator) Add(c Sequential, reads, drives Sigs) {
	sim.addClocked(&custom{c: c}, fmt.Sprintf("%T", c), append(append(Sigs{}, reads...), drives...), drives)
}

// addClocked registers a sequential component of any kind.
func (sim *Simulator) addClocked(c clocked, kind string, reads, drives Sigs) {
	sim.declare(c.header(), kind, reads, drives)
	sim.seqs = append(sim.seqs, c)
	sim.elaborate()
}

// declare fills in a process header and claims its driven signals: a
// signal has one driver, or the order of evaluation would show.
func (sim *Simulator) declare(p *proc, kind string, reads, drives Sigs) {
	p.kind = kind
	for _, s := range reads {
		if s != nil {
			p.reads = append(p.reads, s)
		}
	}
	for _, s := range drives {
		if s == nil {
			continue
		}
		p.drives = append(p.drives, s)
		if s.driver != nil {
			panic(fmt.Sprintf("rtl: signal %q has two drivers: %v and a new %s", s.name, s.driver, kind))
		}
		s.driver = p
	}
}

// elaborate recomputes the schedule after a registration: the level order
// of the combs, every process's bit in the dirty set and every signal's
// fan-out. Everything is left marked, which is always safe — evaluating a
// process whose inputs did not change reproduces its outputs.
func (sim *Simulator) elaborate() {
	sim.levelise()

	words := func(n int) int { return (n + 63) / 64 }
	place := func(p *proc, base, i int) {
		p.word, p.bit = base+i>>6, 1<<(i&63)
	}
	for i, c := range sim.order {
		place(&c.proc, 0, i)
	}
	sim.seqLo = words(len(sim.order))
	for i, c := range sim.seqs {
		place(c.header(), sim.seqLo, i)
	}
	n := sim.seqLo + words(len(sim.seqs))
	sim.dirty = make([]uint64, n)
	sim.active = make([]uint64, n)
	for _, s := range sim.signals {
		s.fan = s.fan[:0]
	}
	mark := func(p *proc) {
		sim.dirty[p.word] |= p.bit
		for _, s := range p.reads {
			s.wakes(p)
		}
	}
	for _, c := range sim.combs {
		mark(&c.proc)
	}
	for _, c := range sim.seqs {
		mark(c.header())
	}
}

// wakes adds p to the signal's fan-out.
func (s *Signal) wakes(p *proc) {
	for i := range s.fan {
		if s.fan[i].word == p.word {
			s.fan[i].mask |= p.bit
			return
		}
	}
	s.fan = append(s.fan, fanWord{p.word, p.bit})
}

// levelise orders the combs so that each comes after every comb driving
// one of its reads. Among combs that do not depend on each other,
// registration order is kept.
func (sim *Simulator) levelise() {
	n := len(sim.combs)
	index := make(map[*proc]int, n)
	for i, c := range sim.combs {
		index[&c.proc] = i
	}
	// pred[j] lists, for each read of comb j that a comb drives, that
	// comb and the signal between them.
	type edge struct {
		from int
		via  *Signal
	}
	pred := make([][]edge, n)
	for j, c := range sim.combs {
		for _, s := range c.reads {
			if i, ok := index[s.driver]; ok {
				pred[j] = append(pred[j], edge{i, s})
			}
		}
	}
	placed := make([]bool, n)
	ready := func(j int) bool {
		for _, e := range pred[j] {
			if !placed[e.from] {
				return false
			}
		}
		return true
	}
	sim.order = sim.order[:0]
	for len(sim.order) < n {
		next := -1
		for j := 0; j < n && next < 0; j++ {
			if !placed[j] && ready(j) {
				next = j
			}
		}
		if next < 0 {
			// Every unplaced comb waits on an unplaced one: walk back
			// until a comb repeats, and name the signals on that loop.
			var path []edge
			seen := make(map[int]int)
			j := 0
			for placed[j] {
				j++
			}
			for {
				if at, ok := seen[j]; ok {
					path = path[at:]
					break
				}
				seen[j] = len(path)
				for _, e := range pred[j] {
					if !placed[e.from] {
						path = append(path, e)
						j = e.from
						break
					}
				}
			}
			names := make([]string, len(path))
			for i, e := range path {
				names[len(path)-1-i] = e.via.name
			}
			panic("rtl: combinational loop through signals " + strings.Join(names, " -> "))
		}
		placed[next] = true
		sim.order = append(sim.order, sim.combs[next])
	}
}

// OnSample registers a callback invoked after every Step with the cycle
// number just completed; the wave tracer uses it.
func (sim *Simulator) OnSample(f func(cycle uint64)) {
	sim.samples = append(sim.samples, f)
}

// Cycle returns the number of clock edges stepped so far.
func (sim *Simulator) Cycle() uint64 { return sim.cycle }

// Settle brings the combinational logic up to date with the signals:
// every comb one of whose reads changed runs once, in level order. Step
// calls it automatically; it is exported so a test bench can change
// inputs and observe combinational outputs without advancing the clock.
func (sim *Simulator) Settle() {
	chk := sim.chk
	dirty := sim.dirty
	for w := 0; w < sim.seqLo; w++ {
		// A comb marks only combs after it, so one ascending pass that
		// re-reads the word sees everything it causes.
		for dirty[w] != 0 {
			b := bits.TrailingZeros64(dirty[w])
			dirty[w] &^= 1 << b
			c := sim.order[w<<6|b]
			if chk != nil {
				chk.cur = &c.proc
			}
			c.f()
		}
	}
	if chk != nil {
		chk.cur = nil
	}
}

// edge applies one rising clock edge to the sequential components marked
// since they were last clocked. Each computes its next state from the
// pre-edge signals and defers the output that changes; the deferred
// writes land together afterwards, so no component sees another's
// post-edge value. Marks made by those writes are for the next edge.
func (sim *Simulator) edge() {
	chk := sim.chk
	// Settle has drained the comb words, so the two sets can trade
	// places: dirty starts empty and active is zeroed as it is consumed.
	sim.dirty, sim.active = sim.active, sim.dirty
	act := sim.active

	for w := sim.seqLo; w < len(act); w++ {
		for m := act[w]; m != 0; m &= m - 1 {
			c := sim.seqs[(w-sim.seqLo)<<6|bits.TrailingZeros64(m)]
			if chk != nil {
				chk.cur = c.header()
			}
			c.clock(sim)
		}
		act[w] = 0
	}
	if chk != nil {
		chk.cur = nil
	}
	for _, d := range sim.deferred {
		d.s.Set(d.v)
	}
	sim.deferred = sim.deferred[:0]
	for _, x := range sim.committing {
		if chk != nil {
			chk.cur = &x.proc
		}
		x.c.Commit()
	}
	sim.committing = sim.committing[:0]
	if chk != nil {
		chk.cur = nil
	}
}

// deferSet queues s <- v for the end of the clock edge being applied,
// unless s already holds v.
func (sim *Simulator) deferSet(s *Signal, v uint64) {
	if v &= s.mask; v != s.val {
		sim.deferred = append(sim.deferred, write{s, v})
	}
}

// Step advances the design by one rising clock edge: settle what the test
// bench changed, clock the sequential components, settle their new
// outputs, then sample probes.
func (sim *Simulator) Step() {
	sim.Settle()
	sim.edge()
	sim.Settle()
	sim.cycle++
	for _, f := range sim.samples {
		f(sim.cycle)
	}
}

// Run advances the design n cycles.
func (sim *Simulator) Run(n int) {
	for i := 0; i < n; i++ {
		sim.Step()
	}
}

// StepUntilSet advances the clock until done is non-zero at the end of a
// cycle, or max cycles have elapsed. It returns the number of cycles
// stepped and whether done was raised. The paper's per-operation
// latencies are measured exactly this way: assert a command, count edges
// until the completion pulse.
func (sim *Simulator) StepUntilSet(done *Signal, max int) (cycles int, ok bool) {
	for cycles < max {
		sim.Step()
		cycles++
		if done.val != 0 {
			return cycles, true
		}
	}
	return cycles, false
}

// checker enforces the sensitivity declarations while a process runs.
type checker struct {
	cur     *proc
	allowed map[*proc]*sensitivity
}

type sensitivity struct{ reads, drives map[*Signal]bool }

// CheckSensitivity makes every Get of a signal the running process did
// not declare as a read, and every Set of one it did not declare as a
// drive, panic. An undeclared read is a process that can miss a change;
// the check finds it on the first evaluation that takes the reading
// branch, whether or not the value happened to matter. Test benches
// (code running between Settle and Step calls) are not restricted.
func (sim *Simulator) CheckSensitivity() {
	sim.chk = &checker{allowed: make(map[*proc]*sensitivity)}
	for _, s := range sim.signals {
		s.chk = sim.chk
	}
}

func (k *checker) of(p *proc) *sensitivity {
	a := k.allowed[p]
	if a == nil {
		a = &sensitivity{make(map[*Signal]bool), make(map[*Signal]bool)}
		for _, s := range p.reads {
			a.reads[s] = true
		}
		for _, s := range p.drives {
			a.drives[s] = true
		}
		k.allowed[p] = a
	}
	return a
}

func (k *checker) read(s *Signal) {
	if k.cur != nil && !k.of(k.cur).reads[s] {
		panic(fmt.Sprintf("rtl: %v reads %q, which is not in its sensitivity list", k.cur, s.name))
	}
}

func (k *checker) drive(s *Signal) {
	if k.cur != nil && !k.of(k.cur).drives[s] {
		panic(fmt.Sprintf("rtl: %v drives %q, which it did not declare", k.cur, s.name))
	}
}
