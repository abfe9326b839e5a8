package rtl

import "fmt"

// Register is a D flip-flop bank with optional enable and synchronous
// clear, mirroring the "NEW REGISTER" and similar storage elements of the
// label stack modifier data path. Clr wins over En; with En nil the
// register loads every cycle.
type Register struct {
	proc
	D   *Signal // data in
	Q   *Signal // data out
	En  *Signal // load enable (nil: always load)
	Clr *Signal // synchronous clear (nil: never)
}

// NewRegister builds a register and adds it to the simulator.
func NewRegister(sim *Simulator, d, q, en, clr *Signal) *Register {
	r := &Register{D: d, Q: q, En: en, Clr: clr}
	sim.addClocked(r, "register", Sigs{d, q, en, clr}, Sigs{q})
	return r
}

// clock captures the next value from the settled inputs.
func (r *Register) clock(sim *Simulator) {
	switch {
	case r.Clr != nil && r.Clr.Bool():
		sim.deferSet(r.Q, 0)
	case r.En == nil || r.En.Bool():
		sim.deferSet(r.Q, r.D.Get())
	}
}

// Counter is an up/down counter with load and synchronous clear — the
// data path uses counters for the TTL, the stack item count, and the
// information base read/write addresses. Priority: Clr, then Ld, then En.
// Down counts saturate at zero (the TTL counter must not wrap).
type Counter struct {
	proc
	Q    *Signal // current count
	En   *Signal // count enable
	Down *Signal // direction: 0 increments, 1 decrements (nil: always up)
	Ld   *Signal // load enable (nil: never)
	D    *Signal // load value (required when Ld is set)
	Clr  *Signal // synchronous clear (nil: never)
}

// NewCounter builds a counter and adds it to the simulator.
func NewCounter(sim *Simulator, q, en, down, ld, d, clr *Signal) *Counter {
	if ld != nil && d == nil {
		panic("rtl: counter with a load enable needs a load value signal")
	}
	c := &Counter{Q: q, En: en, Down: down, Ld: ld, D: d, Clr: clr}
	sim.addClocked(c, "counter", Sigs{q, en, down, ld, d, clr}, Sigs{q})
	return c
}

// clock computes the next count.
func (c *Counter) clock(sim *Simulator) {
	switch {
	case c.Clr != nil && c.Clr.Bool():
		sim.deferSet(c.Q, 0)
	case c.Ld != nil && c.Ld.Bool():
		sim.deferSet(c.Q, c.D.Get())
	case c.En != nil && c.En.Bool():
		cur := c.Q.Get()
		if c.Down == nil || !c.Down.Bool() {
			sim.deferSet(c.Q, cur+1)
		} else if cur > 0 {
			sim.deferSet(c.Q, cur-1)
		}
	}
}

// RAM is a synchronous-read, synchronous-write memory block like the
// index/label/operation components of the information base: the word
// addressed by RAddr appears on RData one clock edge later, and a write
// with WEn high lands on the same edge. A simultaneous read of the word
// being written returns the old contents (read-before-write ports).
type RAM struct {
	proc
	RAddr *Signal // read address
	RData *Signal // read data, 1-cycle latency
	WAddr *Signal // write address
	WData *Signal // write data
	WEn   *Signal // write enable

	mem []uint64
}

// NewRAM builds a memory with the given number of words and adds it to
// the simulator.
func NewRAM(sim *Simulator, words int, raddr, rdata, waddr, wdata, wen *Signal) *RAM {
	if words <= 0 {
		panic(fmt.Sprintf("rtl: RAM with %d words", words))
	}
	m := &RAM{RAddr: raddr, RData: rdata, WAddr: waddr, WData: wdata, WEn: wen,
		mem: make([]uint64, words)}
	sim.addClocked(m, "RAM", Sigs{raddr, waddr, wdata, wen}, Sigs{rdata})
	return m
}

// Words returns the capacity of the memory.
func (m *RAM) Words() int { return len(m.mem) }

// Peek returns the stored word at addr without simulating a read port;
// test benches use it to verify contents.
func (m *RAM) Peek(addr int) uint64 { return m.mem[addr] }

// clock samples the read port, then applies the write: no other process
// sees the stored words, so the write need not wait for the end of the
// edge. Out-of-range addresses wrap, as the address bits of a physical
// memory would.
func (m *RAM) clock(sim *Simulator) {
	sim.deferSet(m.RData, m.mem[m.wrap(m.RAddr.Get())])
	if m.WEn.Bool() {
		a, d := m.wrap(m.WAddr.Get()), m.WData.Get()
		if m.mem[a] != d {
			m.mem[a] = d
			// No signal carries the stored words: with the ports held,
			// the next edge may still read the word just written.
			sim.dirty[m.word] |= m.bit
		}
	}
}

// wrap reduces an address to the memory's range; the division is kept off
// the in-range path.
func (m *RAM) wrap(addr uint64) uint64 {
	if n := uint64(len(m.mem)); addr >= n {
		addr %= n
	}
	return addr
}

// Comparator registers a combinational equality comparator driving eq
// with (a == b). The data path instantiates three: 32-bit (packet
// identifier vs level-1 index), 20-bit (label vs level-2/3 index) and
// 10-bit (read vs write memory address).
func Comparator(sim *Simulator, a, b, eq *Signal) {
	sim.Comb(func() { eq.SetBool(a.Get() == b.Get()) }, Sigs{a, b}, Sigs{eq})
}

// FSM is a finite state machine: a state register whose next value is an
// arbitrary function of the settled signals. Moore outputs are expressed
// as separate Comb processes reading State.
type FSM struct {
	proc
	State *Signal
	Next  func() uint64
}

// NewFSM builds a state machine and adds it to the simulator. next must
// be a pure function of state and the signals in reads.
func NewFSM(sim *Simulator, state *Signal, next func() uint64, reads Sigs) *FSM {
	f := &FSM{State: state, Next: next}
	sim.addClocked(f, "FSM", append(Sigs{state}, reads...), Sigs{state})
	return f
}

// clock computes the next state.
func (f *FSM) clock(sim *Simulator) { sim.deferSet(f.State, f.Next()) }
