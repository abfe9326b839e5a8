package rtl

// The evaluate-everything kernel this package ran before it scheduled by
// events, kept as the oracle the differential tests step in lock-step
// with the real one: every comb re-runs in registration order until no
// signal changes, and every sequential component is clocked on every
// edge. It ignores the sensitivity declarations entirely, so whatever
// they get wrong shows as a signal that differs.

// maxSettleIterations bounds the oracle's fixed-point loop.
const maxSettleIterations = 1000

// OracleSettle runs every combinational process to a fixed point.
func (sim *Simulator) OracleSettle() {
	before := make([]uint64, len(sim.signals))
	for i := 0; ; i++ {
		if i >= maxSettleIterations {
			panic("rtl: combinational logic did not settle")
		}
		for j, s := range sim.signals {
			before[j] = s.val
		}
		for _, c := range sim.combs {
			c.f()
		}
		changed := false
		for j, s := range sim.signals {
			changed = changed || before[j] != s.val
		}
		if !changed {
			return
		}
	}
}

// OracleStep advances the design by one clock edge the old way: settle,
// clock every sequential component, settle, sample.
func (sim *Simulator) OracleStep() {
	sim.OracleSettle()
	clear(sim.dirty) // marks left by Set mean nothing here
	for _, c := range sim.seqs {
		p := c.header()
		sim.dirty[p.word] |= p.bit
	}
	sim.edge()
	sim.OracleSettle()
	sim.cycle++
	for _, f := range sim.samples {
		f(sim.cycle)
	}
}
