package lsm

import (
	"embeddedmpls/internal/rtl"
)

// camBank is a content-addressable shadow of one information base level's
// index memory: it snoops the level's write port and answers "which
// address holds this key?" combinationally, the way a hardware CAM's
// parallel comparators would. It implements the associative-search
// ablation (experiment X3): the paper's linear search costs 3n+5 cycles,
// a CAM makes the lookup constant-time.
//
// Hit resolution on duplicate keys follows the linear search: the lowest
// address (first written) wins.
type camBank struct {
	// snooped write port
	wen   *rtl.Signal
	waddr *rtl.Signal
	wdata *rtl.Signal
	clr   *rtl.Signal

	// associative outputs, driven by a Comb the constructor registers
	key  *rtl.Signal
	hit  *rtl.Signal
	addr *rtl.Signal
	// gen counts content changes. The match logic reads words and valid,
	// which no other signal carries; gen is how a write or a clear reaches
	// its sensitivity list.
	gen *rtl.Signal

	words []uint64
	valid []bool

	changes          uint64
	doWrite, doClear bool
	pendAddr         uint64
	pendData         uint64
}

// newCAMBank attaches a CAM shadow to a write port. count bounds the
// number of valid entries considered (the level's write counter), so a
// reset that clears the counter also invalidates the CAM view.
func newCAMBank(sim *rtl.Simulator, name string, size int, wen, waddr, wdata, clr, key, count *rtl.Signal) *camBank {
	c := &camBank{
		wen: wen, waddr: waddr, wdata: wdata, clr: clr, key: key,
		hit:   sim.Signal(name+"_hit", 1),
		addr:  sim.Signal(name+"_addr", indexBits),
		gen:   sim.Signal(name+"_gen", 64),
		words: make([]uint64, size),
		valid: make([]bool, size),
	}
	sim.Add(c, rtl.Sigs{wen, waddr, wdata, clr}, rtl.Sigs{c.gen})
	sim.Comb(func() {
		k := key.Get()
		n := count.Get()
		for i, w := range c.words {
			if uint64(i) >= n {
				break
			}
			if c.valid[i] && w == k {
				c.hit.SetBool(true)
				c.addr.Set(uint64(i))
				return
			}
		}
		c.hit.SetBool(false)
		c.addr.Set(0)
	}, rtl.Sigs{key, count, c.gen}, rtl.Sigs{c.hit, c.addr})
	return c
}

// Latch snoops the write port.
func (c *camBank) Latch() {
	c.doClear = c.clr.Bool()
	c.doWrite = c.wen.Bool()
	if c.doWrite {
		c.pendAddr = c.waddr.Get() % uint64(len(c.words))
		c.pendData = c.wdata.Get()
	}
}

// Commit applies the snooped write.
func (c *camBank) Commit() {
	changed := false
	switch {
	case c.doClear:
		for i, v := range c.valid {
			if v {
				c.valid[i] = false
				changed = true
			}
		}
	case c.doWrite:
		changed = !c.valid[c.pendAddr] || c.words[c.pendAddr] != c.pendData
		c.words[c.pendAddr] = c.pendData
		c.valid[c.pendAddr] = true
	}
	if changed {
		c.changes++
		c.gen.Set(c.changes)
	}
}
