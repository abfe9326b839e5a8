package lsm

import (
	"embeddedmpls/internal/label"
	"embeddedmpls/internal/rtl"
)

// StackFile is the register file holding the label stack in the data path
// (paper Figure 12, "LABEL STACK"): label.MaxDepth 32-bit entry registers
// plus an item counter. It is a synchronous component — push, pop, TTL
// rewrite and clear all take effect on the clock edge — with the bottom-
// of-stack bit maintained in hardware (an entry pushed onto an empty
// stack gets S=1, every other push S=0).
//
// Control signals (all sampled on the edge; Clr dominates, then Pop+Push
// together act as an atomic replace):
//
//	Clr     — reset the stack (discard the packet)
//	Push    — push Din
//	Pop     — remove the top entry
//	SetTTL  — rewrite the TTL of the (possibly new) top entry with TTLIn
//
// Outputs (combinational): Top (packed 32-bit top entry, 0 when empty)
// and Size. Every change of the stored entries that a later edge could
// observe moves one of them, which is what lets the simulator skip the
// file on edges where neither they nor the controls moved.
type StackFile struct {
	Clr    *rtl.Signal
	Push   *rtl.Signal
	Pop    *rtl.Signal
	SetTTL *rtl.Signal
	Din    *rtl.Signal // packed 32-bit entry to push
	TTLIn  *rtl.Signal // TTL for SetTTL
	Top    *rtl.Signal // packed 32-bit top entry
	Size   *rtl.Signal // current number of entries

	entries [label.MaxDepth]uint32
	size    int

	// latched command
	doClr, doPush, doPop, doSetTTL bool
	din                            uint32
	ttlIn                          uint8
}

// NewStackFile creates the stack register file, wires its output signals
// and registers it with the simulator. The caller provides the control
// signals; output signals are created here with the given name prefix.
func NewStackFile(sim *rtl.Simulator, prefix string, clr, push, pop, setTTL, din, ttlIn *rtl.Signal) *StackFile {
	s := &StackFile{
		Clr: clr, Push: push, Pop: pop, SetTTL: setTTL, Din: din, TTLIn: ttlIn,
		Top:  sim.Signal(prefix+"top", 32),
		Size: sim.Signal(prefix+"size", 2),
	}
	sim.Add(s, rtl.Sigs{clr, push, pop, setTTL, din, ttlIn}, rtl.Sigs{s.Top, s.Size})
	return s
}

// Latch samples the control and data inputs.
func (s *StackFile) Latch() {
	s.doClr = s.Clr.Bool()
	s.doPush = s.Push.Bool()
	s.doPop = s.Pop.Bool()
	s.doSetTTL = s.SetTTL.Bool()
	s.din = uint32(s.Din.Get())
	s.ttlIn = uint8(s.TTLIn.Get())
}

// Commit applies the latched command and drives the outputs.
func (s *StackFile) Commit() {
	switch {
	case s.doClr:
		s.size = 0
	default:
		if s.doPop && s.size > 0 {
			s.size--
		}
		if s.doPush && s.size < label.MaxDepth {
			e := label.Unpack(s.din)
			e.Bottom = s.size == 0
			s.entries[s.size] = e.MustPack()
			s.size++
		}
		if s.doSetTTL && s.size > 0 {
			e := label.Unpack(s.entries[s.size-1])
			e.TTL = s.ttlIn
			s.entries[s.size-1] = e.MustPack()
		}
	}
	s.drive()
}

func (s *StackFile) drive() {
	if s.size == 0 {
		s.Top.Set(0)
	} else {
		s.Top.Set(uint64(s.entries[s.size-1]))
	}
	s.Size.Set(uint64(s.size))
}

// Snapshot copies the current stack contents into a label.Stack for
// test-bench inspection.
func (s *StackFile) Snapshot() label.Stack {
	var st label.Stack
	for i := 0; i < s.size; i++ {
		if err := st.Push(label.Unpack(s.entries[i])); err != nil {
			panic("lsm: stack file deeper than label.MaxDepth: " + err.Error())
		}
	}
	return st
}
