package lsm

import (
	"embeddedmpls/internal/label"
	"embeddedmpls/internal/rtl"
)

// PktProc is the hardware implementation of the packet processing
// interfaces of the paper's Figure 6 — the blocks the paper says "could
// be implemented in hardware or software". It owns the label stack
// modifier's command port and runs the full per-packet sequence in RTL:
//
//	ingress: deliver the label stack to the modifier, one user push per
//	         entry, back to back (3 cycles each — the exact loading cost
//	         the device-level model assumes)
//	update:  issue the update command and wait for completion
//	egress:  read the modified stack back out, one user pop per entry
//
// Drive it by loading InWord/InCount and the packet identifier inputs,
// pulsing Start, and stepping until Ready; the outgoing stack appears in
// OutWords/OutCount and discard in the modifier's packetdiscard flag.
type PktProc struct {
	HW *HW

	// External inputs.
	Start   *rtl.Signal                 // begin processing the loaded packet
	InWord  [label.MaxDepth]*rtl.Signal // packed entries, bottom first
	InCount *rtl.Signal                 // number of entries (0 = unlabelled)

	// External outputs.
	Ready    *rtl.Signal                 // one-cycle pulse: packet processed
	OutWords [label.MaxDepth]*rtl.Signal // outgoing stack, bottom first
	OutCount *rtl.Signal

	state *rtl.Signal
	idx   *rtl.Signal // entry index within the push/pop phases
	phase *rtl.Signal // 3-cycle sub-count per command
}

// PktProc FSM states.
const (
	ppIdle = iota
	ppPush
	ppUpdate
	ppPop
	ppDone
)

// NewPktProc builds a label stack modifier wrapped by hardware packet
// processing interfaces. The returned PktProc owns the modifier's
// enable/extoperation/data_in port; do not drive those signals directly.
func NewPktProc(rtype RouterType, opts Options) *PktProc {
	hw := NewWith(opts)
	hw.RtrType.Set(uint64(rtype))
	sim := hw.Sim
	p := &PktProc{
		HW:       hw,
		Start:    sim.Signal("pp_start", 1),
		InCount:  sim.Signal("pp_in_count", 2),
		Ready:    sim.Signal("pp_ready", 1),
		OutCount: sim.Signal("pp_out_count", 2),
		state:    sim.Signal("pp_state", 3),
		idx:      sim.Signal("pp_idx", 2),
		phase:    sim.Signal("pp_phase", 2),
	}
	for i := 0; i < label.MaxDepth; i++ {
		p.InWord[i] = sim.Signal("pp_in_"+string(byte('0'+i)), 32)
		p.OutWords[i] = sim.Signal("pp_out_"+string(byte('0'+i)), 32)
	}

	// Output capture registers: during the pop phase the current top is
	// latched just before each pop commits. Pops run top-down, so entry
	// (outCount-1-idx) is captured at step idx.
	outEn := make(rtl.Sigs, label.MaxDepth)
	outD := sim.Signal("pp_out_d", 32)
	for i := 0; i < label.MaxDepth; i++ {
		outEn[i] = sim.Signal("pp_out_en_"+string(byte('0'+i)), 1)
		rtl.NewRegister(sim, outD, p.OutWords[i], outEn[i], hw.Reset)
	}
	outCntEn := sim.Signal("pp_outcnt_en", 1)
	outCntD := sim.Signal("pp_outcnt_d", 2)
	rtl.NewRegister(sim, outCntD, p.OutCount, outCntEn, hw.Reset)

	// Index and phase counters.
	idxEn := sim.Signal("pp_idx_en", 1)
	idxClr := sim.Signal("pp_idx_clr", 1)
	rtl.NewCounter(sim, p.idx, idxEn, nil, nil, nil, idxClr)
	phEn := sim.Signal("pp_ph_en", 1)
	phClr := sim.Signal("pp_ph_clr", 1)
	rtl.NewCounter(sim, p.phase, phEn, nil, nil, nil, phClr)

	lastPhase := func() bool { return p.phase.Get() == uint64(CyclesUserPush-1) }

	// updStarted guards against the done pulse of the final ingress push
	// being mistaken for the update's completion: the update only counts
	// as done once the modifier has actually gone active for it.
	updStarted := sim.Signal("pp_upd_started", 1)
	updD := sim.Signal("pp_upd_d", 1)
	updEn := sim.Signal("pp_upd_en", 1)
	updClr := sim.Signal("pp_upd_clr", 1)
	rtl.NewRegister(sim, updD, updStarted, updEn, updClr)
	updateDone := func() bool { return hw.Done.Bool() && updStarted.Bool() }

	rtl.NewFSM(sim, p.state, func() uint64 {
		if hw.Reset.Bool() {
			return ppIdle
		}
		switch p.state.Get() {
		case ppIdle:
			if p.Start.Bool() {
				if p.InCount.Get() == 0 {
					return ppUpdate
				}
				return ppPush
			}
			return ppIdle
		case ppPush:
			if lastPhase() && p.idx.Get()+1 >= p.InCount.Get() {
				return ppUpdate
			}
			return ppPush
		case ppUpdate:
			if updateDone() {
				if hw.Stack.Size.Get() == 0 {
					return ppDone
				}
				return ppPop
			}
			return ppUpdate
		case ppPop:
			if lastPhase() && p.idx.Get()+1 >= uint64(label.MaxDepth) {
				return ppDone // safety bound; normally exits via size
			}
			if lastPhase() && hw.Stack.Size.Get() <= 1 {
				return ppDone // this pop empties the stack
			}
			return ppPop
		default: // ppDone
			return ppIdle
		}
	}, rtl.Sigs{hw.Reset, p.Start, p.InCount, p.phase, p.idx, hw.Done, updStarted, hw.Stack.Size})

	// Command port and counter control.
	sim.Comb(func() {
		st := p.state.Get()
		// Phase counter runs during push/pop, wrapping every 3 cycles.
		inCmd := st == ppPush || st == ppPop
		phEn.SetBool(inCmd && !lastPhase())
		phClr.SetBool(!inCmd || lastPhase())
		idxEn.SetBool(inCmd && lastPhase())
		idxClr.SetBool(st == ppIdle || st == ppUpdate || st == ppDone)

		switch st {
		case ppPush:
			hw.Enable.SetBool(true)
			hw.ExtOp.Set(uint64(CmdUserPush))
			i := p.idx.Get()
			if i >= uint64(label.MaxDepth) {
				i = uint64(label.MaxDepth) - 1
			}
			hw.DataIn.Set(p.InWord[i].Get())
		case ppUpdate:
			// Deassert once the update's own done pulse arrives so the
			// modifier does not retrigger.
			hw.Enable.SetBool(!updateDone())
			hw.ExtOp.Set(uint64(CmdUpdate))
			hw.DataIn.Set(0)
		case ppPop:
			hw.Enable.SetBool(true)
			hw.ExtOp.Set(uint64(CmdUserPop))
			hw.DataIn.Set(0)
		case ppDone:
			hw.Enable.SetBool(false)
			hw.ExtOp.Set(uint64(CmdNone))
			hw.DataIn.Set(0)
		default:
			// ppIdle: hands off the command port so the routing software
			// (e.g. a Bench programming the information base) can drive
			// it between packets.
		}

		// Egress capture: when a pop is about to commit (last phase),
		// latch the current top into its slot. The stack unloads
		// top-first; slot = size-1 keeps bottom-first ordering.
		size := hw.Stack.Size.Get()
		for i := range outEn {
			outEn[i].SetBool(st == ppPop && lastPhase() && size == uint64(i+1))
		}
		outD.Set(hw.Stack.Top.Get())
		// Out count: latched when the update completes.
		outCntEn.SetBool(st == ppUpdate && updateDone())
		outCntD.Set(size)

		// Update-start tracking.
		updD.SetBool(true)
		updEn.SetBool(st == ppUpdate && hw.MainState.Get() == mLblActive)
		updClr.SetBool(st != ppUpdate)

		p.Ready.SetBool(st == ppDone)
	}, join(rtl.Sigs{p.state, p.phase, p.idx, hw.Done, updStarted, hw.Stack.Size, hw.Stack.Top, hw.MainState},
		p.InWord[:]),
		join(rtl.Sigs{phEn, phClr, idxEn, idxClr, hw.Enable, hw.ExtOp, hw.DataIn, outD, outCntEn, outCntD,
			updD, updEn, updClr, p.Ready}, outEn))

	sim.Settle()
	return p
}

// Bench returns a command-port driver for the wrapped modifier, usable
// only while the packet processor is idle — the routing software path
// for programming the information base between packets.
func (p *PktProc) Bench() *Bench {
	return &Bench{HW: p.HW, MaxCycles: searchPerEntry*1024 + 64}
}

// Process runs one packet through the hardware interfaces: stack entries
// (bottom first), the packet identifier and control-path TTL/CoS in,
// modified stack out. It returns the resulting stack, whether the packet
// was discarded, and the total cycle count.
func (p *PktProc) Process(stack []label.Entry, packetID uint32, ttlIn uint8, cosIn label.CoS) (*label.Stack, bool, int, error) {
	hw := p.HW
	if len(stack) > label.MaxDepth {
		return nil, false, 0, label.ErrStackFull
	}
	for i, e := range stack {
		w, err := e.Pack()
		if err != nil {
			return nil, false, 0, err
		}
		p.InWord[i].Set(uint64(w))
	}
	p.InCount.Set(uint64(len(stack)))
	hw.PacketID.Set(uint64(packetID))
	hw.TTLIn.Set(uint64(ttlIn))
	hw.CoSIn.Set(uint64(cosIn))

	p.Start.SetBool(true)
	max := searchPerEntry*1024 + 128
	cycles, ok := hw.Sim.StepUntilSet(p.Ready, max)
	p.Start.SetBool(false)
	if !ok {
		return nil, false, cycles, ErrTimeout
	}
	// Drain the done state back to idle.
	hw.Sim.Step()

	out := &label.Stack{}
	n := int(p.OutCount.Get())
	for i := 0; i < n; i++ {
		if err := out.Push(label.Unpack(uint32(p.OutWords[i].Get()))); err != nil {
			return nil, false, cycles, err
		}
	}
	return out, hw.PacketDiscard.Bool(), cycles, nil
}
