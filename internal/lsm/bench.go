package lsm

import (
	"errors"
	"fmt"

	"embeddedmpls/internal/infobase"
	"embeddedmpls/internal/label"
	"embeddedmpls/internal/rtl"
)

// Bench drives the HW model with the command protocol the paper's
// simulations use — assert the inputs and enable, count clock edges until
// the done pulse, deassert — and reports the exact cycle cost of every
// operation. All Table 6 measurements come from this driver.
type Bench struct {
	HW *HW
	// MaxCycles bounds any single operation; a run that exceeds it
	// indicates a control unit deadlock.
	MaxCycles int
}

// ErrTimeout reports an operation that never raised done.
var ErrTimeout = errors.New("lsm: operation did not complete")

// NewBench builds a fresh HW model (the paper's linear-search design)
// configured as the given router type.
func NewBench(rtype RouterType) *Bench { return NewBenchWith(rtype, Options{}) }

// NewBenchWith builds a bench over an HW model with the given options
// (e.g. the CAM search ablation).
func NewBenchWith(rtype RouterType, opts Options) *Bench {
	b := &Bench{HW: NewWith(opts), MaxCycles: searchPerEntry*infobase.EntriesPerLevel + 64}
	b.HW.RtrType.Set(uint64(rtype))
	return b
}

// run asserts a command, steps until done, then deasserts the strobe.
func (b *Bench) run(cmd Command) (int, error) {
	b.strobe(cmd)
	cycles, ok := b.HW.Sim.StepUntilSet(b.HW.Done, b.MaxCycles)
	return cycles, b.release(cmd, cycles, ok)
}

// runSearch is run for the commands that start the search module. It
// stops at the search's completion pulse on the way to done to see
// whether the search hit and at which position: read index + 1 (0 for an
// empty level) for the linear design, or the CAM's matched address + 1
// for the associative ablation; on a miss, the entries scanned.
func (b *Bench) runSearch(cmd Command) (found bool, pos, cycles int, err error) {
	hw := b.HW
	b.strobe(cmd)
	cycles, ok := hw.Sim.StepUntilSet(hw.LookupDone, b.MaxCycles)
	if ok {
		found = hw.SearchFound()
		switch {
		case hw.Opts.Search == SearchCAM && found:
			pos = int(hw.camAddr.Get()) + 1
		case hw.Opts.Search == SearchCAM:
			pos = int(hw.wSel.Get())
		case hw.wSel.Get() == 0:
			pos = 0
		default:
			pos = int(hw.RIndex.Get()) + 1
		}
		// The completion pulse is registered, so it is at least a cycle
		// behind the search's.
		var more int
		more, ok = hw.Sim.StepUntilSet(hw.Done, b.MaxCycles-cycles)
		cycles += more
	}
	return found, pos, cycles, b.release(cmd, cycles, ok)
}

func (b *Bench) strobe(cmd Command) {
	b.HW.ExtOp.Set(uint64(cmd))
	b.HW.Enable.SetBool(true)
}

func (b *Bench) release(cmd Command, cycles int, done bool) error {
	b.HW.Enable.SetBool(false)
	b.HW.ExtOp.Set(uint64(CmdNone))
	if !done {
		return fmt.Errorf("%w: %v after %d cycles", ErrTimeout, cmd, cycles)
	}
	return nil
}

// ResetOp pulses the architecture reset and returns its cycle cost
// (Table 6: 3).
func (b *Bench) ResetOp() (int, error) {
	hw := b.HW
	// Drain any residue of a previous reset (sequencer count, done
	// pulse) so back-to-back resets each run the full 3-cycle sequence.
	// These idle edges are the gap between commands, not operation cost.
	for i := 0; i < 4 && (hw.rstCnt.Get() != 0 || hw.Done.Bool()); i++ {
		hw.Sim.Step()
	}
	hw.Reset.SetBool(true)
	cycles, ok := hw.Sim.StepUntilSet(hw.Done, b.MaxCycles)
	hw.Reset.SetBool(false)
	if !ok {
		return cycles, fmt.Errorf("%w: reset after %d cycles", ErrTimeout, cycles)
	}
	return cycles, nil
}

// UserPush pushes e directly onto the stack and returns the cycle cost
// (Table 6: 3). Pushing onto a full stack is silently ignored by the
// register file, as in hardware; callers guard depth themselves.
func (b *Bench) UserPush(e label.Entry) (int, error) {
	w, err := e.Pack()
	if err != nil {
		return 0, err
	}
	b.HW.DataIn.Set(uint64(w))
	return b.run(CmdUserPush)
}

// UserPop removes the top entry, returning it and the cycle cost
// (Table 6: 3).
func (b *Bench) UserPop() (label.Entry, int, error) {
	top := label.Unpack(uint32(b.HW.Stack.Top.Get()))
	hadTop := b.HW.Stack.Size.Get() > 0
	cycles, err := b.run(CmdUserPop)
	if err != nil {
		return label.Entry{}, cycles, err
	}
	if !hadTop {
		return label.Entry{}, cycles, label.ErrStackEmpty
	}
	return top, cycles, nil
}

// WritePair stores a pair at level lv (Table 6: 3 cycles). Writing to a
// full level wraps in hardware; the bench rejects it instead, because a
// silently overwritten pair would corrupt an unrelated LSP.
func (b *Bench) WritePair(lv infobase.Level, p infobase.Pair) (int, error) {
	if err := infobase.ValidatePair(lv, p); err != nil {
		return 0, err
	}
	hw := b.HW
	if hw.WriteCount(lv) >= infobase.EntriesPerLevel {
		return 0, fmt.Errorf("%w: level %d", infobase.ErrLevelFull, lv)
	}
	hw.Level.Set(uint64(lv))
	hw.NewLabel.Set(uint64(p.NewLabel))
	hw.OperationIn.Set(uint64(p.Op))
	if lv == infobase.Level1 {
		hw.PacketID.Set(uint64(p.Index))
	} else {
		hw.OldLabel.Set(uint64(p.Index))
	}
	return b.run(CmdWritePair)
}

// LookupResult is the outcome of a direct information base lookup.
type LookupResult struct {
	Label     label.Label
	Op        label.Op
	Found     bool
	SearchPos int // 1-based hit position, or entries scanned on a miss
}

// Lookup searches level lv for key and returns the result plus the cycle
// cost (Table 6: 3n+5 worst case; 3i+5 for a hit at position i).
func (b *Bench) Lookup(lv infobase.Level, key infobase.Key) (LookupResult, int, error) {
	hw := b.HW
	hw.Level.Set(uint64(lv))
	if lv == infobase.Level1 {
		hw.PacketID.Set(uint64(key))
	} else {
		hw.LabelLookup.Set(uint64(key))
	}
	found, pos, cycles, err := b.runSearch(CmdLookup)
	res := LookupResult{Found: found, SearchPos: pos}
	if err != nil {
		return res, cycles, err
	}
	res.Label = label.Label(hw.LabelOut.Get())
	res.Op = label.Op(hw.OperationOut.Get())
	return res, cycles, nil
}

// ReadPair reads the stored pair at address i of level lv directly (the
// management read-out path; constant CyclesReadPair cycles). Reading an
// address at or beyond the level's write count is refused — the memory
// word exists but holds no pair.
func (b *Bench) ReadPair(lv infobase.Level, i int) (infobase.Pair, int, error) {
	hw := b.HW
	if !lv.Valid() {
		return infobase.Pair{}, 0, infobase.ErrInvalidLevel
	}
	if i < 0 || i >= hw.WriteCount(lv) {
		return infobase.Pair{}, 0, fmt.Errorf("lsm: no pair at level %d address %d", lv, i)
	}
	hw.Level.Set(uint64(lv))
	hw.DataIn.Set(uint64(i))
	cycles, err := b.run(CmdReadPair)
	if err != nil {
		return infobase.Pair{}, cycles, err
	}
	return infobase.Pair{
		Index:    infobase.Key(hw.IndexOut.Get()),
		NewLabel: label.Label(hw.LabelOut.Get()),
		Op:       label.Op(hw.OperationOut.Get()),
	}, cycles, nil
}

// Update runs the packet-driven label stack update and returns what
// happened plus the cycle cost: SearchCycles(pos) + the operation tail
// (6 for the Table 6 swap).
func (b *Bench) Update(req UpdateRequest) (UpdateResult, int, error) {
	hw := b.HW
	hw.PacketID.Set(uint64(req.PacketID))
	hw.TTLIn.Set(uint64(req.TTLIn))
	hw.CoSIn.Set(uint64(req.CoSIn))
	found, pos, cycles, err := b.runSearch(CmdUpdate)
	res := UpdateResult{SearchPos: pos}
	if err != nil {
		return res, cycles, err
	}
	res.NewLabel = label.Label(hw.LabelOut.Get())
	res.Op = label.Op(hw.OperationOut.Get())
	if hw.PacketDiscard.Bool() {
		switch {
		case !found:
			res.Discard = DiscardNotFound
		case hw.TTLQ.Get() == 0:
			res.Discard = DiscardTTLExpired
		default:
			res.Discard = DiscardInconsistent
		}
	}
	return res, cycles, nil
}

// StackSnapshot returns a copy of the current hardware stack contents.
func (b *Bench) StackSnapshot() label.Stack { return b.HW.Stack.Snapshot() }

// Sim exposes the underlying simulator (for tracing).
func (b *Bench) Sim() *rtl.Simulator { return b.HW.Sim }
